"""Command-line surface and serialization round-trips."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    parse_csv_report,
    parse_csv_table,
    parse_json_report,
    parse_json_table,
    reference_region_rows,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from aloha_priority import cli, qbd, reports, verify
from aloha_priority.cli import main
from aloha_priority.model import AccessProbabilities, ArrivalRates
from aloha_priority.stability import union_region_contains
from aloha_priority.verify import CheckResult

HALF = AccessProbabilities(0.5, 0.5)
SRC = Path(__file__).resolve().parent.parent / "src"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSerialization:
    AWKWARD = [0.1, 1.0 / 3.0, 1e-17, 0.30000000000000004, 12, "text"]

    def test_csv_table_round_trip(self):
        text = reports.emit_table(["a", "b", "c", "d", "e", "f"], [self.AWKWARD], "csv")
        columns, rows = parse_csv_table(text)
        assert columns == ["a", "b", "c", "d", "e", "f"]
        assert rows == [self.AWKWARD]

    def test_json_table_round_trip(self):
        text = reports.emit_table(["a", "b", "c", "d", "e", "f"], [self.AWKWARD], "json")
        columns, rows = parse_json_table(text)
        assert rows == [self.AWKWARD]

    def test_report_round_trips(self):
        report = {"x": 0.1 + 0.2, "n": 7, "s": "stable"}
        assert parse_csv_report(reports.emit_report(report, "csv")) == report
        assert parse_json_report(reports.emit_report(report, "json")) == report

    # (value, csv cell, json value): plain floats, ints and strings pass
    # through, numpy scalars collapse to plain values, bools become ints,
    # None is an empty csv cell, and json writes a non-finite float as null
    VALUE_RULES = [
        (0.1, "0.1", 0.1), (np.float64(1 / 3), repr(1 / 3), 1 / 3), (-0.0, "-0.0", -0.0),
        (np.float64(-0.0), "-0.0", -0.0), (7, "7", 7), (np.int64(7), "7", 7),
        ("text", "text", "text"), (np.str_("text"), "text", "text"),
        (True, "1", 1), (False, "0", 0), (np.True_, "1", 1), (np.bool_(False), "0", 0),
        (None, "", None), (math.nan, "nan", None), (np.float64(np.nan), "nan", None),
        (math.inf, "inf", None), (np.float64(-np.inf), "-inf", None),
    ]

    def test_render_keeps_every_type_rule(self):
        values, cells, plain = (list(c) for c in zip(*self.VALUE_RULES))
        names = [f"c{i}" for i in range(len(values))]
        report = dict(zip(names, values))
        table_csv = reports.emit_table(names, [values], "csv")
        assert list(csv.reader(io.StringIO(table_csv))) == [names, cells]
        report_csv = reports.emit_report(report, "csv")
        assert list(csv.reader(io.StringIO(report_csv))) == [
            ["field", "value"], *(list(pair) for pair in zip(names, cells))
        ]
        table_json = json.loads(reports.emit_table(names, [values], "json"))
        report_json = json.loads(reports.emit_report(report, "json"))
        # type and repr tell -0.0 from 0.0 and 1 from True
        expected = [(type(v), repr(v)) for v in plain]
        assert [(type(v), repr(v)) for v in table_json["rows"][0]] == expected
        assert [(type(v), repr(v)) for v in report_json.values()] == expected

    def test_rejects(self):
        with pytest.raises(ValueError):
            reports.emit_table(["a"], [], "xml")
        with pytest.raises(ValueError):
            reports.emit_report({}, "xml")
        with pytest.raises(ValueError):
            parse_csv_report("a,b\n1,2\n")


class TestBoundary:
    def test_priority_curve(self, capsys):
        code, out, _ = _run(
            capsys, ["boundary", "--scheme", "priority", "--step", "0.1"]
        )
        assert code == 0
        columns, rows = parse_csv_table(out)
        assert columns == ["lambda1", "lambda2"]
        assert len(rows) == 11
        table = dict((row[0], row[1]) for row in rows)
        assert table[0.1] == 0.8
        assert table[0.5] == 0.125
        assert table[1] == 0

    def test_ra_curve_endpoints(self, capsys):
        code, out, _ = _run(capsys, ["boundary", "--scheme", "ra", "--step", "0.1"])
        assert code == 0
        _, rows = parse_csv_table(out)
        table = dict((row[0], row[1]) for row in rows)
        assert table[0] == 1
        assert table[1] == 0
        assert abs(table[0.3] - (1.0 - 0.3**0.5) ** 2) < 1e-15

    def test_json_format(self, capsys):
        code, out, _ = _run(
            capsys,
            ["boundary", "--scheme", "td", "--step", "0.1", "--format", "json"],
        )
        assert code == 0
        columns, rows = parse_json_table(out)
        assert columns == ["lambda1", "lambda2"]
        assert rows[3] == [0.3, 0.7]


class TestRegion:
    def test_flags_match_predicates(self, capsys):
        code, out, _ = _run(
            capsys, ["region", "--p1", "0.5", "--p2", "0.5", "--lambda-step", "0.1"]
        )
        assert code == 0
        columns, rows = parse_csv_table(out)
        assert columns == ["lambda1", "lambda2", "stable", "binding"]
        assert len(rows) == 81
        for l1, l2, stable, binding in rows:
            verdict = union_region_contains(HALF, ArrivalRates(l1, l2))
            assert stable == int(verdict.stable)
            assert binding == (verdict.binding or "")

    @pytest.mark.parametrize("p1,p2", [(0.0, 0.0), (0.5, 0.5), (1.0, 0.5), (0.3, 1.0)])
    def test_rows_match_the_scalar_loop(self, capsys, p1, p2):
        code, out, _ = _run(capsys, ["region", "--p1", str(p1), "--p2", str(p2)])
        assert code == 0
        rates = (np.arange(1, 100) / 100).tolist()
        expected = [[l1, l2, int(stable), binding] for l1, l2, stable, binding
                    in reference_region_rows(AccessProbabilities(p1, p2), rates)]
        assert parse_csv_table(out)[1] == expected


class TestSweepCommand:
    def test_columns_and_consistency(self, capsys):
        code, out, _ = _run(
            capsys, ["sweep", "--p-step", "0.05", "--lambda-step", "0.1"]
        )
        assert code == 0
        columns, rows = parse_csv_table(out)
        assert columns == [
            "lambda1",
            "priority_numeric",
            "priority_closed",
            "ra",
            "td",
            "argmax_p1",
            "argmax_p2",
        ]
        assert len(rows) == 9
        for row in rows:
            # numeric envelope never beats the closed form, which stays
            # inside the time-division bound
            assert row[1] <= row[2] + 1e-12
            assert row[2] <= row[4] + 1e-12


class TestSimulateCommand:
    ARGS = [
        "simulate",
        "--mode",
        "ds1",
        "--p1",
        "0.5",
        "--p2",
        "0.5",
        "--l1",
        "0.2",
        "--l2",
        "0.5",
        "--slots",
        "20000",
    ]

    def test_byte_identical_reruns(self, capsys):
        code_a, out_a, _ = _run(capsys, self.ARGS)
        code_b, out_b, _ = _run(capsys, self.ARGS)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_csv_and_json_carry_identical_values(self, capsys):
        _, out_csv, _ = _run(capsys, self.ARGS)
        _, out_json, _ = _run(capsys, self.ARGS + ["--format", "json"])
        as_csv = parse_csv_report(out_csv)
        as_json = parse_json_report(out_json)
        assert as_csv == as_json

    def test_report_fields(self, capsys):
        _, out, _ = _run(capsys, self.ARGS + ["--format", "json"])
        report = parse_json_report(out)
        assert report["mode"] == "ds1"
        assert report["slots"] == 20000
        assert report["warmup"] == 10000
        assert report["seed"] == 24301
        assert report["delivered_q2"] + report["delivered_q1"] <= 10000
        assert report["verdict_q1"] in ("stable", "unstable", "inconclusive")
        assert 0.0 <= report["backoff_occupancy"] <= 1.0

    def test_short_run_json_is_strict(self, capsys):
        # 25 post-warmup slots are too few for batch standard errors; json
        # has no NaN, so those fields must come out as null
        def reject(name):
            raise ValueError(f"non-standard json constant {name}")

        code, out, _ = _run(
            capsys,
            ["simulate", "--p1", "0.5", "--p2", "0.5", "--l1", "0.2", "--l2", "0.2",
             "--slots", "50", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out, parse_constant=reject)
        assert report["mu_stderr_q1"] is None
        assert report["occupancy_stderr"] is None
        assert report["mu_q1"] == report["delivered_q1"] / report["busy_slots_q1"]


class TestAnalyzeQbd:
    def test_reference_report(self, capsys):
        code, out, _ = _run(
            capsys,
            ["analyze", "qbd", "--p1", "0.5", "--p2", "0.5", "--l2", "0.1",
             "--format", "json"],
        )
        assert code == 0
        report = parse_json_report(out)
        blocks = qbd.qbd_blocks(HALF, 0.1)
        assert report["b_00"] == blocks.b[0, 0] == 0.925
        assert report["a1_00"] == blocks.a1[0, 0] == pytest.approx(0.475, rel=1e-15)
        assert report["a1_01"] == blocks.a1[0, 1]
        assert report["a2_00"] == blocks.a2[0, 0] == pytest.approx(0.05, rel=1e-15)
        assert report["r_closed_00"] == qbd.rate_matrix_closed_form(HALF, 0.1)[0, 0]
        assert report["r_closed_01"] == qbd.rate_matrix_closed_form(HALF, 0.1)[0, 1]
        assert report["pi0"] == qbd.ds2_pi0(HALF, 0.1)
        assert report["mu1_closed_form"] == qbd.ds2_service_rate_q1(HALF, 0.1)
        assert report["mu1_closed_form"] == pytest.approx(0.45, rel=1e-15)
        assert report["sp_closed_form"] == pytest.approx(0.457613871580016, rel=1e-12)
        assert report["sp_eigen"] == pytest.approx(report["sp_closed_form"], abs=1e-10)
        assert report["r_balance_residual"] < 1e-12
        assert report["solver_max_delta"] < 1e-8
        assert abs(report["mu1_series"] - report["mu1_closed_form"]) < 1e-10

    def test_csv_floats_parse_back_exactly(self, capsys):
        _, out_csv, _ = _run(
            capsys, ["analyze", "qbd", "--p1", "0.5", "--p2", "0.5", "--l2", "0.1"]
        )
        report = parse_csv_report(out_csv)
        assert report["sp_closed_form"] == qbd.spectral_radius_closed_form(HALF, 0.1)


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "ds1"])
        assert code == 0
        columns, rows = parse_csv_table(out)
        assert columns == ["check", "value", "threshold", "passed"]
        assert rows and all(row[3] == 1 for row in rows)

    def test_failing_suite_exits_2(self, capsys, monkeypatch):
        failing = [CheckResult(name="synthetic", value=1.0, threshold=0.5, passed=False)]
        monkeypatch.setattr("aloha_priority.verify.run_suite", lambda name: failing)
        code, out, _ = _run(capsys, ["verify", "--suite", "all"])
        assert code == 2
        _, rows = parse_csv_table(out)
        assert rows == [["synthetic", 1.0, 0.5, 0]]

    def test_all_concatenates_the_suites_in_order(self, monkeypatch):
        # stubbed suites, so the real ones do not run
        for name in verify.SUITES:
            rows = [CheckResult(f"{name} {i}", float(i), 1.0, True) for i in range(2)]
            monkeypatch.setitem(verify.SUITES, name, lambda rows=rows: list(rows))
        got = [row.name for row in verify.run_suite("all")]
        assert got == [f"{name} {i}" for name in ("ds1", "qbd", "ds3", "containment") for i in (0, 1)]

    def test_unknown_suite_names_the_choices(self):
        choices = r"\['containment', 'ds1', 'ds3', 'qbd'\] or 'all'"
        with pytest.raises(ValueError, match=f"unknown suite 'nope'; choose from {choices}"):
            verify.run_suite("nope")


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert _run(capsys, ["boundary"])[0] == 1  # missing required flag
        assert _run(capsys, ["no-such-command"])[0] == 1
        assert _run(capsys, ["boundary", "--scheme", "priority", "--step", "0.3"])[0] == 1
        assert _run(capsys, ["simulate", "--p1", "0.5", "--p2", "0.5",
                             "--l1", "1.5", "--l2", "0.1"])[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["boundary", "--scheme", "priority", "--step"],
            ["region", "--p1", "0.5", "--p2", "0.5", "--lambda-step"],
            ["sweep", "--lambda-step", "0.1", "--p-step"],
            ["sweep", "--p-step", "0.1", "--lambda-step"],
        ],
    )
    def test_step_messages(self, capsys, argv):
        flag = argv[-1]
        for text, message in (
            ("0", "step 0 not in (0, 0.1]"),
            ("0.2", "step 0.2 not in (0, 0.1]"),
            ("0.03", "step 0.03 must divide 1 evenly"),
            ("abc", "invalid _step value: 'abc'"),
        ):
            code, _, err = _run(capsys, argv + [text])
            assert code == 1
            assert err.endswith(f"error: argument {flag}: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["boundary", "--scheme", "priority", "--step"],
            ["region", "--p1", "0.5", "--p2", "0.5", "--lambda-step"],
            ["sweep", "--lambda-step", "0.1", "--p-step"],
            ["sweep", "--p-step", "0.1", "--lambda-step"],
        ],
    )
    def test_step_floor_messages(self, capsys, argv):
        for text in ("0.0005", "1e-9", "1e-300"):
            code, out, err = _run(capsys, argv + [text])
            assert code == 1
            assert out == ""
            assert err.endswith(f"error: argument {argv[-1]}: step {text} is finer than 0.001\n")

    # the second run's first array (one byte per slot) is refused at once:
    # 10^18 bytes lie past any address space, so nothing is partly allocated
    @pytest.mark.parametrize(
        "extra", [["--slots", "20000", "--warmup", "30000"], ["--slots", str(10**18)]]
    )
    def test_config_error_is_usage_error(self, capsys, extra):
        code, out, err = _run(
            capsys,
            ["simulate", "--p1", "0.5", "--p2", "0.5", "--l1", "0.1", "--l2", "0.1", *extra],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = _run(capsys, ["boundary", "--scheme", "ra", "--out", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize(
        "argv,message",
        [
            *((["analyze", "qbd", "--p1", "0.5", "--p2", "0.5", "--l2", l2],
               f"l2 must lie in (0, 1), got {float(l2)!r}")
              for l2 in ("0", "1", "-0.0", "nan")),
            *((["simulate", "--p1", "0.5", "--p2", "0.5", "--l1", "0.1", "--l2", "0.1",
                "--slots", slots], "horizon must be at least 2 slots")
              for slots in ("0", "1", "-1")),
        ],
    )
    def test_model_range_is_usage_error(self, capsys, argv, message):
        # the model's types own these ranges; ds2_pi0 alone would return 1.0
        # at l2 = 0 and exit 0
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"usage error: {message}\n"

    def test_help_exits_0(self, capsys):
        assert _run(capsys, ["--help"])[0] == 0

    def test_rejection_exits_3(self, capsys):
        # degenerate, unstable, the critical witness where sp(R) = 1 and the
        # rate-matrix fixed point would stall, and a stable point next to
        # p1 = 1.  There det(I - A1) is 7.05e-17 exactly, so its inverse has
        # entries near 1e16; a factored det would fix the det's digits but
        # not that conditioning, and the rejection stays.
        for p1, p2, l2, reason in (
            ("1.0", "0.5", "0.1", "divides by"),
            ("0.5", "0.5", "0.3", "unstable"),
            ("0.5", "0.5", "0.2", "unstable"),
            ("0.9999999999999999", "0.5", "1e-17", "I - A1 is singular"),
        ):
            code, _, err = _run(capsys, ["analyze", "qbd", "--p1", p1, "--p2", p2, "--l2", l2])
            assert code == 3
            assert err.startswith("rejected:")
            assert reason in err

    def test_float_critical_point_is_rejected(self, capsys):
        # l2 one ulp below mu2'' = 0.17647058823529413, where the closed-form
        # sp(R) rounds to 1, and l2 eight ulps below mu2'' at the second p,
        # where pi0 rounds below 0: the guard rejects both, where the fixed
        # point would run all its steps and stop on "did not reach tol"
        for p1, p2, l2 in [
            ("0.1", "0.2", "0.1764705882352941"),
            ("0.9845007048898241", "0.7274075192160417", "0.006569597106128218"),
        ]:
            argv = ["analyze", "qbd", "--p1", p1, "--p2", p2, "--l2", l2]
            code, out, err = _run(capsys, argv)
            assert (code, out) == (3, "")
            assert err.startswith("rejected: queue 2 unstable")


# probabilities and rates at and past the edges of their ranges, as typed
_EDGES = st.sampled_from(["0", "1", "1e-300", repr(1 - 1e-16), "nan", "inf", "-0.0"])


def _no_constant(name):
    raise ValueError(f"json output holds {name}")


class TestParserReuse:
    """``main`` builds its parser once per process; a usage error or a
    ``--help`` on it must leave every later parse as the first one was."""

    VALID = [
        ["boundary", "--scheme", "td", "--step", "0.1", "--format", "json"],
        ["boundary", "--scheme", "td", "--step", "0.1"],
        ["region", "--p1", "0.5", "--p2", "0.5", "--lambda-step", "0.1"],
        ["simulate", "--p1", "0.5", "--p2", "0.5", "--l1", "0.2", "--l2", "0.2",
         "--slots", "2000"],
    ]
    INTERRUPTIONS = [
        (["boundary"], 1),
        (["--help"], 0),
        (["region", "--p1", "0.5", "--p2", "0.5", "--lambda-step", "0.3"], 1),
        (["simulate", "--help"], 0),
        (["simulate", "--kind", "nope", "--p1", "0.5"], 1),
        (["analyze", "qbd", "--help"], 0),
    ]

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_interleaved_errors_and_help_leave_commands_unchanged(self, capsys):
        first = [_run(capsys, argv)[:2] for argv in self.VALID]
        assert [code for code, _ in first] == [0] * len(self.VALID)
        for argv, code in self.INTERRUPTIONS:
            for valid, expected in zip(self.VALID, first):
                assert _run(capsys, argv)[0] == code
                assert _run(capsys, valid)[:2] == expected


class TestEdgeInputs:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(["qbd", "region", "simulate"]),
        p1=_EDGES,
        p2=_EDGES,
        l1=_EDGES,
        l2=_EDGES,
    )
    def test_edge_values_exit_cleanly(self, command, p1, p2, l1, l2):
        argv = {
            "qbd": ["analyze", "qbd", "--p1", p1, "--p2", p2, "--l2", l2],
            "region": ["region", "--p1", p1, "--p2", p2, "--lambda-step", "0.1"],
            "simulate": ["simulate", "--p1", p1, "--p2", p2, "--l1", l1, "--l2", l2,
                         "--slots", "2000"],
        }[command] + ["--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 3), (argv, code)
        assert "Traceback" not in err.getvalue()
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=_no_constant)


# Runs each command read from stdin in-process, as the benchmark does, and
# prints {command: [exit code, sha256 of stdout]} as json.
_REPLAY = """
import contextlib, hashlib, io, json, sys
from aloha_priority.cli import main
digests = {}
for command in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    digests[command] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
json.dump(digests, sys.stdout)
"""


def _one_blas_thread_env() -> dict[str, str]:
    """The environment for a child process that imports the package from
    ``src`` with one BLAS thread: the oracle's LAPACK solve gives different
    last bits at two threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _replay(commands: list[str]) -> dict[str, list]:
    """{command: [exit code, sha256 of stdout]}, all run in one child process."""
    done = subprocess.run(
        [sys.executable, "-c", _REPLAY], input=json.dumps(commands),
        capture_output=True, text=True, env=_one_blas_thread_env(), check=False,
    )
    assert (done.returncode, done.stderr) == (0, "")
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def verify_digests():
    return _replay([command for command, _ in TestClosedFormBytes.VERIFY])


_QBD = "analyze qbd --p1 {} --p2 {} --l2 {} --format {}"
_SIM = "simulate --kind {} --mode {} --p1 0.5 --p2 0.5 --l1 0.15 --l2 0.1 --slots 30000 --format {}"


class TestClosedFormBytes:
    # sha256 of stdout.  The region, sweep and boundary commands are
    # closed-form arithmetic only, so a moved byte means a region clause or
    # envelope changed its arithmetic.  The simulate commands run at the
    # default seed, so a moved byte means a statistic, a verdict or the report
    # layout changed.  The analyze qbd and verify commands pin the rate-matrix
    # report and every verify check row, value and threshold included.
    GOLDEN = [
        ("region --p1 0 --p2 0 --lambda-step 0.05",
         "bb5e01bc535919a73ada7413775b6ad07201570657242413c6d6e758ad498ddb"),
        ("region --p1 0 --p2 0.5 --lambda-step 0.05",
         "d49a3c3bc12947679ec9f64d4c0b1ae4fa9992fc645ce4708f7f7aa63f395edd"),
        ("region --p1 0 --p2 1 --lambda-step 0.05",
         "52651c4c9d9d11054581bc10fdbbc930c08adb307ae7d29861e7c638a4f45dcf"),
        ("region --p1 0.5 --p2 0 --lambda-step 0.05",
         "4b24962993036f26c3817b9401a7cb2027ea7d27b8b00c1d71158c2f943aa4e9"),
        ("region --p1 0.5 --p2 0.5 --lambda-step 0.05",
         "d6894d7fca88e9cac874538d5485c2de691572d04f67f475a8e7c18342882404"),
        ("region --p1 0.5 --p2 1 --lambda-step 0.05",
         "30b93fbab3682e7cc18caff4a1a30c317ab7f7fe06998922b5aeb705eb0204e5"),
        ("region --p1 1 --p2 0 --lambda-step 0.05",
         "2a4b68ee0f740a5f5045c92163cf640af0b3925e31dae456190841c4a8b4b21f"),
        ("region --p1 1 --p2 0.5 --lambda-step 0.05",
         "eb19b2b809a009bb294f5eae3eb76e34fb901e7c9f70c7a57ef7bdc8cad8655f"),
        ("region --p1 1 --p2 1 --lambda-step 0.05",
         "13f34087af30f013e46edf2e97c496263287262e9de2d71b648eeae184b73434"),
        # json goes through reports._json, which also turns a non-finite
        # float into null
        ("region --p1 0.5 --p2 0.5 --lambda-step 0.05 --format json",
         "9ae2a6a5653a89e9ee9a61e8c65cc38e5547aa57d193e8cb7a6252968d12c271"),
        ("sweep --p-step 0.05 --lambda-step 0.05",
         "405253c8d6418fecbe26535a1f7c6ebbcddcabe431703de893b0f4a74ed5e093"),
        ("sweep --p-step 0.05 --lambda-step 0.05 --format json",
         "aa7ae6f81d2acb1ffc6630831c7ce8955e0f097d823b50b04d738347dc85deb8"),
        ("boundary --scheme priority",
         "fbbaef55ae093fe624c38a7ee52d7ac16a88eeaba4347d6830c97b2a6e2bb634"),
        ("boundary --scheme ra",
         "2baa7de756d380b90479837dd60bb815a0cbcf98bc0d33214bc2e3d8db70a294"),
        ("boundary --scheme td",
         "b29aa07181ac9b7951e323edcb1c9f94022596f88f855a0b672f9bc45a70439c"),
        (_SIM.format("priority", "none", "csv"),
         "a8d101dd876f9fdcb3e5326a01ba89d8b085d7211bd526eae8887a35107d3732"),
        (_SIM.format("priority", "none", "json"),
         "f486329e36a249c25bc1a578241900682cd5fe8007a7910f195726d2647f7ccd"),
        (_SIM.format("priority", "ds1", "csv"),
         "4282b8bab40fe88836b52230596f9d9d4084ff7938eeff8c8c6660681cb0155a"),
        (_SIM.format("priority", "ds1", "json"),
         "5eab114c65d8eeded352f2232eb74d54fbaacd0cb92e68454688fd2e7fec1637"),
        (_SIM.format("priority", "ds2", "csv"),
         "9e46c0ad208bdac45f50f999a5faa902b4897d233654215483c1dc3a4b5a74f1"),
        (_SIM.format("priority", "ds2", "json"),
         "36dd842110f33c3579fc02c9c2614f14dd651a08f1277002059d3c69722452a8"),
        (_SIM.format("priority", "ds3", "csv"),
         "ecb4adffc1bc5fb53f34b46e3a2c48fbc6cb02e3ce7badf2753de4d50ef9170e"),
        (_SIM.format("priority", "ds3", "json"),
         "bc272253ac52cb80a75866291f73a6e8eabb1941a2f327e984aa64d51989c4b3"),
        (_SIM.format("conventional", "none", "csv"),
         "f9e585b56e015058271691e37bde57b5153ce588f6be4d90521703b006c68102"),
        (_SIM.format("conventional", "none", "json"),
         "f2bdc7e333f35eb01276cb6454b7b1ffa0e931153236c449096e8307700682e6"),
        (_SIM.format("conventional", "ds1", "csv"),
         "9487bb65c77690e859777f76cc4e2bd887e8bc70563a0f58bc9998f48ee8be24"),
        (_SIM.format("conventional", "ds1", "json"),
         "7a423b8502ef25b852081509719e6706c16f41d74a6c1bba310b301c8139521e"),
        (_SIM.format("conventional", "ds2", "csv"),
         "801990430eb093a9da81a9fb487dd8c6d0953cccc2a7b352f96615d1a904b2c2"),
        (_SIM.format("conventional", "ds2", "json"),
         "8abd929c67a88b4dd7236fcf97bec9c5f5bc88af88d09877618735d555d0016c"),
        (_SIM.format("conventional", "ds3", "csv"),
         "bc6264316a367d4a594597b8c9e01f81a8434b2fcacd23cf6f8c75a0d613ce69"),
        (_SIM.format("conventional", "ds3", "json"),
         "7a4c8cd6f4f9c8710c224512bd9ba16f6fade0be8ad755fbd5100eaf8006a402"),
        ("simulate --mode ds1 --p1 0.5 --p2 0.5 --l1 0.2 --l2 0.5 --slots 30000 --warmup 0",
         "698704fdc41eb62b2c640bcf54274e211bc3c88ad7df5ce0b17b0a09ef314d81"),
        # too short for batch standard errors: the csv writes nan
        ("simulate --p1 0.5 --p2 0.5 --l1 0.2 --l2 0.2 --slots 50",
         "2751f8e928b005ab576f6980d58a308e680a32957f11d51796e53b04b3085d00"),
        # and the json writes null
        ("simulate --p1 0.5 --p2 0.5 --l1 0.2 --l2 0.2 --slots 50 --format json",
         "b98942c39ac12b24d33b1ae339e01b1ba71bdbf588a1f179a6583d5a7bedba30"),
        # the rate-matrix report, at a plain point, at p1 = 0, at p2 = 1 and
        # next to the p1 = 1 degeneracy
        (_QBD.format("0.5", "0.5", "0.1", "csv"),
         "4c8032b95a6344c80d31cbe080415abb9d1ff246a33bf07b659643474400d4df"),
        (_QBD.format("0.3", "0.8", "0.2", "csv"),
         "cdbfc0e59d29c097a99d9f02f975cb2d6b2c53421ae0c5ac0c91e1b842d6d5b2"),
        (_QBD.format("0", "0.5", "0.1", "csv"),
         "ef02529ea89f1a698e18030fda47cb16d8cc6810a676a0fd4604d25efb2417a1"),
        (_QBD.format("0.5", "1", "0.1", "csv"),
         "00b4404a493aa312e94ab56d04775dbcf5cebb8ab4256b6fa4f951919239ddf2"),
        (_QBD.format("0.999999", "1", "1e-9", "csv"),
         "8d94357eacf51048179f4fdc5247b4b907577d5a6125a084bd010fdc7bfc302f"),
        (_QBD.format("0.5", "0.5", "0.1", "json"),
         "d02c469ff5dae2ef93208e33dddbaa4071ff5996aef66d9b0d2c1a1accc72116"),
        (_QBD.format("0.3", "0.8", "0.2", "json"),
         "1b01c81119b0df0cca9d0584f7485e5b4dd590ce395b24176a99f209f1f0de17"),
        (_QBD.format("0", "0.5", "0.1", "json"),
         "425eb76f1d2301f6e49998736b1ef4260daea38e4ef8ce90e952ea433c602eaa"),
        (_QBD.format("0.5", "1", "0.1", "json"),
         "ea12bbb92333587cfd16c0d462f178e84fc42b26867a51a8c9a1b8c96cb82db5"),
        (_QBD.format("0.999999", "1", "1e-9", "json"),
         "16866479973f5012664eca6ef9292bbdcf8f89b4177f1a23ccfc438c3f60b742"),
    ]

    # The ds1 and qbd suites solve the oracle chain with LAPACK, whose last
    # bits depend on the BLAS thread count, so the verify commands run in one
    # child process with one BLAS thread (as perfbench/golden.json does).
    VERIFY = [
        ("verify --suite ds1",
         "adf9c64b7c220fcedc6cfc317440386bf3edb99e615f9e9ab98fd4e126bb4c5b"),
        ("verify --suite qbd",
         "d64d909ebc8d5a29399cfc25e0ceb5c3cc5ef227345c34b2b6d749be9e571731"),
        ("verify --suite ds3",
         "d9edb14c214782c854d34163650815c9778e657dc9ca8226c53a0eee3da4896f"),
        ("verify --suite containment",
         "dd29383af35d93556bce05efb1cb6cb43df54a45fcd56ec856f3116373cb70c5"),
        ("verify --suite ds1 --format json",
         "4a009ae015d2a47a938d272eeafdc4a7f7391b21d15bc27966e68ee27e5c22fc"),
        ("verify --suite qbd --format json",
         "2dbd933201890db07f28a215eb1581788e997747d6364bfccb6351319bc738ce"),
        ("verify --suite containment --format json",
         "1c9a2fd2195d252d39a7f6dbc20d2a85a112065a5857b9663a6f026779f8dad7"),
    ]

    @pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
    def test_output_bytes_pinned(self, capsys, command, digest):
        code, out, _ = _run(capsys, command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command,digest", VERIFY, ids=[c for c, _ in VERIFY])
    def test_verify_bytes_pinned(self, verify_digests, command, digest):
        assert verify_digests[command] == [0, digest]


class TestBenchmarkGolden:
    def test_golden_commands_replay(self):
        # the benchmark counts a command whose bytes differ from its golden
        # digest as failed; replaying them here catches that before a run.
        # One child process with one BLAS thread, as the benchmark pins it.
        golden = json.loads((SRC.parent / "perfbench" / "golden.json").read_text())
        assert _replay(list(golden)) == {command: [0, d] for command, d in golden.items()}


class TestOutFlag:
    def test_writes_file_identical_to_stdout(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = _run(
            capsys, ["boundary", "--scheme", "priority", "--step", "0.1"]
        )
        assert code == 0
        code2 = main(
            ["boundary", "--scheme", "priority", "--step", "0.1", "--out", str(target)]
        )
        capsys.readouterr()
        assert code2 == 0
        assert target.read_text() == out
