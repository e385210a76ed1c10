"""A catalogue of mutants of ``src/`` and the tests that must kill each.

A mutant is a deliberate fault: one exact text of a file under ``src/``,
replaced by another.  Each entry lists the tests that must fail once it is
applied, so a change that edits or removes one of those tests can show that
the fault is still caught.  ``tests/test_mutants.py`` checks in Tier-1 that
each old text occurs exactly once in its file and that each listed test
exists, so the catalogue cannot rot unseen.  Running

    python tests/mutants.py

copies the checkout to a temporary directory, runs the listed tests there
unmutated (they must pass), then applies each mutant in turn and runs its
tests with pytest.  It prints one line per mutant and exits 1, naming them,
if any mutant has a listed test that did not fail, and 2 if a mutant does not
apply or a listed test fails unmutated.  Each mutant costs one
pytest run of a few seconds, so the run of about two minutes stays out of
Tier-1; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
_TIMEOUT_S = 600  # for one pytest run


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, without parameters


_SIM = "src/aloha_priority/simulate.py"
_BLOCK_LOOP = "tests/test_simulate.py::TestBlockLoop::test_tail_and_long_queues_match_reference"
_LANES = "tests/test_simulate.py::TestLanes::test_long_starts_match_exact_block_steps"
_QBD = "src/aloha_priority/qbd.py"
_GRID = "tests/test_qbd.py::TestStackedSolver::test_grid_stack_matches_reference"
_STACKS = "tests/test_qbd.py::TestStackedSolver::test_random_stacks_match_reference"
_STACK_MAX_ITER = "tests/test_qbd.py::TestBatchEdges::test_stack_stops_at_max_iter"
_LONG_LONE = "tests/test_qbd.py::TestLongLoneSolve::test_matches_reference"
_QBD_BYTES = "tests/test_cli.py::TestClosedFormBytes::test_verify_bytes_pinned"
_DS2_NO_LAW = "tests/test_qbd.py::TestStationaryLaw::test_float_critical_point_has_no_law"
_DS2_REJECTED = "tests/test_cli.py::TestExitCodes::test_float_critical_point_is_rejected"
_DS2_NEAR_BOUND = "tests/test_qbd.py::TestStationaryLaw::test_rate_near_mu2_is_rejected_or_has_a_law"
_STABILITY = "src/aloha_priority/stability.py"
_DS1_GATE = "tests/test_stability.py::TestDs1Stationary::test_bytes_match_the_reference"
_DS1_CLOSED = "tests/test_stability.py::TestDs1Stationary::test_matches_the_powers_of_rho"
_DS1_SOLVER = "tests/test_stability.py::TestDs1RateMatrix::test_solver_on_the_oracle_blocks_finds_it"
_DS1_RATE_CERTIFICATE = (
    "tests/test_certificates.py::test_ds1_rate_matrix_solves_the_tabulated_quadratic"
)
_DS2_GATE = "tests/test_qbd.py::TestStationaryLaw::test_bytes_match_the_reference"
_DS1_CERTIFICATE = "tests/test_certificates.py::test_ds1_geometric_law_balances_the_tabulated_kernel"
_DS1_ORACLE = "tests/test_oracle.py::TestStationary::test_ds1_matches_closed_form"
_DS1_RESIDUAL = "tests/test_oracle.py::TestApply::test_balance_residual_reads_no_dense_kernel"
_DS1_NO_LAW = "tests/test_stability.py::TestDs1Chain::test_float_critical_point_has_no_law"
_DS1_NEAR_BOUND = "tests/test_stability.py::TestDs1Chain::test_rate_near_mu1_is_rejected_or_has_a_law"
_VERIFY = "src/aloha_priority/verify.py"
_ORACLE = "src/aloha_priority/oracle.py"
_RESIDENT = "tests/test_oracle.py::TestStationary::test_solve_keeps_one_kernel_resident"
_KERNEL = "tests/test_simulate.py::TestKernelEquality::test_matches_advance_slot_reference"
_SUMMARY = "tests/test_simulate.py::TestSummarize::test_matches_mask_reference"
_SUMMARY_EDGES = "tests/test_simulate.py::TestSummarize::test_edge_windows_match_mask_reference"

MUTANTS = (
    # the splice of simulate._block_states
    Mutant(
        "splice-lengths-without-offset",
        _SIM,
        "q1 = flat[at] + offsets[0]\n                    q2 = flat[at + 1] + offsets[1]\n",
        "q1 = flat[at]\n                    q2 = flat[at + 1]\n",
        (_BLOCK_LOOP,),
    ),
    Mutant(
        "splice-positive-jump-one-past",
        _SIM,
        "found = low[queue].find(1, offset + i, offset + stop) - offset\n",
        "found = low[queue].find(1, offset + i, offset + stop) - offset + 1\n",
        (_BLOCK_LOOP,),
    ),
    Mutant(
        "splice-equality-ignores-phase",
        _SIM,
        "if state == here[i]:",
        "if state & 15 == here[i] & 15:",
        (_BLOCK_LOOP,),
    ),
    Mutant(
        "splice-negative-threshold-3",
        _SIM,
        "lengths[i:stop, lane, queue] < 3 - d)",
        "lengths[i:stop, lane, queue] < 3)",
        (_BLOCK_LOOP,),
    ),
    Mutant(
        "splice-negative-jump-one-past",
        _SIM,
        "found = i + int(below[0]) if below.size else -1",
        "found = i + int(below[0]) + 1 if below.size else -1",
        (_BLOCK_LOOP,),
    ),
    Mutant(
        "splice-phase-not-from-lane",
        _SIM,
        "                    phase = here[stop] & 16\n",
        "",
        (_BLOCK_LOOP,),
    ),
    # the slot keys of simulate.run_trajectory and their tables
    Mutant(
        "keys-uint8",
        _SIM,
        "codes = np.zeros(-(-n // _BLOCK) * _BLOCK, dtype=np.int8)\n"
        "    draws = np.empty(n)\n"
        "    for bit, (stream, rate) in enumerate(zip(streams, rates)):\n"
        "        stream.random(out=draws)\n"
        "        codes[:n] |= (draws < rate).view(np.int8) << bit\n",
        "codes = np.zeros(-(-n // _BLOCK) * _BLOCK, dtype=np.uint8)\n"
        "    draws = np.empty(n)\n"
        "    for bit, (stream, rate) in enumerate(zip(streams, rates)):\n"
        "        stream.random(out=draws)\n"
        "        codes[:n] |= (draws < rate).view(np.uint8) << bit\n",
        (_KERNEL,),
    ),
    Mutant(
        "keys-slot-2-through-13-bits",
        _SIM,
        "        keys.append(key)\n",
        "        keys.append(key if j < 2 else key[0])\n",
        (_KERNEL, "tests/test_simulate.py::TestBlockTable::test_entries_are_three_slot_table_steps"),
    ),
    # the key histograms of simulate.summarize and the tables they weigh
    Mutant(
        "summary-tail-dropped",
        _SIM,
        "batches, totals = counts[:-1], counts.sum(axis=0)",
        "batches, totals = counts[:-1], counts[:-1].sum(axis=0)",
        (_SUMMARY, _SUMMARY_EDGES),
    ),
    Mutant(
        "summary-forced-base-from-busy-slots",
        _SIM,
        "        busy1 | forced1,\n",
        "        busy1,\n",
        (_SUMMARY, _SUMMARY_EDGES),
    ),
    Mutant(
        "summary-batch-one-slot-long",
        _SIM,
        "np.bincount(keys[start:stop], minlength=128)",
        "np.bincount(keys[start:stop + 1], minlength=128)",
        (_SUMMARY, _SUMMARY_EDGES),
    ),
    Mutant(
        "summary-occupancy-from-nonempty-bit",
        _SIM,
        "        keys >> 6,\n",
        "        keys >> 5 & 1,\n",
        (_SUMMARY, _SUMMARY_EDGES),
    ),
    Mutant(
        "summary-busy-without-queue-1-arrival",
        _SIM,
        "_BUSY_BITS = (0b100001, 0b010010)",
        "_BUSY_BITS = (0b100000, 0b010010)",
        (_KERNEL, _SUMMARY, _SUMMARY_EDGES),
    ),
    Mutant(
        "tables-writeable",
        _SIM,
        "array.flags.writeable = False",
        "array.flags.writeable = True",
        ("tests/test_simulate.py::TestTables::test_read_only_and_reused",),
    ),
    # the speculative lanes of simulate._lanes
    Mutant(
        "lanes-int16-lengths",
        _SIM,
        "lengths = np.empty((steps + 1, width, 2), dtype=np.int64)",
        "lengths = np.empty((steps + 1, width, 2), dtype=np.int16)",
        (_LANES,),
    ),
    Mutant(
        "lanes-next-phase-flipped",
        _SIM,
        "_NEXT_PHASE = np.array([b[2] for b in _UNPACK], dtype=np.uint8)",
        "_NEXT_PHASE = np.array([b[2] ^ 16 for b in _UNPACK], dtype=np.uint8)",
        (_BLOCK_LOOP, _LANES),
    ),
    Mutant(
        "lanes-capped-at-2",
        _SIM,
        'np.minimum(lengths[j], 3, out=caps, casting="unsafe")',
        'np.minimum(lengths[j], 2, out=caps, casting="unsafe")',
        (_BLOCK_LOOP, _LANES),
    ),
    # the stacked fixed point of qbd.solve_rate_matrix
    Mutant(
        "solver-one-stop-for-the-stack",
        _QBD,
        "settled = np.maximum(top, bottom) < _TOL",
        "settled = (np.maximum(top, bottom).max(axis=1) < _TOL)[:, None]"
        ".repeat(len(r), axis=1)",
        (
            _GRID,
            _STACKS,
            _STACK_MAX_ITER,
            "tests/test_qbd.py::TestStackedSolver::test_critical_member_does_not_converge",
        ),
    ),
    Mutant(
        "solver-stop-ignores-r01",
        _QBD,
        "top = np.maximum(entry[..., 0], entry[..., 1])",
        "top = entry[..., 0]",
        (_GRID, _STACKS, _QBD_BYTES),
    ),
    Mutant(
        "solver-lone-product-swapped",
        _QBD,
        "product, views = np.ndarray.dot, list(iterates[:, 0])",
        "product, views = (lambda a, b, out: np.ndarray.dot(b, a, out)), list(iterates[:, 0])",
        (_LONG_LONE, _QBD_BYTES),
    ),
    Mutant(
        "solver-inverse-by-linalg",
        _QBD,
        "return adjugate / det[..., None, None]",
        "return np.linalg.inv(m)",
        (_GRID, _STACKS, _LONG_LONE, _QBD_BYTES),
    ),
    Mutant(
        "solver-einsum-product",
        _QBD,
        "product, views = np.matmul, list(iterates)",
        'product, views = (lambda a, b, out: np.einsum("...ij,...jk->...ik", a, b, out=out)),'
        " list(iterates)",
        (_GRID, _STACKS, _STACK_MAX_ITER),
    ),
    Mutant(
        "solver-extra-step-after-convergence",
        _QBD,
        "first = settled.argmax(axis=0)[done] + 1",
        "first = np.minimum(settled.argmax(axis=0)[done] + 2, steps)",
        (
            _GRID,
            _STACKS,
            "tests/test_qbd.py::TestStackedSolver::test_single_point_keeps_its_shape",
            _LONG_LONE,
            _QBD_BYTES,
        ),
    ),
    # the one guard rule of the DS2 and the DS1 laws
    Mutant(
        "ds2-guard-without-sp",
        _QBD,
        "or pi0 <= 0.0 or (\n        spectral_radius(rate_matrix_closed_form(p, l2)) >= 1.0\n    ):",
        "or pi0 <= 0.0:",
        (_DS2_NO_LAW, _DS2_REJECTED),
    ),
    Mutant(
        "ds2-guard-without-pi0",
        _QBD,
        "if l2 >= ds3_mu2(p1, p2) or pi0 <= 0.0 or (",
        "if l2 >= ds3_mu2(p1, p2) or (",
        (_DS2_NO_LAW, _DS2_REJECTED, _DS2_NEAR_BOUND),
    ),
    Mutant(
        "ds1-guard-without-pi0",
        _STABILITY,
        "if l1 >= ds3_mu1(p.p1, p.p2) or rho >= 1.0 or pi0 <= 0.0:",
        "if l1 >= ds3_mu1(p.p1, p.p2) or rho >= 1.0:",
        (_DS1_NO_LAW, _DS1_NEAR_BOUND),
    ),
    Mutant(
        "ds1-guard-without-clause",
        _STABILITY,
        "if l1 >= ds3_mu1(p.p1, p.p2) or rho >= 1.0 or pi0 <= 0.0:",
        "if rho >= 1.0 or pi0 <= 0.0:",
        (_DS1_NO_LAW, _DS1_NEAR_BOUND),
    ),
    # DS1's rate matrix and the one level recurrence of both laws
    Mutant(
        "ds1-rate-reserved-column-nonzero",
        _STABILITY,
        "return np.array([[ds1_rho(p, l1), 0.0],",
        "return np.array([[ds1_rho(p, l1), l1 * p.p2],",
        (
            "tests/test_stability.py::TestDs1Chain::test_steady_state_reference_values",
            _DS1_CLOSED,
            _DS1_SOLVER,
            _DS1_RATE_CERTIFICATE,
            _DS1_CERTIFICATE,
            _DS1_ORACLE,
            _DS1_RESIDUAL,
        ),
    ),
    Mutant(
        "ds1-rate-without-divisor",
        _STABILITY,
        "l1 * p.p2 / (1.0 - l1 * p.p2), 0.0]])",
        "l1 * p.p2, 0.0]])",
        (
            "tests/test_stability.py::TestDs1Chain::test_steady_state_reference_values",
            "tests/test_stability.py::TestDs1Chain::test_total_mass_is_one",
            _DS1_CLOSED,
            _DS1_SOLVER,
            _DS1_RATE_CERTIFICATE,
            _DS1_CERTIFICATE,
            _DS1_ORACLE,
        ),
    ),
    Mutant(
        "levels-start-in-reserved-phase",
        _STABILITY,
        "v = np.array([pi0, 0.0])",
        "v = np.array([pi0, pi0])",
        (_DS1_GATE, _DS2_GATE, _DS1_CLOSED, _DS1_CERTIFICATE, _DS1_ORACLE, _DS1_RESIDUAL),
    ),
    Mutant(
        "levels-by-matrix-power",
        _STABILITY,
        "v = r @ v",
        "v = np.linalg.matrix_power(r, k + 1) @ levels[0]",
        (_DS1_GATE, _DS2_GATE),
    ),
    # the layout of the oracle's dense kernel
    Mutant(
        "oracle-kernel-on-numpy-zeros",
        _ORACLE,
        'np.frombuffer(pages).reshape((n, n), order="F")',
        'np.zeros((n, n), order="F")',
        (_RESIDENT,),
    ),
    Mutant(
        "oracle-kernel-on-shared-mapping",
        _ORACLE,
        "access=mmap.ACCESS_COPY",
        "access=mmap.ACCESS_WRITE",
        (_RESIDENT,),
    ),
    # the oracle cross-checks in verify
    Mutant(
        "oracle-tv-other-mode-law",
        _VERIFY,
        "law = ds1_stationary if mode is DominanceMode.DS1 else",
        "law = ds1_stationary if mode is DominanceMode.DS2 else",
        (
            "tests/test_acceptance.py::test_criterion_3_oracle_equivalence_ten_points",
            "tests/test_cli.py::TestVerifyCommand::test_passing_suite",
        ),
    ),
    Mutant(
        "balance-residual-reads-the-cap",
        _VERIFY,
        "np.abs(residual[: k_max - 1])",
        "np.abs(residual)",
        (_DS1_RESIDUAL,),
    ),
    # the package root
    Mutant(
        "root-reexports-sweep",
        "src/aloha_priority/__init__.py",
        '__version__ = "0.1.0"',
        'from .sweep import sweep\n\n__version__ = "0.1.0"',
        (
            "tests/test_surface.py::test_root_exports_exactly_the_readme_names",
            "tests/test_surface.py::test_sweep_module_is_not_hidden_by_a_root_name",
        ),
    ),
)


def _defined(node_id: str) -> bool:
    """Whether the file, class and test function a node id names exist."""
    path, *names = node_id.split("::")
    if not (ROOT / path).is_file():
        return False
    scope = ast.parse((ROOT / path).read_text()).body
    for name in names:
        defs = (ast.ClassDef, ast.FunctionDef)
        found = [n for n in scope if isinstance(n, defs) and n.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


def problems(mutant: Mutant) -> list[str]:
    """What keeps ``mutant`` from applying as written; empty when it applies."""
    found = []
    count = (ROOT / mutant.path).read_text().count(mutant.old)
    if count != 1:
        found.append(f"{mutant.path}: old text occurs {count} times")
    if mutant.old == mutant.new:
        found.append("old and new text are equal")
    if not mutant.tests:
        found.append("no test listed")
    found += [f"no test {node_id}" for node_id in mutant.tests if not _defined(node_id)]
    return found


def _failed(checkout: Path, node_ids: list[str]) -> tuple[int, list[str]]:
    """Run pytest on ``node_ids`` in ``checkout``: its exit code and the
    node ids of every test that failed or errored."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE"]
    try:
        done = subprocess.run(
            [*command, *node_ids], cwd=checkout, env=env, capture_output=True, text=True,
            timeout=_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return -1, list(node_ids)  # a run that hangs counts as failing every test
    failed = [
        line.split()[1]
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1
    ]
    return done.returncode, failed


def _caught(node_id: str, failed: list[str]) -> bool:
    """Whether a failure covers ``node_id``: the test itself, one of its
    parameter cases, or the file or class that holds it."""
    inside = (node_id + "[", node_id + "::")
    return any(
        f == node_id or f.startswith(inside) or node_id.startswith(f + "::") for f in failed
    )


def main() -> int:
    broken = {m.name: found for m in MUTANTS if (found := problems(m))}
    if broken:
        for name, found in broken.items():
            print(f"{name}: {'; '.join(found)}", file=sys.stderr)
        return 2
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        checkout = Path(scratch) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=ignore)
        listed = sorted({t for m in MUTANTS for t in m.tests})
        code, failed = _failed(checkout, listed)
        if code != 0:
            print(f"the listed tests fail unmutated ({', '.join(failed)})", file=sys.stderr)
            return 2
        survivors = []
        for mutant in MUTANTS:
            target = checkout / mutant.path
            original = target.read_text()
            target.write_text(original.replace(mutant.old, mutant.new))
            try:
                _, failed = _failed(checkout, list(mutant.tests))
            finally:
                target.write_text(original)
            passed = [t for t in mutant.tests if not _caught(t, failed)]
            if passed:
                survivors.append(mutant.name)
                print(f"SURVIVED {mutant.name}: passed {', '.join(passed)}")
            else:
                print(f"killed   {mutant.name}: {len(failed)} failures")
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
