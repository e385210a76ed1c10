"""Every public function of the package has a user outside the tests, and
every defaulted parameter has a caller that sets it.

A public name that nothing in ``src/``, ``perfbench/`` or the README uses is
either dead code or a test-only helper, which belongs in ``tests/helpers.py``.
Code counts as a use where it loads the name or reads it as an attribute;
docstrings, comments, the definition itself and an ``import`` re-export do
not.  Any mention in the README counts, since that is the documented library
surface.

A parameter with a default that no call in ``src/``, ``perfbench/`` or
``tests/`` passes, by position or by keyword, is a knob nobody turns: it
belongs in the body as a constant.  A call that spreads ``*args`` or
``**kwargs`` counts as passing everything.

Matching is by bare name (a class name stands for its ``__init__``, and a
call through a ``from ... import name as alias`` binding counts as a call of
``name``), so both checks can only miss an unused function or parameter,
never flag a used one.

One design rule is checked the same way: outside ``oracle.py`` no module of
the package reads an attribute named ``matrix``, so the oracle's dense
kernel stays the input of its solve and nothing else.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aloha_priority"


def _public_functions() -> list[tuple[str, str]]:
    """(qualified name, name) of every public module-level function and method."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            scope, defs = path.stem, [node]
            if isinstance(node, ast.ClassDef):
                scope, defs = f"{path.stem}.{node.name}", node.body
            for fn in defs:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    found.append((f"{scope}.{fn.name}", fn.name))
    return found


def _names_used_in_code() -> set[str]:
    used = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_walker_sees_the_package():
    found = _public_functions()
    assert ("model.advance_slot", "advance_slot") in found
    assert ("oracle.TruncatedChain.matrix", "matrix") in found
    assert len(found) > 40


def test_every_public_function_is_used_outside_tests():
    used = _names_used_in_code() | set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = [qualified for qualified, name in _public_functions() if name not in used]
    assert unused == []


def test_only_the_oracle_reads_the_dense_kernel():
    # every other module takes the kernel's products from its level blocks
    # (``TruncatedChain.apply``), so the n x n array stays the solve's alone
    readers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "matrix"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert readers == ["oracle.py"]


def _defaulted_parameters() -> list[tuple[str, str, str, int | None]]:
    """(qualified name, callee name, parameter, call position) for every
    parameter with a default; the position is None for a keyword-only one."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {fn: None for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                owner.update({fn: cls for fn in cls.body if isinstance(fn, ast.FunctionDef)})
        for fn, cls in owner.items():
            qualified = ".".join(n for n in (path.stem, cls and cls.name, fn.name) if n)
            callee = cls.name if cls and fn.name == "__init__" else fn.name
            # self or cls is never written at the call
            positional = (fn.args.posonlyargs + fn.args.args)[1 if cls else 0 :]
            first = len(positional) - len(fn.args.defaults)
            for index, arg in enumerate(positional[first:], start=first):
                found.append((qualified, callee, arg.arg, index))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    found.append((qualified, callee, arg.arg, None))
    return found


def _calls_by_name(paths: list[Path] | None = None) -> dict[str, list[ast.Call]]:
    """The calls in ``paths`` (default: every module of ``src/``,
    ``perfbench/`` and ``tests/``) by the bare name they call, an import
    alias resolved to the name it binds."""
    if paths is None:
        folders = [PACKAGE, ROOT / "perfbench", ROOT / "tests"]
        paths = [p for folder in folders for p in folder.glob("*.py")]
    calls: dict[str, list[ast.Call]] = {}
    for path in paths:
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    name = aliases.get(node.func.id, node.func.id)
                else:
                    name = getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    spread = any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    )
    by_keyword = any(k.arg == parameter for k in call.keywords)
    by_position = position is not None and len(call.args) > position
    return spread or by_keyword or by_position


def test_knob_walker_sees_the_package():
    found = {(qualified, parameter) for qualified, _, parameter, _ in _defaulted_parameters()}
    assert ("qbd.solve_rate_matrix", "max_iter") in found
    assert ("sweep.sweep", "lambda_step") in found
    assert ("cli.main", "argv") in found


def test_knob_walker_resolves_import_aliases():
    # cli calls sweep.sweep as run_sweep; without tests/ among the callers,
    # that call is the only one that sets both of its parameters
    knobs = [
        (parameter, position)
        for qualified, _, parameter, position in _defaulted_parameters()
        if qualified == "sweep.sweep"
    ]
    assert [parameter for parameter, _ in knobs] == ["p_step", "lambda_step"]
    calls = _calls_by_name([PACKAGE / "cli.py"]).get("sweep", [])
    for parameter, position in knobs:
        assert any(_passes(call, parameter, position) for call in calls), parameter


def test_every_defaulted_parameter_is_set_by_some_caller():
    calls = _calls_by_name()
    dead = [
        f"{qualified}({parameter})"
        for qualified, callee, parameter, position in _defaulted_parameters()
        if not any(_passes(call, parameter, position) for call in calls.get(callee, []))
    ]
    assert dead == []
