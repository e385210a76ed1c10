"""Every public function, method and property of the package has a user
outside the tests, and every defaulted parameter has a caller that sets it.

A public name that nothing in ``src/``, ``perfbench/`` or the README uses is
either dead code or a test-only helper, which belongs in ``tests/helpers.py``.
A module-level function counts as used where code loads its name or reads it
as an attribute.  A method or property counts only where code reads it as an
attribute or names it in a string constant that is not a docstring (as
``getattr`` takes it), since a bare name of the same spelling is a local, not
a use.  Docstrings, comments, the definition itself and an ``import``
re-export never count.  In the README only code counts, its code spans and
fenced blocks, since that is the documented library surface; prose that
happens to hold the word does not.

A parameter with a default that no call in ``src/`` or ``perfbench/``
passes, by position or by keyword, is a knob nobody turns: it belongs in the
body as a constant.  Calls in ``tests/`` do not count, so a knob only a test
turns fails too; a test sets such a constant with ``monkeypatch``.  A call
that spreads ``*args`` or ``**kwargs`` counts as passing everything.

Matching is by bare name (a class name stands for its ``__init__``, and a
call through a ``from ... import name as alias`` binding counts as a call of
``name``), so a check can miss an unused definition or parameter that
shares its name with a used one.  A method or property that code reached
only through a name built at run time would be flagged; none is.

One design rule is checked the same way: outside ``oracle.py`` no module of
the package reads an attribute named ``matrix``, so the oracle's dense
kernel stays the input of its solve and nothing else.

The package root holds exactly the names the README's "Library use" example
imports, plus ``__version__``: that example runs and gives the results its
comments state, and no root name hides a submodule of the same name.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np

import aloha_priority
from code_lines import docstring_starts

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aloha_priority"


def _public_definitions() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(qualified name, name) of every public module-level function, and of
    every public method and property of a module-level class."""
    functions, members = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            found, scope, defs = functions, path.stem, [node]
            if isinstance(node, ast.ClassDef):
                found, scope, defs = members, f"{path.stem}.{node.name}", node.body
            for fn in defs:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    found.append((f"{scope}.{fn.name}", fn.name))
    return functions, members


def _uses_in_code() -> tuple[set[str], set[str], set[str]]:
    """The names loaded, the attributes read and the non-docstring string
    constants in ``src/`` and ``perfbench/``."""
    names, attributes, strings = set(), set(), set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text())
        docstrings = docstring_starts(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and (node.lineno, node.col_offset) not in docstrings
            ):
                strings.add(node.value)
    return names, attributes, strings


def _readme_code_words() -> set[str]:
    """The words of the README's fenced blocks and of its code spans."""
    fence = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
    text = (ROOT / "README.md").read_text()
    code = fence.findall(text) + re.findall(r"`([^`]+)`", fence.sub("", text))
    return {word for chunk in code for word in re.findall(r"\w+", chunk)}


def test_walker_sees_the_package():
    functions, members = _public_definitions()
    assert ("model.advance_slot", "advance_slot") in functions
    assert ("oracle.TruncatedChain.matrix", "matrix") in members
    assert ("simulate.Trajectory.outcome", "outcome") in members
    assert len(functions) > 40
    _, attributes, strings = _uses_in_code()
    # perfbench reads the trajectory's views through getattr, by name
    assert "phase_start" in strings and "phase_start" not in attributes
    assert not any(s.startswith("Slot-by-slot Monte Carlo") for s in strings)
    readme = _readme_code_words()
    assert {"union_region_contains", "optimal_p2", "apply"} <= readme
    assert "Library" not in readme


def test_every_public_function_is_used_outside_tests():
    names, attributes, _ = _uses_in_code()
    used = names | attributes | _readme_code_words()
    unused = [qualified for qualified, name in _public_definitions()[0] if name not in used]
    assert unused == []


def test_every_public_method_and_property_is_used_outside_tests():
    _, attributes, strings = _uses_in_code()
    used = attributes | strings | _readme_code_words()
    unused = [qualified for qualified, name in _public_definitions()[1] if name not in used]
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
    """The calls in ``paths`` (default: every module of ``src/`` and
    ``perfbench/``) by the bare name they call, an import alias resolved to
    the name it binds."""
    if paths is None:
        folders = [PACKAGE, ROOT / "perfbench"]
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
    assert ("sweep.sweep", "lambda_step") in found
    assert ("cli.main", "argv") in found


def test_knob_walker_resolves_import_aliases():
    # cli calls sweep.sweep as run_sweep, and that call is the only one in
    # src/ and perfbench/ that sets both of its parameters
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


def _library_example() -> str:
    """The fenced Python block under the README's "## Library use" heading."""
    section = (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _holds(value, comment: str) -> bool:
    """Whether ``value`` is what a result comment of the example states:
    ``(6, 2) array`` is a shape, ``0.4576...`` a prefix of the printed value,
    anything else a literal before an optional parenthesised note."""
    if comment.endswith(" array"):
        return np.shape(value) == ast.literal_eval(comment.removesuffix(" array"))
    if comment.endswith("..."):
        return str(value).startswith(comment.removesuffix("..."))
    return value == ast.literal_eval(comment.split(" (")[0])


def test_readme_library_example_gives_its_commented_results():
    source = _library_example()
    lines = source.splitlines()
    namespace: dict = {}
    results = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
            results.append((value, comment))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert [comment for value, comment in results if not _holds(value, comment)] == []
    assert len(results) == 6


def test_root_exports_exactly_the_readme_names():
    imported = [
        alias.name
        for node in ast.parse(_library_example()).body
        if isinstance(node, ast.ImportFrom) and node.module == "aloha_priority"
        for alias in node.names
    ]
    exported = {
        name
        for name, value in vars(aloha_priority).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(imported) == 9
    assert exported == set(imported)
    assert isinstance(aloha_priority.__version__, str)


def test_sweep_module_is_not_hidden_by_a_root_name():
    # a fresh interpreter, so no earlier import has bound the attribute
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import aloha_priority.sweep as m; print(type(m).__name__, "
         "callable(m.envelope_at))"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (done.stdout, done.stderr) == ("module True\n", "")
