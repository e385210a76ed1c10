"""Every public function or method of the package has a user outside the tests.

A public name that nothing in ``src/``, ``perfbench/`` or the README uses is
either dead code or a test-only helper, which belongs in ``tests/helpers.py``.
Code counts as a use where it loads the name or reads it as an attribute;
docstrings, comments, the definition itself and an ``import`` re-export do
not.  Any mention in the README counts, since that is the documented library
surface.  Matching is by bare name, so the check can only miss an unused
function, never flag a used one.
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
    assert ("oracle.TruncatedChain.index", "index") in found
    assert len(found) > 40


def test_every_public_function_is_used_outside_tests():
    used = _names_used_in_code() | set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = [qualified for qualified, name in _public_functions() if name not in used]
    assert unused == []
