"""The code-line counter of ``tests/code_lines.py`` against a hand count."""

from code_lines import code_lines

# code lines: the import, the def, the four lines of the call, the class and
# the two lines of the string that is no docstring
_SAMPLE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment


# a comment line
def f(x):
    """A function docstring."""
    return math.hypot(
        x,
        1.0,
    )


class C:
    """A class docstring."""

    y = """not a
docstring"""
'''


def test_sample_matches_the_hand_count():
    assert code_lines(_SAMPLE) == 9


def test_layout_alone_counts_nothing():
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
