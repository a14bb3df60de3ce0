"""The tolerance policy lives in one table: ``niepkit._util`` names every
tolerance, and no other source module carries a small float literal."""

import ast
import itertools
from pathlib import Path

import numpy as np

from niepkit import _util

SRC = Path(__file__).resolve().parents[1] / "src" / "niepkit"


def _small_literals(path):
    """(line, value) of every float or complex literal of magnitude below
    1e-6, other than zero, in the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, (float, complex))
        and 0.0 < abs(node.value) < 1e-6
    ]


def test_no_tolerance_literal_outside_util():
    found = {
        path.name: _small_literals(path)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_util.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_util_names_the_five_tolerances():
    table = {name: getattr(_util, name) for name in dir(_util) if name.endswith("_RTOL")}
    assert table == {
        "ROUNDOFF_RTOL": 1e-12,
        "REALNESS_RTOL": 1e-10,
        "PERMUTATIVE_RTOL": 1e-9,
        "VERIFY_RTOL": 1e-7,
        "SWEEP_RTOL": 1e-8,
    }


def test_slack_scales_by_the_largest_magnitude():
    assert _util.slack(1e-12, [3.0, -4.0], [2.0]) == 1e-12 * 4.0
    assert _util.slack(1e-12, [0.5]) == 1e-12 * 0.5
    assert _util.slack(1e-12) == 0.0
    assert _util.slack(1e-12, [], [[0.0]]) == 0.0
    assert _util.slack(1e-12, [3 + 4j]) == 1e-12 * 5.0


def _reference_slack(rtol, *arrays):
    """``slack`` as one variadic maximum for every operand count."""
    return rtol * max(map(_util.max_abs, arrays), default=0.0)


_OPERANDS = [
    [],
    np.array([]),
    [-0.0],
    np.array([0.0, -0.0]),
    [3.0, -4.0],
    [[1e-300, -2.5]],
    [5e-324],
    [3 + 4j],
]


def test_slack_is_the_variadic_maximum_bit_for_bit():
    # the one-operand call skips the variadic maximum, with the same result
    for count in range(4):
        for arrays in itertools.product(_OPERANDS, repeat=count):
            got, want = _util.slack(1e-12, *arrays), _reference_slack(1e-12, *arrays)
            assert type(got) is type(want) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
