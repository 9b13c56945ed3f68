"""scripts/bench_pairs.py's per-metric comparison."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _side(runs):
    return bench_pairs.summary(list(runs))


# setup_s of cli_pipeline in BENCH_33.json: the parent's quartiles lie 28.5 %
# of its median apart, against a 25 % bound
SETUP_PARENT = (0.0423, 0.0433, 0.0644, 0.0649, 0.0469, 0.0665, 0.0726, 0.0503, 0.0565, 0.0627)
SETUP_CHANGE = (0.0394, 0.0397, 0.059, 0.0405, 0.0624, 0.068, 0.0878, 0.0724, 0.0672, 0.0431)


@pytest.mark.parametrize(
    "parent, change, better, within, resolved",
    [
        # a spread wider than the bound cannot tell a move of the bound's size
        (SETUP_PARENT, SETUP_CHANGE, "lower", True, False),
        # ... unless every change run beats every parent run, in either direction
        (SETUP_PARENT, [0.03] * 10, "lower", True, True),
        ([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0], "higher", True, True),
        ([1.0, 2.0, 3.0, 4.0], [0.5, 6.0, 7.0, 8.0], "higher", True, False),
        # a spread inside the bound resolves the verdict, whichever it is
        ([10.0, 10.1, 10.2, 10.3], [10.0, 10.1, 10.2, 10.3], "higher", True, True),
        ([10.0, 10.1, 10.2, 10.3], [5.0, 5.1, 5.2, 5.3], "higher", False, True),
        ([10.0, 10.1, 10.2, 10.3], [13.0, 13.1, 13.2, 13.3], "lower", False, True),
    ],
)
def test_compare_marks_a_spread_wider_than_the_bound_unresolved(parent, change, better,
                                                                  within, resolved):
    got = bench_pairs.compare(_side(parent), _side(change), better, 0.25)
    assert (got["within_bound"], got["resolved"]) == (within, resolved)
