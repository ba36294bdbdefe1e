"""RankDistribution: the same checks and masses through every entry point.

Also the guard that keeps every scalar rule in ``params.py``.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from bncagg import ParameterError, RankDistribution
from bncagg.params import ordered_sum
from bncagg.probability import binom_pmf

NAN, INF = math.nan, math.inf

# (masses, message raised by the tuple constructor)
BAD_TUPLES = [
    ((NAN, 0.5, 0.5), "rank masses must be finite"),
    ((0.5, 0.5, NAN), "rank masses must be finite"),
    ((INF, 0.0), "rank masses must be finite"),
    ((0.5, -INF, INF), "rank masses must be finite"),
    ((-INF, 1.0), "rank masses must be finite"),
    ((1.5, -0.5), "rank masses must be nonnegative"),
    ((-1e308, -1e308), "rank masses must be nonnegative"),
    ((0.0, 0.0), "rank masses must sum to 1, got 0.0"),
    ((0.5, 0.25), "rank masses must sum to 1, got 0.75"),
    ((1e308, 1e308), "rank masses must sum to 1, got inf"),
    ((), "rank distribution needs at least one rank"),
]

# (masses, message raised by from_masses); floats only, so NaN and inf fit.
BAD_FLOATS = [
    ([NAN, 0.5, 0.5, 0.0], "rank masses must have a positive finite total, got nan"),
    ([INF, 1.0, 1.0, 1.0], "rank masses must have a positive finite total, got inf"),
    ([0.5, 0.5, -INF, INF], "rank masses must have a positive finite total, got nan"),
    ([-INF, 1.0], "rank masses must have a positive finite total, got -inf"),
    ([1e308, INF], "rank masses must have a positive finite total, got inf"),
    ([-1e308, -1e308], "rank masses must have a positive finite total, got -inf"),
    ([0.0, 0.0], "rank masses must have a positive finite total, got 0.0"),
    ([-1.0, -2.0], "rank masses must have a positive finite total, got -3.0"),
    ([0.5, -0.25, 0.75], "rank masses must be nonnegative"),
]

# Integer masses, as a histogram of ranks would give them.
BAD_INTS = [
    ([0, 0, 0], "rank masses must have a positive finite total, got 0.0"),
    ([-1, -2], "rank masses must have a positive finite total, got -3.0"),
    ([2, -1, 3], "rank masses must be nonnegative"),
]


def parent_normalize(masses) -> tuple[float, ...]:
    """The float operations of the list-based normalization, written out."""
    floats = [float(m) for m in masses]
    total = sum(floats)
    return tuple(m / total for m in floats)


def from_masses_paths(masses, dtype):
    """from_masses through a list, a float64 array and, for ints, an int64 array."""
    yield list(masses)
    yield np.array(masses, dtype=np.float64)
    if dtype is int:
        yield np.array(masses, dtype=np.int64)


class TestErrorParity:
    @pytest.mark.parametrize("masses, message", BAD_TUPLES)
    def test_tuple_constructor(self, masses, message):
        with pytest.raises(ParameterError) as info:
            RankDistribution(masses)
        assert type(info.value) is ParameterError
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "masses, message, dtype",
        [(m, msg, float) for m, msg in BAD_FLOATS] + [(m, msg, int) for m, msg in BAD_INTS],
    )
    def test_from_masses(self, masses, message, dtype):
        for given in from_masses_paths(masses, dtype):
            with pytest.raises(ParameterError) as info:
                RankDistribution.from_masses(given)
            assert type(info.value) is ParameterError
            assert str(info.value) == message, type(given)

    def test_from_masses_needs_one_dimension(self):
        with pytest.raises(ParameterError, match="1-d"):
            RankDistribution.from_masses(np.ones((2, 2)))


class TestSameMasses:
    @pytest.mark.parametrize("m", [1, 2, 4, 16, 32, 100, 1024])
    def test_every_path_is_bit_identical(self, m):
        rng = np.random.default_rng(m)
        for draw in range(20):
            ints = rng.integers(0, 1000, size=m)
            ints[rng.integers(0, m)] += 1  # a positive total
            floats = rng.random(m) ** rng.integers(1, 20)
            for masses, dtype in ((ints.tolist(), int), (floats.tolist(), float)):
                expect = parent_normalize(masses)
                assert RankDistribution(expect).masses == expect
                for given in from_masses_paths(masses, dtype):
                    got = RankDistribution.from_masses(given).masses
                    assert got == expect, (draw, type(given))
                    assert all(type(x) is float for x in got)

    def test_histogram_path_matches_list_path(self):
        # simulate_end_to_end normalizes a bincount of the surviving ranks.
        ranks = np.random.default_rng(5).integers(1, 17, size=10_000)
        hist = np.bincount(ranks, minlength=17)[1:]
        assert hist.dtype == np.int64
        got = RankDistribution.from_masses(hist).masses
        assert got == parent_normalize(hist.tolist())

    @pytest.mark.parametrize("given", [list, np.array])
    def test_sequence_kept_as_a_tuple(self, given):
        # Equal masses give equal distributions, whatever sequence held them.
        masses = (0.25, 0.25, 0.5)
        got = RankDistribution(given(masses))
        assert type(got.masses) is tuple
        assert got == RankDistribution(masses)
        assert hash(got) == hash(RankDistribution(masses))


def test_from_masses_builds_through_the_constructor(monkeypatch):
    # The normalized masses get the constructor's checks, once per call.
    calls = []
    real = RankDistribution.__post_init__

    def counted(self):
        calls.append(1)
        real(self)

    monkeypatch.setattr(RankDistribution, "__post_init__", counted)
    got = RankDistribution.from_masses([3, 0, 1, 4])
    assert len(calls) == 1
    monkeypatch.undo()
    assert got == RankDistribution(got.masses)
    assert hash(got) == hash(RankDistribution(got.masses))
    assert got.masses == (0.375, 0.0, 0.125, 0.5)


class TestOverflowingTotal:
    def test_finite_masses_with_an_infinite_sum_normalize(self):
        got = RankDistribution.from_masses([1e308, 1e308, 0.0, 0.0])
        assert got.masses == (0.5, 0.5, 0.0, 0.0)
        got = RankDistribution.from_masses(np.array([1.5e308, 0.0, 1.5e308]))
        assert got.masses == (0.5, 0.0, 0.5)

    def test_largest_mass_sets_the_scale(self):
        masses = [1.7e308, 0.85e308, 1e300]
        got = RankDistribution.from_masses(masses).masses
        scaled = [m / 1.7e308 for m in masses]
        assert got == tuple(m / sum(scaled) for m in scaled)
        assert sum(got) == pytest.approx(1.0, abs=1e-15)

    def test_finite_sums_keep_their_float_operations(self):
        masses = [1e307, 3e307, 5e307]  # close to the limit, but the sum fits
        assert RankDistribution.from_masses(masses).masses == parent_normalize(masses)


# Each scalar rule lives in params.py.  Outside it, these are copies of one.
_RULE_COPIES = {
    "operator.index": re.compile(r"operator\.index"),
    "isinstance(..., int/float)": re.compile(r"isinstance\([^)]*\b(int|float)\b"),
    "'must be in [0, 1' message": re.compile(r"must be in \[0, 1"),
    "'must be >=' message": re.compile(r"must be >="),
    "'must be a ... integer' message": re.compile(r"must be a (positive|nonnegative) integer"),
}


def test_scalar_rules_are_written_only_in_params():
    src = Path(__file__).resolve().parent.parent / "src" / "bncagg"
    found = [
        f"{path.name}:{number}: {kind}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != "params.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for kind, pattern in _RULE_COPIES.items()
        if pattern.search(line)
    ]
    assert not found, "\n".join(found)


class TestOrderedSum:
    # From Python 3.12 the builtin sum compensates float rounding; these are
    # the left-to-right totals that every supported Python must give.
    def test_adds_left_to_right(self):
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert ordered_sum(x for x in (0.5, 0.25)) == 0.75

    def test_truncated_binomial_bits(self):
        # A compensated sum of these five terms is 0x1.ffd60e94ee39ap-1, and
        # dividing by it moves every mass of the law by one ulp.
        terms = [binom_pmf(r, 5, 0.8) for r in range(1, 6)]
        assert ordered_sum(terms).hex() == "0x1.ffd60e94ee39bp-1"
        masses = RankDistribution.truncated_binomial(5, 0.8).masses
        assert [m.hex() for m in masses] == [
            "0x1.a3908d9a62fdfp-8",
            "0x1.a3908d9a62fd4p-5",
            "0x1.a3908d9a62fd9p-3",
            "0x1.a3908d9a62fe0p-2",
            "0x1.4fa6d7aeb5978p-2",
        ]
