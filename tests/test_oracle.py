import ast
import dataclasses
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bncagg import (
    AggregationContext,
    ChannelParams,
    CodeParams,
    EnumerationSizeError,
    NodeStrategy,
    ParameterError,
    RankDistribution,
    TrialConfig,
    enumerate_period_exact,
    expected_rank_increment,
    optimize_n,
    simulate_end_to_end,
    simulate_line_network,
    simulate_period,
)
from bncagg import oracle
from bncagg.frame import _resolve
from bncagg.probability import bin_d_pmf, binom_pmf
from bncagg.gf256 import gf256_rank_many
from bncagg.oracle import (
    _BLOCK,
    _CHUNK,
    GF256_MATRIX,
    RANK_COUNTING,
    _Coefficients,
    _reached,
    _word_bound,
    simulate_periods,
    uniform_rank_pmf,
)
from capture_corpus import PIN_FUNCTIONS, PINS
from helpers import make_ctx, rank_pmf_bruteforce

CH = ChannelParams(baseline_plr=0.10)
CODE = CodeParams(batch_size=4, payload=256, bnc_header=6, integrity=2)
SEED = 987654321
PINNED = json.loads(PINS.read_text())


class TestSimulatePeriod:
    def test_reproducible(self):
        ctx = AggregationContext.build(CH, CODE)
        cfg = TrialConfig(ctx=ctx, n=5, seed=SEED, trials=40_000)
        a = simulate_period(cfg)
        b = simulate_period(cfg)
        assert a == b

    def test_seed_changes_stream(self):
        ctx = AggregationContext.build(CH, CODE)
        a = simulate_period(TrialConfig(ctx=ctx, n=5, seed=1, trials=20_000))
        b = simulate_period(TrialConfig(ctx=ctx, n=5, seed=2, trials=20_000))
        assert a.mean != b.mean

    def test_deterministic_scenario_has_zero_error(self):
        ctx = make_ctx(3, f=1.0, d=1.0)
        est = simulate_period(TrialConfig(ctx=ctx, n=4, seed=SEED, trials=2_000))
        assert est.mean == pytest.approx(4.0, abs=1e-12)
        assert est.std_error == 0.0

    def test_error_shrinks_with_trials(self):
        ctx = AggregationContext.build(CH, CODE)
        small = simulate_period(TrialConfig(ctx=ctx, n=5, seed=SEED, trials=4_000))
        big = simulate_period(TrialConfig(ctx=ctx, n=5, seed=SEED, trials=64_000))
        assert big.std_error < small.std_error
        assert big.std_error == pytest.approx(small.std_error / 4.0, rel=0.2)

    @pytest.mark.parametrize("mode", [RANK_COUNTING, GF256_MATRIX])
    def test_modes_agree_with_analytical(self, mode):
        hbar = RankDistribution.truncated_binomial(4)
        ctx = AggregationContext.build(CH, CODE, hbar)
        est = simulate_period(
            TrialConfig(ctx=ctx, n=5, seed=SEED, trials=60_000, mode=mode)
        )
        if mode == GF256_MATRIX:
            expect = enumerate_period_exact(ctx, 5, field_size=256)
        else:
            expect = expected_rank_increment(5, ctx)
        assert abs(est.mean - expect) <= 3.5 * est.std_error

    def test_histogram_normalized(self):
        ctx = AggregationContext.build(CH, CODE)
        est = simulate_period(TrialConfig(ctx=ctx, n=3, seed=SEED, trials=5_000))
        assert sum(est.rank_histogram) == pytest.approx(1.0, abs=1e-12)
        assert len(est.rank_histogram) == 5

    def test_rejects_bad_config(self):
        ctx = AggregationContext.build(CH, CODE)
        with pytest.raises(ParameterError):
            TrialConfig(ctx=ctx, n=3, seed=SEED, trials=0)
        with pytest.raises(ParameterError):
            TrialConfig(ctx=ctx, n=3, seed=SEED, trials=10, mode="quantum")


_BOTH_MODES = (RANK_COUNTING, GF256_MATRIX)


def _shared_draw_ctx(m, rank_dist, plr=0.1):
    hbar = (
        RankDistribution.degenerate(m)
        if rank_dist == "degenerate"
        else RankDistribution.truncated_binomial(m, 0.8)
    )
    code = CodeParams(batch_size=m, payload=256, bnc_header=m + 2, integrity=2)
    return AggregationContext.build(ChannelParams(baseline_plr=plr), code, hbar)


class TestSharedDraw:
    """Both modes read from one set of draws give what each gives alone.

    Each (M, N) runs once, at one seed and one rank distribution, so that
    each M meets every pairing of the two seeds with the two distributions.
    M = 5 counts packets one byte at a time (w = 1), and ``_CHUNK + 17``
    trials cross a chunk boundary.
    """

    @pytest.mark.parametrize(
        "m, n, seed, rank_dist",
        [
            (4, 1, 20240901, "degenerate"),
            (4, 3, 20250517, "binomial:0.8"),
            (4, 4, 20250517, "degenerate"),
            (4, 7, 20240901, "binomial:0.8"),
            (5, 1, 20250517, "binomial:0.8"),
            (5, 3, 20240901, "degenerate"),
            (5, 4, 20240901, "binomial:0.8"),
            (5, 7, 20250517, "degenerate"),
        ],
    )
    def test_equals_separate_calls(self, m, n, seed, rank_dist):
        cfg = TrialConfig(
            ctx=_shared_draw_ctx(m, rank_dist), n=n, seed=seed, trials=_CHUNK + 17
        )
        separate = tuple(
            simulate_period(dataclasses.replace(cfg, mode=mode)) for mode in _BOTH_MODES
        )
        assert simulate_periods(cfg, _BOTH_MODES) == separate

    def test_all_zero_periods(self):
        # At PLR 0.999999 none of these trials receives a packet, so every
        # gf256 group has j = 0 and no coefficient is drawn.
        cfg = TrialConfig(
            ctx=_shared_draw_ctx(4, "degenerate", plr=0.999999), n=3, seed=SEED,
            trials=1000,
        )
        shared = simulate_periods(cfg, _BOTH_MODES)
        assert shared == tuple(
            simulate_period(dataclasses.replace(cfg, mode=mode)) for mode in _BOTH_MODES
        )
        assert all(est.mean == 0.0 and est.std_error == 0.0 for est in shared)

    def test_estimates_follow_the_requested_order(self):
        cfg = TrialConfig(ctx=_BOUNDARY_CTX, n=3, seed=SEED, trials=500)
        a, b = simulate_periods(cfg, _BOTH_MODES)
        assert simulate_periods(cfg, _BOTH_MODES[::-1]) == (b, a)
        assert simulate_periods(cfg, (GF256_MATRIX,)) == (b,)
        assert (a.mode, b.mode) == _BOTH_MODES

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda cfg: TrialConfig(**(vars(cfg) | {"trials": 0})), "trials must be"),
            (lambda cfg: TrialConfig(**(vars(cfg) | {"seed": -1})), "seed must be"),
            (lambda cfg: simulate_periods(cfg, ("quantum",)), "unknown mode 'quantum'"),
            (lambda cfg: simulate_periods(cfg, (RANK_COUNTING, "")), "unknown mode ''"),
            (lambda cfg: simulate_periods(cfg, ()), "no mode to simulate"),
        ],
    )
    def test_rejects_bad_input(self, build, message):
        cfg = TrialConfig(ctx=_BOUNDARY_CTX, n=3, seed=SEED, trials=10)
        with pytest.raises(ParameterError, match=message):
            build(cfg)


class TestChunkBoundaries:
    """Seeded outputs pinned bit for bit across several RNG chunks.

    Each chunk draws from its own spawn key, so a change in how trials are
    cut into chunks or in the order of the draws inside one shows here.
    """

    def test_period_rank_counting_three_chunks(self):
        key = "period,M=4,plr=0.1,binomial:0.8,N=5,rank_counting,trials=132072"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key

    def test_period_gf256_two_chunks(self):
        key = "period,M=4,plr=0.1,binomial:0.8,N=3,gf256_matrix,trials=66536"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key

    def test_end_to_end_three_chunks_per_hop(self):
        # 40k trials at N = M = 4 give 160k one-batch periods per hop.
        key = "end_to_end,M=4,plr=0.1,K=256,fixed:4,hops=2,trials=40000"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key

    def test_end_to_end_optimal_scans_each_hop(self):
        # Each hop's N comes from the scan of the population's ranks: 76 at
        # full rank, 75 once the ranks have spread.
        key = "end_to_end,M=4,plr=0.2,K=110,optimal,hops=3,trials=20000"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key


class _GivenWords:
    """Stands in for a Generator whose raw Philox words are given."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = words

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return out


def _interleaved(draw):
    """Odd uint32 draws around ``draw`` leave Philox's spare half-word set."""
    rng = np.random.Generator(np.random.Philox(SEED))
    return [
        rng.integers(0, 1 << 32, 3, dtype=np.uint32),
        draw(rng),
        rng.integers(0, 1 << 32, 5, dtype=np.uint32),
        rng.random(3),
    ]


class TestStreamEquivalence:
    """The draw step reads the Philox words that the plain numpy calls read."""

    PROBS = [0.0, 2.0**-53, 0.2, 0.8, 1.0 - 2.0**-53, 1.0]

    @pytest.mark.parametrize("p", PROBS)
    @pytest.mark.parametrize("shape", [(5, 7), (3, _BLOCK // 2 + 5), (0, 4)])
    def test_reached_matches_random(self, p, shape):
        got = _interleaved(lambda rng: _reached(rng, (p,), shape, bool))
        expect = _interleaved(lambda rng: rng.random(shape) >= p)
        for a, b in zip(got, expect):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_words_at_the_bounds(self):
        # Feed the words on either side of every bound and compare with the
        # map random() applies to a word, w -> (w >> 11) * 2^-53.
        hbar = RankDistribution.from_masses([0.0, 0.3, 0.0, 0.7])
        cum = np.cumsum(hbar.masses)
        probs = self.PROBS + [0.3, np.nextafter(0.3, 1.0), 1.5, -0.5] + list(cum)
        near = [b + k for b in map(_word_bound, probs) for k in (-1, 0, 1)]
        words = np.array([w for w in near if 0 <= w < 1 << 64], dtype=np.uint64)
        uniform = (words >> np.uint64(11)) * 2.0**-53
        for p in probs:
            got = _reached(_GivenWords(words), (p,), words.shape, bool)
            np.testing.assert_array_equal(got, uniform >= p)
        got = _reached(_GivenWords(words), cum[:-1], words.shape, np.uint8) + 1
        cum[-1] = 1.0
        expect = np.searchsorted(cum, uniform, side="right") + 1
        np.testing.assert_array_equal(got, expect)

    def test_raw_words_have_two_readers(self):
        # Thresholds are read by _reached and bytes by _Coefficients, the two
        # maps the tests above hold to numpy's calls; a third reader of raw
        # words would define the stream a second time.
        path = Path(__file__).resolve().parent.parent / "src" / "bncagg" / "oracle.py"
        readers = []

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, owner + (child.name,))
                    continue
                if isinstance(child, ast.Attribute) and child.attr == "random_raw":
                    readers.append((".".join(owner), child.lineno))
                visit(child, owner)

        visit(ast.parse(path.read_text()), ())
        owners = sorted({owner for owner, _ in readers})
        assert owners == ["_Coefficients.__call__", "_reached"], readers

    @pytest.mark.parametrize(
        "shape", [(3, 4, 4), (1, 1, 3), (_BLOCK // 15 + 1, 3, 5), (_BLOCK // 7 + 1, 3, 5)]
    )
    def test_coefficients_match_int64_draw(self, shape):
        # A chunk draws its coefficients after raw words, in pieces whose
        # sizes may be odd or zero, and some exceed 2 * _BLOCK coefficients.
        total = math.prod(shape)
        sizes = [1, 0, 2, 5, _BLOCK + 1, 4, 2 * _BLOCK + 3]
        pieces = []
        while sum(pieces) < total:
            pieces.append(min(sizes[len(pieces) % len(sizes)], total - sum(pieces)))
        rng = np.random.Generator(np.random.Philox(SEED))
        rng.random(3)
        expect = rng.integers(0, 256, total, dtype=np.int64)
        for split in ([total], pieces):
            rng = np.random.Generator(np.random.Philox(SEED))
            _reached(rng, (0.5,), (3,), bool)
            draw = _Coefficients(rng)
            got = np.concatenate([draw(size) for size in split])
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, expect)

    def test_gf256_at_m16_pinned(self):
        # Pinned from the int64 draws: with uint8 counts the group key
        # j * (M + 1) + r would overflow at M = 16.
        key = "period,M=16,plr=0.1,binomial:0.8,N=5,gf256_matrix,trials=3000"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key

    @pytest.mark.parametrize(
        "plr, mode",
        [(0.0, RANK_COUNTING), (0.0, GF256_MATRIX), (0.05, RANK_COUNTING), (0.05, GF256_MATRIX)],
        ids=["rank_counting", "gf256_matrix", "plr0.05-rank_counting", "plr0.05-gf256_matrix"],
    )
    def test_m256_counts_do_not_wrap(self, plr, mode):
        # At PLR 0 every one of the 256 packets arrives, which a uint8 count
        # would read as 0.  Those trials draw only rank words, which a shifted
        # stream can map to the same ranks; at PLR 0.05 the packet draws show
        # a change of the stream.
        key = f"period,M=256,plr={plr},binomial:0.995,N=1,{mode},trials=6"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key

    @pytest.mark.parametrize("mode", [RANK_COUNTING, GF256_MATRIX])
    def test_straddling_frames_pinned(self, mode):
        # At N = 6 each period of M = 4 has two frames and a batch split
        # over both; at PLR 0.35 about 1 header in 15 is lost, so the
        # header mask and the per-trial sums both show here.
        key = f"period,M=4,plr=0.35,binomial:0.8,N=6,{mode},trials=5000"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key

    @pytest.mark.parametrize("mode", [RANK_COUNTING, GF256_MATRIX])
    @pytest.mark.parametrize("m, n", [(3, 2), (6, 4)])
    def test_narrow_word_sums_pinned(self, m, n, mode):
        # A batch's packets are summed as gcd(M, 8)-byte words: 1 byte at
        # M = 3 and 2 bytes at M = 6, where the other pins use 4 or 8.
        key = f"period,M={m},plr=0.2,binomial:0.8,N={n},{mode},trials=5000"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key

    def test_throughput_mc_csv_pinned(self):
        # PLR 0 gives f = d = 1, the bound that no uint64 holds.
        key = "bncagg throughput --mc --plr 0 --plr 0.2 --hops 4 --trials 3000"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key


class TestUniformRankLaw:
    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_bruteforce_small_fields(self, q):
        for j in range(1, 4):
            for r in range(1, 4):
                got = uniform_rank_pmf(j, r, q)
                expect = rank_pmf_bruteforce(j, r, q)
                assert got == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4)])
    def test_matches_gf256_kernel(self, shape):
        # On the 4 x 4 stack the large-field rank min(j, r) = 4 lies about
        # 20 se from the sample mean, so this tells the two models apart.
        rng = np.random.default_rng(2024)
        mats = rng.integers(0, 256, size=(100_000, *shape), dtype=np.int64)
        ranks = gf256_rank_many(mats)
        pmf = uniform_rank_pmf(*shape, 256)
        mean = sum(k * p for k, p in enumerate(pmf))
        var = sum(k * k * p for k, p in enumerate(pmf)) - mean**2
        se = math.sqrt(var / ranks.size)
        assert abs(float(ranks.mean()) - mean) <= 4.0 * se
        assert sum(pmf) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_shapes(self):
        assert uniform_rank_pmf(0, 3, 256) == [1.0]
        assert uniform_rank_pmf(np.int64(2), 0, 2) == [1.0]
        assert uniform_rank_pmf(1, 1, 2) == pytest.approx([0.5, 0.5], abs=1e-15)


class TestEnumeratePeriod:
    def test_matches_analytical_grid(self):
        for m in (1, 2, 3, 5):
            for n in (1, 2, 3, 4, 7):
                hbar = RankDistribution.truncated_binomial(m)
                ctx = make_ctx(m, f=0.55, d=0.9, hbar=hbar)
                assert enumerate_period_exact(ctx, n) == pytest.approx(
                    expected_rank_increment(n, ctx), abs=1e-12
                )

    @pytest.mark.parametrize("n", [1, 16, 33])
    def test_large_field_default_matches_analytical(self, n):
        ctx = AggregationContext.build(CH, CODE, RankDistribution.truncated_binomial(4, 0.8))
        assert enumerate_period_exact(ctx, n) == pytest.approx(
            expected_rank_increment(n, ctx), abs=1e-12
        )

    def test_finite_field_sits_below_large_field(self):
        ctx = make_ctx(4, f=0.7, d=0.9, hbar=RankDistribution.truncated_binomial(4))
        large = enumerate_period_exact(ctx, 3)
        gf2 = enumerate_period_exact(ctx, 3, field_size=2)
        gf256 = enumerate_period_exact(ctx, 3, field_size=256)
        huge = enumerate_period_exact(ctx, 3, field_size=2**40)
        assert gf2 < gf256 < large
        assert huge == pytest.approx(large, rel=1e-9)

    @pytest.mark.parametrize("q", [0, 1, 6, 2.0, True])
    def test_rejects_non_prime_power_field(self, q):
        ctx = make_ctx(3, f=0.5, d=0.9)
        with pytest.raises(ParameterError):
            enumerate_period_exact(ctx, 2, field_size=q)
        # A direct call raised ZeroDivisionError at q = 1 before.
        with pytest.raises(ParameterError, match="field size must be a"):
            uniform_rank_pmf(2, 2, q)

    def test_validate_cells_pinned_bit_for_bit(self):
        # validate's 100 cells, and the GF(256) ones at M <= 4, as float.hex.
        # validate itself shows these only through a 3-digit max delta.
        keys = [key for key in PIN_FUNCTIONS if key.startswith("oracle,")]
        assert len(keys) == 180
        for key in keys:
            assert PIN_FUNCTIONS[key]() == PINNED[key], key

    @pytest.mark.parametrize(
        "m, n, d, field_size, error, message",
        [
            # M = N = 24 is too big to enumerate, and its d = 0 as well.
            (24, 24, 0.0, 6, EnumerationSizeError, "enumeration needs 33554464 terms"),
            (24, 24, 0.0, 2.0, ParameterError, "field size must be a positive integer, got 2.0"),
            (24, 24, 0.0, True, EnumerationSizeError, "enumeration needs 33554464 terms"),
            (3, 2, 0.0, None, ParameterError, "header survival is zero"),
            (3, 2, 0.9, 6, ParameterError, "field size must be a prime power, got 6"),
        ],
        ids=["too-big", "float-field", "bool-field", "zero-d", "not-prime-power"],
    )
    def test_errors_name_the_first_bad_input(self, m, n, d, field_size, error, message):
        # In order: the field size is an integer, the enumeration is small
        # enough, d is positive, the field size is a prime power.
        ctx = make_ctx(m, f=0.5, d=d)
        with pytest.raises(error, match=re.escape(message)):
            enumerate_period_exact(ctx, n, field_size=field_size)

    def test_numpy_field_size_reads_the_int_entry(self):
        ctx = make_ctx(3, f=0.5, d=0.9, hbar=RankDistribution.truncated_binomial(3, 0.8))
        good = enumerate_period_exact(ctx, 2, field_size=2)
        got = enumerate_period_exact(ctx, 2, field_size=np.int64(2))
        assert type(got) is float and got == good

    def test_masses_given_as_a_list(self):
        # RankDistribution stores its masses as a tuple, so a list and a tuple
        # give equal laws and the same E.
        listed = make_ctx(3, f=0.6, d=0.85, hbar=RankDistribution([0.25, 0.25, 0.5]))
        tupled = make_ctx(3, f=0.6, d=0.85, hbar=RankDistribution((0.25, 0.25, 0.5)))
        assert enumerate_period_exact(listed, 2) == enumerate_period_exact(tupled, 2)

    def test_splits_batches_with_its_own_walk(self):
        # The model states each batch's split by the offset law; the oracle
        # must not share it, or a fault in the law would escape both.
        path = Path(__file__).resolve().parent.parent / "src" / "bncagg" / "oracle.py"
        shared = re.compile(
            r"batch_lineages|from\s+(\.|bncagg\.)phases\b|\bimport\s+.*\bphases\b"
        )
        found = [
            f"oracle.py:{number}: {line.strip()}"
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if shared.search(line)
        ]
        assert not found, "\n".join(found)

    def test_size_guard(self):
        ctx = make_ctx(24, f=0.5, d=0.9)
        with pytest.raises(EnumerationSizeError):
            enumerate_period_exact(ctx, 24)

    def test_size_guard_runs_before_the_walk(self, monkeypatch):
        # 10^7 + 1 batches at M = 4, or 10^6 at M = 1, count 32 terms each:
        # the guard must refuse them before the position walk, which would
        # take seconds.
        class NoWalk:
            @staticmethod
            def groupby(*args):
                raise AssertionError("walked the packet positions")

        monkeypatch.setattr(oracle, "itertools", NoWalk)
        for m, n, terms in ((4, 10**7 + 1, 320000064), (1, 10**6, 32000004)):
            message = f"enumeration needs {terms} terms, above the 16777216 bound"
            with pytest.raises(EnumerationSizeError, match=re.escape(message)):
                enumerate_period_exact(make_ctx(m, f=0.5, d=0.9), n)

    def test_matches_analytical_at_large_batches(self, monkeypatch):
        # The guard counts the batches and the largest group, so M = 32
        # cells are checked too.  Rank laws skewed to the top and to the
        # bottom; under ``degenerate`` E = N f for any split, so it would
        # not see a wrong one.
        sizes = []

        def brute(size, f, d):
            sizes.append(size)
            return group_pmf_brute(size, f, d)

        group_pmf_brute = oracle._group_pmf_brute
        monkeypatch.setattr(oracle, "_group_pmf_brute", brute)
        for m, ns in ((16, (3, 5, 12, 31)), (32, (5, 12, 16))):
            harmonic = [1.0 / r for r in range(1, m + 1)]
            laws = (
                RankDistribution.truncated_binomial(m, 0.8),
                RankDistribution([w / sum(harmonic) for w in harmonic]),
            )
            for n, (f, d), hbar in itertools.product(ns, ((0.6, 0.85), (0.3, 0.5)), laws):
                ctx = make_ctx(m, f=f, d=d, hbar=hbar, mtu=65535)
                sizes.clear()
                assert enumerate_period_exact(ctx, n) == pytest.approx(
                    expected_rank_increment(n, ctx), abs=1e-12
                ), (m, n, f, d)
                if (m, n) == (16, 31):
                    # 31 batches over sizes 1..16: one enumeration per size.
                    assert sorted(sizes) == list(range(1, 17))

    def test_rejects_zero_header_survival(self):
        ctx = make_ctx(3, f=0.5, d=0.0)
        with pytest.raises(ParameterError):
            enumerate_period_exact(ctx, 2)


class TestEndToEnd:
    def test_reproducible_and_shaped(self):
        ctx = AggregationContext.build(CH, CODE)
        a = simulate_end_to_end(ctx, 4, NodeStrategy.fixed(5), SEED, 4_000)
        b = simulate_end_to_end(ctx, 4, NodeStrategy.fixed(5), SEED, 4_000)
        assert a == b
        assert [e.hop for e in a] == [1, 2, 3, 4]
        assert all(e.n == 5 for e in a)

    def test_matches_analytical_trace(self):
        from bncagg import simulate_line_network

        ctx = AggregationContext.build(CH, CODE)
        strategy = NodeStrategy.fixed(7)
        estimates = simulate_end_to_end(ctx, 5, strategy, SEED, 30_000)
        trace = simulate_line_network(5, strategy, ctx)
        for est, rec in zip(estimates, trace.records):
            assert abs(est.throughput - rec.efficiency) <= 4.0 * est.std_error

    def test_throughput_decays(self):
        ctx = AggregationContext.build(CH, CODE)
        values = [
            e.throughput
            for e in simulate_end_to_end(ctx, 6, NodeStrategy.optimal(), SEED, 8_000)
        ]
        assert values[0] > values[-1]

    def test_rejects_bad_hops(self):
        ctx = AggregationContext.build(CH, CODE)
        with pytest.raises(ParameterError):
            simulate_end_to_end(ctx, 0, NodeStrategy.optimal(), SEED, 100)


_BOUNDARY_CTX = AggregationContext.build(CH, CODE)


def _period(**overrides):
    fields = dict(ctx=_BOUNDARY_CTX, n=3, seed=SEED, trials=10)
    return simulate_period(TrialConfig(**(fields | overrides)))


def _end_to_end(hops=2, seed=SEED, trials=10):
    return simulate_end_to_end(_BOUNDARY_CTX, hops, NodeStrategy.fixed(1), seed, trials)


def _line(hops):
    return simulate_line_network(hops, NodeStrategy.fixed(1), _BOUNDARY_CTX)


def _replace(**fields):
    # A context built by hand, as the oracles' callers may build one.
    return dataclasses.replace(_BOUNDARY_CTX, **fields)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _period(n=0), "aggregation count must be a positive integer"),
        (lambda: _period(n=2.0), "aggregation count must be a positive integer"),
        (lambda: _period(n="3"), "aggregation count must be a positive integer"),
        (lambda: _period(trials=10.0), "trials must be a positive integer"),
        (lambda: _period(trials="10"), "trials must be a positive integer"),
        (lambda: _period(seed=-1), "seed must be a nonnegative integer"),
        (lambda: _period(seed=1.5), "seed must be a nonnegative integer"),
        (lambda: NodeStrategy("fixed", "3"), "fixed N must be a positive integer"),
        (lambda: NodeStrategy.fixed(2.0), "fixed N must be a positive integer"),
        (lambda: _line("3"), "hops must be a positive integer"),
        (lambda: _line(2.0), "hops must be a positive integer"),
        (lambda: _end_to_end(hops="2"), "hops must be a positive integer"),
        (lambda: _end_to_end(trials=0), "trials must be a positive integer"),
        (lambda: _end_to_end(trials=10.0), "trials must be a positive integer"),
        (lambda: _end_to_end(seed=-1), "seed must be a nonnegative integer"),
        (lambda: enumerate_period_exact(_BOUNDARY_CTX, 0),
         "aggregation count must be a positive integer"),
        (lambda: enumerate_period_exact(_BOUNDARY_CTX, 2.0),
         "aggregation count must be a positive integer"),
        (lambda: enumerate_period_exact(_BOUNDARY_CTX, "2"),
         "aggregation count must be a positive integer"),
        # From here on each case fails at the parent, which returned a value,
        # raised another error or worded the message its own way.
        (lambda: _replace(d=1.5), "header survival must be in"),
        (lambda: _replace(d=math.nan), "header survival must be in"),
        (lambda: _replace(f=-0.5), "packet survival must be in"),
        (lambda: _replace(f=1.5), "packet survival must be in"),
        (lambda: _replace(f=math.nan), "packet survival must be in"),
        (lambda: CodeParams(4.0, 256, 6, 2), "batch_size must be a positive integer"),
        (lambda: RankDistribution.degenerate(0), "batch_size must be a positive integer"),
        (lambda: RankDistribution.truncated_binomial(0), "batch_size must be a positive"),
        (lambda: enumerate_period_exact(_BOUNDARY_CTX, 2, field_size=1.5),
         "field size must be a positive integer"),
        (lambda: bin_d_pmf(1, 3, 1.5, 0.9), "packet survival must be in"),
        (lambda: binom_pmf(1.5, 3, 0.5), "k must be a nonnegative integer"),
        (lambda: binom_pmf(1, 2.5, 0.5), "n must be a nonnegative integer"),
        (lambda: bin_d_pmf(1.5, 3, 0.5, 0.9), "k must be a nonnegative integer"),
        (lambda: bin_d_pmf(1, 2.5, 0.5, 0.9), "n must be a nonnegative integer"),
        (lambda: RankDistribution.degenerate(4, rank="x"), "rank must be a positive integer"),
        (lambda: RankDistribution.degenerate(4, rank=2.0), "rank must be a positive integer"),
        (lambda: uniform_rank_pmf(-1, 2, 2), "j must be a nonnegative integer"),
        (lambda: uniform_rank_pmf(2.5, 2, 2), "j must be a nonnegative integer"),
        (lambda: uniform_rank_pmf(2, -1, 2), "r must be a nonnegative integer"),
        (lambda: uniform_rank_pmf(2, 2.5, 2), "r must be a nonnegative integer"),
        # Raise sites that no other test reaches.
        (lambda: AggregationContext.build(CH, CODE, RankDistribution.degenerate(3)),
         "rank distribution has batch size 3, code has 4"),
        (lambda: gf256_rank_many(np.zeros((2, 2), dtype=np.uint8)), "expected a 3-d stack"),
        (lambda: gf256_rank_many(np.zeros((1, 0, 2), dtype=np.uint8)),
         "matrices must be nonempty"),
        (lambda: NodeStrategy.optimal().choose(
            1, np.array([math.nan, 0.5, 0.5, 0.0]), _resolve(_BOUNDARY_CTX)),
         "rank masses must have a positive finite total"),
        (lambda: simulate_periods(
            TrialConfig(ctx=_replace(d=0.0), n=3, seed=SEED, trials=10), (RANK_COUNTING,)),
         "header survival is zero"),
        (lambda: ChannelParams(baseline_plr=None), r"loss rate must be in \[0, 1\), got None"),
        (lambda: RankDistribution.degenerate(4, rank=5), r"rank must be in 1\.\.4, got 5"),
    ],
    ids=[
        "period-n-zero", "period-n-float", "period-n-str", "period-trials-float",
        "period-trials-str", "period-seed-negative", "period-seed-float",
        "strategy-n-str", "strategy-n-float", "line-hops-str", "line-hops-float",
        "e2e-hops-str", "e2e-trials-zero", "e2e-trials-float", "e2e-seed-negative",
        "enum-n-zero", "enum-n-float", "enum-n-str",
        "ctx-d-above-one", "ctx-d-nan", "ctx-f-negative", "ctx-f-above-one",
        "ctx-f-nan", "code-batch-float", "degenerate-zero", "binomial-zero",
        "field-size-float", "bin-d-f-above-one", "binom-k-float", "binom-n-float",
        "bin-d-k-float", "bin-d-n-float", "degenerate-rank-str", "degenerate-rank-float",
        "rank-pmf-j-negative", "rank-pmf-j-float", "rank-pmf-r-negative", "rank-pmf-r-float",
        "ctx-batch-mismatch", "gf256-not-3d", "gf256-empty", "choose-nan-mass",
        "periods-d-zero", "channel-no-loss", "degenerate-rank-above-m",
    ],
)
def test_library_counts_are_checked(call, message):
    # Each of these raised ZeroDivisionError, TypeError, numpy's ValueError
    # or a misleading extinction error before the counts were checked.
    with pytest.raises(ParameterError, match=message):
        call()


def test_channel_loss_rate_is_a_required_keyword():
    with pytest.raises(TypeError):
        ChannelParams()
    with pytest.raises(TypeError):
        ChannelParams(9000, 28, 22, 4, 0.1)


@pytest.mark.parametrize("to_numpy", [np.int64, np.uint32])
def test_library_counts_accept_numpy_integers(to_numpy):
    assert _period(n=to_numpy(3), trials=to_numpy(10), seed=to_numpy(SEED)) == _period()
    assert _end_to_end(to_numpy(2), to_numpy(SEED), to_numpy(10)) == _end_to_end()
    assert _line(to_numpy(2)) == _line(2)
    assert NodeStrategy.fixed(to_numpy(1)).select(optimize_n(_BOUNDARY_CTX)[1]) == 1
    assert RankDistribution.degenerate(4, to_numpy(2)) == RankDistribution.degenerate(4, 2)
    assert binom_pmf(to_numpy(1), to_numpy(3), 0.5) == binom_pmf(1, 3, 0.5)
    # Each of these raised a ParameterError at the parent.
    sizes = dict(max_payload=9000, proto_header=28, dl_header=22, dl_trailer=4)
    channel = ChannelParams(**{k: to_numpy(v) for k, v in sizes.items()}, baseline_plr=0.1)
    code = CodeParams(to_numpy(4), to_numpy(256), to_numpy(6), to_numpy(2))
    assert code == CodeParams(4, 256, 6, 2)
    assert type(code.batch_size) is int and type(channel.max_payload) is int
    ctx = AggregationContext.build(channel, code)
    assert optimize_n(ctx) == optimize_n(AggregationContext.build(CH, CODE))
    exact = enumerate_period_exact(ctx, 3, field_size=256)
    assert enumerate_period_exact(ctx, 3, field_size=to_numpy(256)) == exact
    assert enumerate_period_exact(ctx, to_numpy(3)) == enumerate_period_exact(ctx, 3)


@pytest.mark.parametrize("to_numpy", [np.float16, np.float32, np.float64])
def test_library_probabilities_accept_numpy_floats(to_numpy):
    # An np.float32 PLR raised a ParameterError at the parent.
    plr = to_numpy(0.25)  # exact in every width
    assert AggregationContext.build(ChannelParams(baseline_plr=plr), CODE) == (
        AggregationContext.build(ChannelParams(baseline_plr=0.25), CODE)
    )
    assert bin_d_pmf(1, 3, to_numpy(0.5), to_numpy(0.75)) == bin_d_pmf(1, 3, 0.5, 0.75)
