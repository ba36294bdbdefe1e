import contextlib
import hashlib
import io
import math

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
    simulate_end_to_end,
    simulate_period,
)
from bncagg.gf256 import GF_INV, GF_MUL_TABLE, gf256_rank_many
from bncagg.cli import main
from bncagg.oracle import (
    _BLOCK,
    _CHUNK,
    GF256_MATRIX,
    RANK_COUNTING,
    HopEstimate,
    _bernoulli,
    _Coefficients,
    _draw_ranks,
    _word_bound,
    uniform_rank_pmf,
)
from helpers import make_ctx, rank_pmf_bruteforce

CH = ChannelParams(baseline_plr=0.10)
CODE = CodeParams(batch_size=4, payload=256, bnc_header=6, integrity=2)
SEED = 987654321


def table_mul(a, b) -> int:
    """Product of two field elements, read from the kernel's table."""
    return int(GF_MUL_TABLE[(int(a) << 8) | int(b)])


def rank_one(matrix) -> int:
    """Rank of one matrix over GF(256), through the stack kernel."""
    return int(gf256_rank_many(np.asarray(matrix)[None])[0])


class TestGF256:
    def test_multiplication_table_spots(self):
        assert table_mul(0, 17) == 0
        assert table_mul(1, 200) == 200
        assert table_mul(2, 128) == 0x1B  # x * x^7 reduces by the modulus
        assert table_mul(0x53, 0xCA) == 0x01  # classic inverse pair

    def test_inverses(self):
        for a in range(1, 256):
            assert table_mul(a, GF_INV[a]) == 1

    def test_associativity_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b, c = rng.integers(1, 256, 3)
            assert table_mul(table_mul(a, b), c) == table_mul(a, table_mul(b, c))

    def test_rank_identity_and_zero(self):
        eye = np.eye(5, dtype=np.int64)
        assert rank_one(eye) == 5
        assert rank_one(np.zeros((3, 4), dtype=np.int64)) == 0

    def test_rank_dependent_rows(self):
        # Row 2 = 3 * row 0 + row 1 in GF(256).
        row0 = np.array([7, 1, 90], dtype=np.int64)
        row1 = np.array([2, 200, 31], dtype=np.int64)
        row2 = np.array([table_mul(3, int(a)) ^ int(b) for a, b in zip(row0, row1)])
        mat = np.stack([row0, row1, row2])
        assert rank_one(mat) == 2

    def test_rank_many_matches_scalar(self):
        rng = np.random.default_rng(11)
        mats = rng.integers(0, 256, size=(50, 4, 6), dtype=np.int64)
        got = gf256_rank_many(mats)
        assert [rank_one(m) for m in mats] == list(got)

    def test_random_square_full_rank_frequency(self):
        # P[rank n] for uniform n x n over GF(q) = prod(1 - q^-i); ~0.9961
        # for q=256, n=3.
        rng = np.random.default_rng(7)
        mats = rng.integers(0, 256, size=(20_000, 3, 3), dtype=np.int64)
        frac = float((gf256_rank_many(mats) == 3).mean())
        expect = math.prod(1.0 - 256.0**-i for i in range(1, 4))
        assert frac == pytest.approx(expect, abs=0.005)


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


class TestChunkBoundaries:
    """Seeded outputs pinned bit for bit across several RNG chunks.

    Each chunk draws from its own spawn key, so a change in how trials are
    cut into chunks or in the order of the draws inside one shows here.
    """

    CTX = AggregationContext.build(CH, CODE, RankDistribution.truncated_binomial(4))

    def test_period_rank_counting_three_chunks(self):
        est = simulate_period(
            TrialConfig(ctx=self.CTX, n=5, seed=SEED, trials=2 * _CHUNK + 1000)
        )
        assert est.mean == 3.8173380564171855
        assert est.std_error == 0.0013300152415035372
        assert est.rank_histogram == (
            0.007515597552849961,
            0.0345054212853595,
            0.18581228420861348,
            0.491415288630444,
            0.28075140832273304,
        )

    def test_period_gf256_two_chunks(self):
        est = simulate_period(
            TrialConfig(
                ctx=self.CTX, n=3, seed=SEED, trials=_CHUNK + 1000, mode=GF256_MATRIX
            )
        )
        assert est.mean == 2.292187126684525
        assert est.std_error == 0.0013746811070703246
        assert est.rank_histogram == (
            0.001287523546150455,
            0.039221874874754516,
            0.19010260109815239,
            0.4912578654162158,
            0.2781301350647269,
        )

    def test_end_to_end_three_chunks_per_hop(self):
        # 40k trials at N = M = 4 give 160k one-batch periods per hop.
        ctx = AggregationContext.build(CH, CODE)
        assert simulate_end_to_end(ctx, 2, NodeStrategy.fixed(4), SEED, 40_000) == [
            HopEstimate(hop=1, n=4, throughput=0.8314940540540542,
                        std_error=0.00041558457901265286),
            HopEstimate(hop=2, n=4, throughput=0.7621881081081082,
                        std_error=0.0005053100669789558),
        ]


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
    def test_bernoulli_matches_random(self, p, shape):
        got = _interleaved(lambda rng: _bernoulli(rng, p, shape))
        expect = _interleaved(lambda rng: rng.random(shape) < p)
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
            got = _bernoulli(_GivenWords(words), p, words.shape)
            np.testing.assert_array_equal(got, uniform < p)
        cum[-1] = 1.0
        expect = np.searchsorted(cum, uniform, side="right") + 1
        got = _draw_ranks(_GivenWords(words), hbar, words.shape)
        np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize(
        "shape", [(3, 4, 4), (1, 1, 3), (_BLOCK // 15 + 1, 3, 5), (_BLOCK // 7 + 1, 3, 5)]
    )
    def test_coefficients_match_int64_draw(self, shape):
        # A chunk draws its coefficients after raw words, in pieces whose
        # sizes may be odd; a draw above 2 * _BLOCK spans several word blocks.
        total = math.prod(shape)
        sizes = [1, 2, 5, _BLOCK + 1, 4, 2 * _BLOCK + 3]
        pieces = []
        while sum(pieces) < total:
            pieces.append(min(sizes[len(pieces) % len(sizes)], total - sum(pieces)))
        rng = np.random.Generator(np.random.Philox(SEED))
        rng.random(3)
        expect = rng.integers(0, 256, total, dtype=np.int64)
        for split in ([total], pieces):
            rng = np.random.Generator(np.random.Philox(SEED))
            _bernoulli(rng, 0.5, (3,))
            draw = _Coefficients(rng)
            got = np.concatenate([draw(size) for size in split])
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, expect)

    def test_gf256_at_m16_pinned(self):
        # Pinned from the int64 draws: with uint8 counts the group key
        # j * (M + 1) + r would overflow at M = 16.
        ctx = AggregationContext.build(
            CH,
            CodeParams(batch_size=16, payload=256, bnc_header=18, integrity=2),
            RankDistribution.truncated_binomial(16),
        )
        est = simulate_period(
            TrialConfig(ctx=ctx, n=5, seed=SEED, trials=3000, mode=GF256_MATRIX)
        )
        assert est.mean == 3.9685423455706585
        assert est.std_error == 0.004100514447668732
        assert est.rank_histogram[4:10] == (
            6.666666666666667e-05,
            0.00046666666666666666,
            0.0006,
            0.0024,
            0.006866666666666667,
            0.026733333333333335,
        )
        assert est.rank_histogram[16] == 0.006466666666666667

    @pytest.mark.parametrize("mode", [RANK_COUNTING, GF256_MATRIX])
    def test_m256_counts_do_not_wrap(self, mode):
        # At PLR 0 every one of the 256 packets arrives, which a uint8 count
        # would read as 0.
        ctx = AggregationContext.build(
            ChannelParams(baseline_plr=0.0),
            CodeParams(batch_size=256, payload=256, bnc_header=258, integrity=2),
            RankDistribution.truncated_binomial(256, 0.995),
        )
        est = simulate_period(TrialConfig(ctx=ctx, n=1, seed=SEED, trials=6, mode=mode))
        assert est.mean == 0.9973958333333334
        assert est.std_error == 0.0011886340223549933
        hist = {k: v for k, v in enumerate(est.rank_histogram) if v}
        assert hist == {254: 1 / 6, 255: 1 / 3, 256: 0.5}

    def test_throughput_mc_csv_pinned(self):
        # PLR 0 gives f = d = 1, the bound that no uint64 holds.
        out = io.StringIO()
        args = ["throughput", "--mc", "--plr", "0", "--plr", "0.2"]
        with contextlib.redirect_stdout(out):
            assert main(args + ["--hops", "4", "--trials", "3000"]) == 0
        digest = hashlib.md5(out.getvalue().encode()).hexdigest()
        assert digest == "3f40020db8b7414f95725d63f9960ce2"


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

    def test_size_guard(self):
        ctx = make_ctx(18, f=0.5, d=0.9)
        with pytest.raises(EnumerationSizeError):
            enumerate_period_exact(ctx, 5)

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
