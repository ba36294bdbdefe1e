"""The GF(256) kernel against an independent pure-Python reference."""

import numpy as np
import pytest

from bncagg import AggregationContext, ChannelParams, CodeParams, RankDistribution
from bncagg import ParameterError, TrialConfig, simulate_period
from bncagg.gf256 import GF_EXP, GF_LOG, GF_MUL_TABLE, gf256_rank_many
from bncagg.oracle import GF256_MATRIX
from helpers import gf256_mul_slow, gf256_mul_table_slow, gf256_rank_rows, gf256_rank_slow

SHAPES = [(r, c) for r in range(1, 7) for c in range(1, 7)]
KINDS = ["uniform", "sparse", "low_rank"]


def _low_rank(rng, count, rows, cols):
    """Stacks whose rows are GF(256) combinations of fewer base rows."""
    mul = gf256_mul_table_slow()
    out = np.zeros((count, rows, cols), dtype=np.int64)
    for i in range(count):
        k = int(rng.integers(0, min(rows, cols)))
        base = rng.integers(0, 256, size=(k, cols))
        coeff = rng.integers(0, 256, size=(rows, k))
        for t in range(k):
            out[i] ^= mul[coeff[:, t, None], base[None, t, :]]
    return out


def _stack(kind, rng, rows, cols, count=30):
    if kind == "uniform":
        return rng.integers(0, 256, size=(count, rows, cols))
    if kind == "sparse":
        values = rng.integers(0, 256, size=(count, rows, cols))
        return np.where(rng.random((count, rows, cols)) < 0.7, 0, values)
    return _low_rank(rng, count, rows, cols)


class TestProductTable:
    def test_every_pair(self):
        x, y = np.divmod(np.arange(1 << 16), 256)
        nz = (x != 0) & (y != 0)
        log_exp = np.where(nz, GF_EXP[GF_LOG[x] + GF_LOG[y]], 0)
        assert GF_MUL_TABLE.dtype == np.uint8
        assert np.array_equal(GF_MUL_TABLE, log_exp)
        slow = [gf256_mul_slow(a, b) for a in range(256) for b in range(256)]
        assert GF_MUL_TABLE.tolist() == slow


class TestRankKernel:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference(self, kind, dtype):
        rng = np.random.default_rng(KINDS.index(kind))
        for rows, cols in SHAPES:
            mats = _stack(kind, rng, rows, cols).astype(dtype)
            got = gf256_rank_many(mats)
            expect = [gf256_rank_slow(m) for m in mats]
            assert got.tolist() == expect, (rows, cols)
            assert got.dtype == np.int64

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "rows, cols",
        [(16, 16), (8, 32), (32, 8), (32, 32), (64, 64), (128, 128), (255, 256)],
    )
    def test_large_shapes_match_reference(self, kind, rows, cols):
        # Stacks of fewer than 256 matrices read the pivot row with a gather.
        rng = np.random.default_rng(rows * cols + KINDS.index(kind))
        mats = _stack(kind, rng, rows, cols, count=4)
        reference = gf256_rank_slow if rows * cols <= 1024 else gf256_rank_rows
        expect = [reference(m) for m in mats]
        for count in range(1, 5):
            assert gf256_rank_many(mats[:count]).tolist() == expect[:count], count

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rows, cols", [(2, 2), (4, 4), (3, 5), (5, 3), (8, 8), (32, 32)])
    def test_many_matrix_stacks_match_reference(self, kind, rows, cols):
        # Stacks of 256 or more matrices of at most 32 rows read the pivot
        # row under a one-hot mask instead.
        rng = np.random.default_rng(rows * cols + KINDS.index(kind))
        mats = _stack(kind, rng, rows, cols, count=256)
        expect = [gf256_rank_rows(m) for m in mats]
        assert gf256_rank_many(mats).tolist() == expect

    @pytest.mark.parametrize("rows, cols", [(2, 2), (4, 4), (3, 5), (16, 16), (32, 32)])
    def test_whole_stack_matches_pieces(self, rows, cols):
        # The kernel sizes its buffers and its column groups from the stack.
        rng = np.random.default_rng(rows + cols)
        count = max(300, (1 << 17) // (rows * cols))
        mats = np.concatenate(
            [_stack(kind, rng, rows, cols, count=count) for kind in KINDS[:2]]
        )
        whole = gf256_rank_many(mats)
        cuts = [0, 1, 8, 100, count, 2 * count]
        pieces = [gf256_rank_many(mats[a:b]) for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(whole, np.concatenate(pieces))
        assert (whole < min(rows, cols)).any()

    def test_low_rank_stacks_are_deficient(self):
        rng = np.random.default_rng(3)
        mats = _low_rank(rng, 40, 5, 6)
        assert (gf256_rank_many(mats) < 5).all()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (1, 4), (4, 1), (4, 4)])
    def test_input_not_modified(self, shape, dtype):
        rng = np.random.default_rng(8)
        mats = rng.integers(0, 256, size=(200, *shape)).astype(dtype)
        before = mats.copy()
        gf256_rank_many(mats)
        gf256_rank_many(mats.transpose(0, 2, 1))
        assert np.array_equal(mats, before)

    @pytest.mark.parametrize("shape", [(0, 1, 1), (0, 3, 2), (0, 2, 5), (0, 1, 4)])
    def test_empty_stack(self, shape):
        got = gf256_rank_many(np.zeros(shape, dtype=np.int64))
        assert got.shape == (0,)
        assert got.dtype == np.int64


class TestRowReference:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_slow_reference(self, kind):
        rng = np.random.default_rng(40 + KINDS.index(kind))
        for rows, cols in SHAPES + [(8, 8), (5, 12), (12, 5)]:
            for m in _stack(kind, rng, rows, cols, count=10):
                assert gf256_rank_rows(m) == gf256_rank_slow(m), (rows, cols)


class TestFieldRange:
    @pytest.mark.parametrize("bad", [-1, 256, 300])
    def test_rank_rejects(self, bad):
        mats = np.ones((4, 2, 3), dtype=np.int64)
        mats[2, 1, 0] = bad
        with pytest.raises(ParameterError):
            gf256_rank_many(mats)
        with pytest.raises(ParameterError):
            gf256_rank_many(mats[2][None])

    def test_rejects_non_integers(self):
        with pytest.raises(ParameterError):
            gf256_rank_many(np.ones((2, 2, 2)) * 0.5)

    def test_bounds_accepted(self):
        assert gf256_rank_many(np.array([[[0, 255], [255, 0]]]))[0] == 2


class TestSeededEstimatesPinned:
    """gf256_matrix estimates recorded before the uint8 kernel, bit for bit."""

    CTX = AggregationContext.build(
        ChannelParams(baseline_plr=0.10),
        CodeParams(batch_size=4, payload=256, bnc_header=6, integrity=2),
        RankDistribution.truncated_binomial(4),
    )
    PINNED = {
        1: (
            0.7660524740190315,
            0.001378878355800209,
            (0.0001, 0.03075, 0.1947, 0.5044, 0.27005),
        ),
        4: (
            3.042551828087733,
            0.006080451225988445,
            (0.01545, 0.02835, 0.18375, 0.4934, 0.27905),
        ),
        16: (
            12.193949842281873,
            0.015360054828423914,
            (0.015675, 0.028475, 0.1800875, 0.4936125, 0.28215),
        ),
    }

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_bit_identical(self, n):
        est = simulate_period(
            TrialConfig(ctx=self.CTX, n=n, seed=987654321, trials=20_000, mode=GF256_MATRIX)
        )
        mean, se, hist = self.PINNED[n]
        assert est.mean == mean
        assert est.std_error == se
        assert est.rank_histogram == hist
