"""The GF(256) kernel against an independent pure-Python reference."""

import hashlib
import json

import numpy as np
import pytest

from bncagg import ParameterError
from bncagg.gf256 import GF_EXP, GF_INV, GF_LOG, GF_MUL_TABLE, gf256_rank_many
from capture_corpus import PIN_FUNCTIONS, PINS
from helpers import gf256_mul_slow, gf256_mul_table_slow, gf256_rank_rows, gf256_rank_slow

SHAPES = [(r, c) for r in range(1, 7) for c in range(1, 7)]
KINDS = ["uniform", "sparse", "low_rank"]
PINNED = json.loads(PINS.read_text())


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


def _lu(rng, count, rows, cols):
    """Factors of matrices L·U whose diagonal pass needs no repair.

    L is unit lower triangular and U upper triangular with a nonzero
    diagonal, so eliminating L·U column by column on its diagonal meets the
    pivots U[c, c] and nothing else.  Zeroing U[c, c] leaves column c zero
    from the diagonal down once columns 0 .. c - 1 are cleared.
    """
    lower = np.tril(rng.integers(0, 256, size=(count, rows, rows)), -1)
    lower += np.eye(rows, dtype=lower.dtype)
    upper = np.triu(rng.integers(0, 256, size=(count, rows, cols)))
    diagonal = np.arange(rows)
    upper[:, diagonal, diagonal] = rng.integers(1, 256, size=(count, rows))
    return lower, upper


def _product(lower, upper):
    """The matrix product of two stacks over GF(256), by the slow table."""
    mul = gf256_mul_table_slow()
    out = np.zeros(upper.shape, dtype=np.int64)
    for t in range(lower.shape[2]):
        out ^= mul[lower[:, :, t, None], upper[:, None, t, :]]
    return out


def _planted(case, rng, count=40):
    """A stack that takes one branch of the diagonal pass in every matrix."""
    if case in ("repaired", "repaired_deficient"):
        # The row that holds U's pivot c moves below rows with a zero there,
        # so the first nonzero lower row repairs a zero diagonal.  Repaired
        # with any other row, the deficient matrices would read full rank.
        lower, upper = _lu(rng, count, 4, 6)
        if case == "repaired_deficient":
            upper[:, 3] = 0
        col = rng.integers(0, 3, size=count)
        for i, c in enumerate(col):
            lower[i, c + 1 :, c] = 0
        mats = _product(lower, upper)
        for i, c in enumerate(col):
            mats[i, c:] = np.roll(mats[i, c:], -1, axis=0)
        return mats
    if case in ("zero_column_full_rank", "tall"):
        # A zero column inserted into a full-rank 3x4 matrix.
        lower, upper = _lu(rng, count, 3, 4)
        col = rng.integers(0, 2, size=count)
        mats = np.stack([np.insert(m, c, 0, axis=1) for m, c in zip(_product(lower, upper), col)])
        return mats if case != "tall" else mats.transpose(0, 2, 1)
    if case == "zero_column_deficient":
        lower, upper = _lu(rng, count, 4, 4)
        col = rng.integers(0, 3, size=count)
        upper[np.arange(count), col, col] = 0
        return _product(lower, upper)
    if case == "zero_block":
        # U's rows 2 .. are zero, so once columns 0 and 1 are cleared rows
        # 2 .. are zero and columns 2, 3 and 4 in turn find no later column.
        lower, upper = _lu(rng, count, 6, 6)
        upper[:, 2:] = 0
        return _product(lower, upper)
    if case == "last_diagonal_zero_wide":
        lower, upper = _lu(rng, count, 3, 5)
        upper[:, 2, 2] = 0
        upper[:, 2, 4] = rng.integers(1, 256, size=count)
        return _product(lower, upper)
    lower, upper = _lu(rng, count, 4, 4)
    upper[:, 3, 3] = 0
    return _product(lower, upper)


# The rank of every matrix of each planted case: full, or one short of it
# but for the zero block.
PLANTED = {
    "repaired": 4,
    "repaired_deficient": 3,
    "zero_column_full_rank": 3,
    "zero_column_deficient": 3,
    "zero_block": 2,
    "last_diagonal_zero_wide": 3,
    "last_diagonal_zero_square": 3,
    "tall": 3,
}


# (kind, rows, cols) -> rank counts and sha256 of the ranks; see
# TestRankKernel.test_matches_pivot_search_at_scale.
PIVOT_SEARCH_RANKS = {
    ("uniform", 2, 2): (
        [0, 16, 4080],
        "4706c65b0c66c855eb1a77536e3f196066bbb564622758b031c60dbb850bb280",
    ),
    ("uniform", 2, 7): (
        [0, 0, 4096],
        "2ef9afba43eac140528106dce3a88c24d0eb293b894173d1f52ffe87f0457ef1",
    ),
    ("uniform", 3, 3): (
        [0, 0, 15, 4081],
        "b9f168ce1cccad1f17fd69e8a1bff9f803cf177e26efbe73bcf0272e84534533",
    ),
    ("uniform", 4, 4): (
        [0, 0, 0, 13, 4083],
        "3b1ac787febd325702ab20fbcbcf9b9ff73a567bdcac6aac87a0dc7b632d03b2",
    ),
    ("uniform", 6, 3): (
        [0, 0, 0, 4096],
        "354ccffb796294fcc9c181997ee5bc011d14e0557bc4b03b3b229723e3e90b12",
    ),
    ("uniform", 5, 8): (
        [0, 0, 0, 0, 0, 4096],
        "cff4b8a6f075e18dfb2f0cccbb00642144c033948f8017b4f1be40dc4b175b1a",
    ),
    ("uniform", 8, 8): (
        [0, 0, 0, 0, 0, 0, 0, 13, 4083],
        "927a729db73dce042985052681d8244b5dadd4fa4c2c0dc41939e606de1959bc",
    ),
    ("sparse", 2, 2): (
        [995, 2417, 684],
        "a303c4c7e55f78c83809914991924582fda6cfb61b5998c06ee7c385f34a9138",
    ),
    ("sparse", 2, 7): (
        [29, 680, 3387],
        "66422f3f882bebecf9da59a6940a2038287eaf9bd79aaa2387175a48673d9388",
    ),
    ("sparse", 3, 3): (
        [159, 1309, 2054, 574],
        "050603921f5a338d6a33be4891d2783677eff03c55c1f7371c31eb2dfc23f351",
    ),
    ("sparse", 4, 4): (
        [12, 261, 1226, 2021, 576],
        "402cd8f9ca87fb0f93a16f717daf0fb1318350ccdc0b8f4b59b2caf13e18f102",
    ),
    ("sparse", 6, 3): (
        [13, 182, 1278, 2623],
        "ffe62b1669aa0d627fbeccaa1bc23da47476bd0cfc9fa311043cf7f5a87f276e",
    ),
    ("sparse", 5, 8): (
        [0, 0, 10, 167, 1074, 2845],
        "92f9afeb4c0f05c455d751046aa82e547b7c4569b05fedc2051a8c2bf95742bb",
    ),
    ("sparse", 8, 8): (
        [0, 0, 0, 0, 12, 98, 709, 1979, 1298],
        "ed88234d027aea0d5f9807e590f7dd5f149cc7bdc86f2b65da7818660aa68594",
    ),
    ("low_rank", 2, 2): (
        [2042, 2054],
        "bce591be58b168b708ac879c8056cca04aee07c27caf1c9dff2da7d4098f67ee",
    ),
    ("low_rank", 2, 7): (
        [2014, 2082],
        "d7650b3c187e9b75ad06d8cbc00d9046ad2e7132a374599f679154298704b712",
    ),
    ("low_rank", 3, 3): (
        [1375, 1358, 1363],
        "1ad1418150594f6d1946fd2833e8d46b692181833cfa60f1f025a915b3294288",
    ),
    ("low_rank", 4, 4): (
        [1020, 1000, 1046, 1030],
        "023a757d97430c01b17881d6007c5f2c7378f8054d1bde9a09d1d3a3c8f9efea",
    ),
    ("low_rank", 6, 3): (
        [1316, 1421, 1359],
        "ec622d8390539f1c98867d331a24a12b4b6271f4d1f164e767f4b822cb2d5253",
    ),
    ("low_rank", 5, 8): (
        [834, 839, 770, 812, 841],
        "03b7e0bea82dc160562258c1586c28b1465c68842c3ac800881177ca740de803",
    ),
    ("low_rank", 8, 8): (
        [532, 524, 506, 539, 525, 499, 498, 473],
        "8a1915549642351e61adade67a1234a6869d1b5a991807173aa63c1495fdb14d",
    ),
}


class TestProductTable:
    def test_every_pair(self):
        x, y = np.divmod(np.arange(1 << 16), 256)
        nz = (x != 0) & (y != 0)
        log_exp = np.where(nz, GF_EXP[GF_LOG[x] + GF_LOG[y]], 0)
        assert GF_MUL_TABLE.dtype == np.uint8
        assert np.array_equal(GF_MUL_TABLE, log_exp)
        slow = [gf256_mul_slow(a, b) for a in range(256) for b in range(256)]
        assert GF_MUL_TABLE.tolist() == slow

    def test_inverses(self):
        for a in range(1, 256):
            assert gf256_mul_slow(a, int(GF_INV[a])) == 1


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
        # A few matrices with many rows clear many trailing columns per group.
        rng = np.random.default_rng(rows * cols + KINDS.index(kind))
        mats = _stack(kind, rng, rows, cols, count=4)
        reference = gf256_rank_slow if rows * cols <= 1024 else gf256_rank_rows
        expect = [reference(m) for m in mats]
        for count in range(1, 5):
            assert gf256_rank_many(mats[:count]).tolist() == expect[:count], count

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "rows, cols",
        [
            (2, 2), (2, 3), (3, 2), (2, 4), (4, 4), (3, 5), (5, 3), (8, 8), (32, 32),
            (1, 32), (32, 1),
        ],
    )
    def test_many_matrix_stacks_match_reference(self, kind, rows, cols):
        # One trailing column per group, sparse or low-rank matrices whose
        # columns are zero from the diagonal down, and long single rows and
        # columns, which take the same elimination path with no column step.
        rng = np.random.default_rng(rows * cols + KINDS.index(kind))
        mats = _stack(kind, rng, rows, cols, count=256)
        expect = [gf256_rank_rows(m) for m in mats]
        assert gf256_rank_many(mats).tolist() == expect

    @pytest.mark.parametrize(
        "rows, cols", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 4), (3, 5), (16, 16), (32, 32)]
    )
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

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("case", PLANTED)
    def test_planted_branches(self, case, dtype):
        rng = np.random.default_rng(50 + list(PLANTED).index(case))
        mats = _planted(case, rng).astype(dtype)
        got = gf256_rank_many(mats)
        assert got.tolist() == [gf256_rank_slow(m) for m in mats]
        assert (got == PLANTED[case]).all()

    @pytest.mark.parametrize("rows, cols", [(3, 4), (4, 3)])
    def test_every_zero_pattern(self, rows, cols):
        # All 4096 patterns of zero entries, the others seeded nonzero: every
        # way a column can be zero from the diagonal down, with or without a
        # later column to repair it.
        rng = np.random.default_rng(70 + rows)
        size = rows * cols
        pattern = (np.arange(1 << size)[:, None] >> np.arange(size)) & 1
        values = rng.integers(1, 256, size=pattern.shape)
        mats = (pattern * values).reshape(-1, rows, cols)
        assert gf256_rank_many(mats).tolist() == [gf256_rank_slow(m) for m in mats]

    def test_zero_pivots_planted_in_a_large_stack(self):
        rng = np.random.default_rng(11)
        lower, upper = _lu(rng, 4096, 4, 4)
        assert (gf256_rank_many(_product(lower, upper)) == 4).all()
        planted = np.sort(rng.choice(4096, size=7, replace=False))
        col = rng.integers(0, 3, size=planted.size)
        upper[planted, col, col] = 0
        mats = _product(lower, upper)
        got = gf256_rank_many(mats)
        assert got[planted].tolist() == [gf256_rank_slow(m) for m in mats[planted]]
        assert (np.delete(got, planted) == 4).all()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rows, cols", [(2, 2), (2, 7), (3, 3), (4, 4), (6, 3), (5, 8), (8, 8)])
    def test_matches_pivot_search_at_scale(self, kind, rows, cols):
        """Stacks large enough that zero pivots occur in uniform matrices too.

        The pinned ranks were computed at commit fe0b998 by the exact
        pivot-search kernel ``gf256._rank_pivoting`` that this module then
        held, on the transposed stack when rows > cols: per stack, the count
        of each rank and the sha256 of the ranks as little-endian int64.
        """
        rng = np.random.default_rng(60 + rows * cols + KINDS.index(kind))
        mats = _stack(kind, rng, rows, cols, count=4096)
        ranks = gf256_rank_many(mats)
        counts, digest = PIVOT_SEARCH_RANKS[kind, rows, cols]
        assert np.bincount(ranks).tolist() == counts
        assert hashlib.sha256(ranks.astype("<i8").tobytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_bit_identical(self, n):
        key = f"period,M=4,plr=0.1,binomial:0.8,N={n},gf256_matrix,trials=20000"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key
