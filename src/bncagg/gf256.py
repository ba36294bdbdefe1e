"""Vectorized GF(256) arithmetic and matrix rank.

The field is GF(2^8) with the AES modulus x^8 + x^4 + x^3 + x + 1 (0x11B).
Log/antilog tables with generator 0x03 build, at import, a 64 KiB uint8
product table indexed by ``(x << 8) | y``; addition is XOR.  Field entries
must be integers in 0..255, anything else raises ``ParameterError``.

Rank reduction runs over a whole stack of matrices at once, with no row
swaps and no per-matrix branching, on a uint8 copy transposed so that
rows <= cols and laid out (cols, rows, count): every elementwise step runs
along the stack.  One elimination pass takes the diagonal as the pivot of
each of the first rows - 1 columns.  A matrix whose diagonal entry is zero
first adds to that row the first lower row that is nonzero in the column.
If the column is zero from the diagonal down, the first later column that
is nonzero in those rows is added to it first; with none, those rows are
zero and the column adds no pivot.  Only those few matrices are gathered
and scattered.  Each lower row's factor is its entry times the pivot's
inverse, and each trailing column is cleared with one product-table lookup
per entry, from uint16 indices.  The last row adds one to the rank if any
entry of it is left, which is all a single row or column needs.

About 35 million uniform 4x4 matrices are ranked per second on one core (a
stack of 16 384, median of 21 calls, on a 2-core Xeon with numpy 2.4).  The
layout suits stacks of many small matrices; a stack of a few matrices with
hundreds of rows still spends much of its time clearing columns in numpy
calls on short runs.
"""

from __future__ import annotations

import numpy as np

from .params import ParameterError

_MODULUS = 0x11B
_GENERATOR = 0x03


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(510, dtype=np.int64)
    log = np.zeros(256, dtype=np.int64)
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        # multiply by the generator 0x03: value * 2 + value, reduced mod 0x11B
        doubled = value << 1
        if doubled & 0x100:
            doubled ^= _MODULUS
        value = doubled ^ value
    exp[255:510] = exp[0:255]
    return exp, log


def _build_product_table() -> np.ndarray:
    # Row by row: one 255 x 255 int64 temporary would move the allocator's
    # mmap threshold and slowed unrelated model code by about 7% in timing.
    product = np.zeros((256, 256), dtype=np.uint8)
    exp = GF_EXP.astype(np.uint8)
    for x in range(1, 256):
        product[x, 1:] = exp[GF_LOG[x] + GF_LOG[1:]]
    product.flags.writeable = False
    return product.ravel()


GF_EXP, GF_LOG = _build_tables()
GF_INV = np.zeros(256, dtype=np.int64)
GF_INV[1:] = GF_EXP[255 - GF_LOG[1:]]
# The inverse shifted into the high byte of a product-table index.
_INV_HIGH = (GF_INV << 8).astype(np.uint16)
# GF_MUL_TABLE[(x << 8) | y] is the product x * y.
GF_MUL_TABLE = _build_product_table()


def _field_array(values) -> np.ndarray:
    """``values`` as an integer array, checked to hold only 0..255."""
    a = np.asarray(values)
    if a.dtype == np.uint8:
        return a
    if a.dtype != np.bool_ and not np.issubdtype(a.dtype, np.integer):
        raise ParameterError(f"GF(256) entries must be integers, got dtype {a.dtype}")
    if a.size and (a.min() < 0 or a.max() > 255):
        raise ParameterError(
            f"GF(256) entries must lie in 0..255, got range {a.min()}..{a.max()}"
        )
    return a


def gf256_rank_many(matrices: np.ndarray) -> np.ndarray:
    """Rank of each matrix in a (count, rows, cols) stack over GF(256)."""
    a = _field_array(matrices)
    if a.ndim != 3:
        raise ParameterError(f"expected a 3-d stack of matrices, got shape {a.shape}")
    count, rows, cols = a.shape
    if rows == 0 or cols == 0:
        raise ParameterError("matrices must be nonempty")
    if rows > cols:
        # Rank is invariant under transpose; with rows <= cols every row but
        # the last gets a diagonal pivot.
        a = a.transpose(0, 2, 1)
        rows, cols = cols, rows
    # A private uint8 copy laid out (cols, rows, count): entry (r, c) of every
    # matrix is one contiguous run, so each step below loops along count.
    work = a.transpose(2, 1, 0).astype(np.uint8, order="C")
    # Rows 0 .. rows - 2 each add a diagonal pivot, less one for every column
    # that finds none.  Held in the smallest dtype until the end: a count-long
    # int64 array live through the loop timed 35% slower on 16 384 4x4
    # matrices.
    rank = np.full(count, rows - 1, dtype=np.min_scalar_type(rows))
    for col in range(rows - 1):
        # Only entries right of and below the diagonal are read from here on,
        # so column col of the lower rows is never cleared.
        column = work[col]
        pivot = column[col]
        zero = np.flatnonzero(pivot == 0)
        if zero.size:
            empty = zero[~column[col + 1 :, zero].any(axis=0)]
            if empty.size:
                # Column col is zero from the diagonal down.  Adding to it, in
                # rows col .., the first later column that is nonzero there
                # keeps the rank.  With no such column rows col .. are zero,
                # so this column adds no pivot.
                later = work[col + 1 :, col:, empty].any(axis=1)
                found = later.any(axis=0)
                rank[empty[~found]] -= 1
                fix = empty[found]
                work[col, col:, fix] = work[col + 1 + later[:, found].argmax(axis=0), col:, fix]
                zero = zero[pivot[zero] == 0]
            # Adding a lower row keeps the rank: the first one that is nonzero
            # in this column repairs the pivot.  A matrix with no such row
            # keeps the pivot 0, whose inverse reads 0, so no row of it changes.
            below = column[col + 1 :, zero] != 0
            first = below.argmax(axis=0)
            found = below.any(axis=0)
            fix = zero[found]
            work[col:, col, fix] ^= work[col:, col + 1 + first[found], fix]
        # Each lower row's factor is its entry times the pivot's inverse; one
        # product-table lookup per trailing entry then subtracts that multiple
        # of the pivot row.  Indices are built in uint16, and the trailing
        # columns are cleared `group` at a time, enough to fill 2^15 entries
        # when the matrices are large and few.
        lower = rows - col - 1
        factor = GF_MUL_TABLE.take(_INV_HIGH.take(pivot) | column[col + 1 :], mode="clip")
        factor = np.left_shift(factor, 8, dtype=np.uint16)
        trailing = cols - col - 1
        group = min(trailing, max(1, (1 << 15) // max(1, lower * count)))
        index = np.empty((group, lower, count), dtype=np.uint16)
        product = np.empty((group, lower, count), dtype=np.uint8)
        for start in range(col + 1, cols, group):
            n = min(group, cols - start)
            np.bitwise_or(factor, work[start : start + n, col, None], out=index[:n])
            np.take(GF_MUL_TABLE, index[:n], out=product[:n], mode="clip")
            work[start : start + n, col + 1 :] ^= product[:n]
    # The last row adds one if any entry of it is left.
    rank += work[rows - 1 :, rows - 1].any(axis=0)
    return rank.astype(np.int64)
