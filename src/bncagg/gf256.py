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
first adds to that row the first lower row that is nonzero in the column;
only those few matrices are gathered and scattered.  Each lower row's
factor is its entry times the pivot's inverse, and each trailing column is
cleared with one product-table lookup per entry, from uint16 indices.  Rows
0 .. rows - 2 then hold nonzero pivots, and the last row adds one to the
rank if any entry of it is left.  A single row or column short-circuits to
"any nonzero entry".

A matrix whose column is zero from the diagonal down cannot be repaired by
a lower row, yet may still reach full rank through a later column.  Such
matrices, about one in 65 536 of a uniform 4x4 stack, are ranked again
from their original entries by an exact pivot-search kernel, in one call
per stack.  About 31 million uniform 4x4 matrices are ranked per second on
one core this way (a stack of 16 384, median of 21 calls, on a 2-core Xeon
with numpy 2.4; 21 million with the pivot search alone).  The layout suits
stacks of many small matrices; a stack of a few matrices with hundreds of
rows still spends much of its time clearing columns in numpy calls on
short runs.
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
    if rows == 1 or count == 0:
        return a.any(axis=(1, 2)).astype(np.int64)
    # A private uint8 copy laid out (cols, rows, count): entry (r, c) of every
    # matrix is one contiguous run, so each step below loops along count.
    work = a.transpose(2, 1, 0).astype(np.uint8, order="C")
    stuck = np.zeros(count, dtype=bool)
    for col in range(rows - 1):
        # Only entries right of and below the diagonal are read from here on,
        # so column col of the lower rows is never cleared.
        column = work[col]
        pivot = column[col]
        zero = np.flatnonzero(pivot == 0)
        if zero.size:
            # Adding a lower row keeps the rank: the first one that is nonzero
            # in this column repairs the pivot.  A matrix with no such row is
            # stuck and is ranked again by the pivot search; until then its
            # pivot stays 0, whose inverse reads 0, so no row of it changes.
            below = column[col + 1 :, zero] != 0
            first = below.argmax(axis=0)
            found = below.any(axis=0)
            stuck[zero[~found]] = True
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
        group = min(trailing, max(1, (1 << 15) // (lower * count)))
        index = np.empty((group, lower, count), dtype=np.uint16)
        product = np.empty((group, lower, count), dtype=np.uint8)
        for start in range(col + 1, cols, group):
            n = min(group, cols - start)
            np.bitwise_or(factor, work[start : start + n, col, None], out=index[:n])
            np.take(GF_MUL_TABLE, index[:n], out=product[:n], mode="clip")
            work[start : start + n, col + 1 :] ^= product[:n]
    # Rows 0 .. rows - 2 hold nonzero diagonal pivots; the last row adds one
    # if any entry of it is left.
    rank = work[rows - 1 :, rows - 1].any(axis=0).astype(np.int64)
    rank += rows - 1
    stuck = np.flatnonzero(stuck)
    if stuck.size:
        rank[stuck] = _rank_pivoting(a[stuck])
    return rank


def _rank_pivoting(matrices: np.ndarray) -> np.ndarray:
    """Rank of each matrix in a (count, rows, cols) stack, 2 <= rows <= cols.

    Exact for any stack, but slower than the diagonal pass: for each column
    the first nonzero row is the pivot, read with one gather along the
    stack.  The pivot row's trailing entries are scaled by the pivot's
    inverse, and each trailing column of every row is then cleared with one
    product-table lookup.
    """
    count, rows, cols = matrices.shape
    a = matrices.transpose(2, 1, 0).astype(np.uint8, order="C")
    rank = np.zeros(count, dtype=np.min_scalar_type(rows))
    # Row r weighs rows - r, so the heaviest nonzero entry of a column is
    # its first nonzero one.
    weight = np.arange(rows, 0, -1, dtype=rank.dtype)[:, None]
    key = np.empty((rows, count), dtype=rank.dtype)
    # Trailing columns are cleared `group` at a time, as in the diagonal
    # pass.  The product-table indices are built in an intp buffer, as
    # np.take copies any other index type into a temporary intp array.
    group = min(cols - 1, max(1, (1 << 15) // (rows * count)))
    index = np.empty((group, rows, count), dtype=np.intp)
    product = np.empty((group, rows, count), dtype=np.uint8)
    stack = np.arange(count)
    for col in range(cols):
        # A row that was a pivot is zero in every later column (see below),
        # so the first nonzero entry of the column is the first unused one.
        column = a[col]
        np.multiply(column != 0, weight, out=key)
        top = key.max(axis=0)
        rank += top != 0
        if col + 1 == cols or rank.min() == rows:
            break
        # Row rows - top holds the pivot; a zero column (top = 0) reads row 0,
        # which is zero there too, so its pivot reads 0, whose inverse is 0,
        # and nothing changes.  Scale the pivot row's trailing entries by the
        # pivot's inverse, then subtract column col's multiple of that row
        # from every row, the pivot row included, which clears it.
        trailing = a[col + 1 :]
        pivot_row = (rows - top.astype(np.intp)) % rows
        scaled = trailing[:, pivot_row, stack].astype(np.intp)
        scaled |= GF_INV.take(column[pivot_row, stack]) << 8
        # Every index lies in the 64 KiB table; mode="clip" only skips the
        # bounds check that raising would need.
        scaled = GF_MUL_TABLE.take(scaled, mode="clip")
        # Slot k of `index` starts as (column << 8) and steps by XOR from
        # one trailing column's scaled entries to the next group's, so that
        # it holds (column << 8) | scaled[t] when column t is cleared.
        steps = scaled.copy()
        steps[group:] ^= scaled[:-group]
        np.left_shift(column, 8, out=index, dtype=np.intp)
        for start in range(0, cols - col - 1, group):
            n = min(group, cols - col - 1 - start)
            index[:n] ^= steps[start : start + n, None].astype(np.intp)
            np.take(GF_MUL_TABLE, index[:n], out=product[:n], mode="clip")
            trailing[start : start + n] ^= product[:n]
    return rank.astype(np.int64)
