"""Vectorized GF(256) arithmetic and matrix rank.

The field is GF(2^8) with the AES modulus x^8 + x^4 + x^3 + x + 1 (0x11B).
Log/antilog tables with generator 0x03 build, at import, a 64 KiB uint8
product table indexed by ``(x << 8) | y``; addition is XOR.  Field entries
must be integers in 0..255, anything else raises ``ParameterError``.

Rank reduction runs over a whole stack of matrices at once, with no row
swaps and no per-matrix branching, on a uint8 copy transposed so that
rows <= cols and laid out (cols, rows, count): every elementwise step runs
along the stack.  For each column the first nonzero row is the pivot.  Its
one-hot mask reads the pivot and the pivot row, or a gather along the stack
does when the stack holds fewer than 256 matrices or rows > 32.  The pivot
row's trailing entries are scaled by the pivot's inverse, and each trailing
column of every row is then cleared with one product-table lookup.  A
single row or column short-circuits to "any nonzero entry".  About 6.5
million uniform 4x4 matrices are ranked per second on one core this way (a
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
        # Rank is invariant under transpose; with rows <= cols the loop stops
        # as soon as every matrix reaches full row rank.
        a = a.transpose(0, 2, 1)
        rows, cols = cols, rows
    if rows == 1 or count == 0:
        return a.any(axis=(1, 2)).astype(np.int64)
    # A private uint8 copy laid out (cols, rows, count): entry (r, c) of every
    # matrix is one contiguous run, so each step below loops along count.
    a = a.transpose(2, 1, 0).astype(np.uint8, order="C")
    rank = np.zeros(count, dtype=np.min_scalar_type(rows))
    # Row r weighs rows - r, so the heaviest nonzero entry of a column is
    # its first nonzero one.
    weight = np.arange(rows, 0, -1, dtype=rank.dtype)[:, None]
    key = np.empty((rows, count), dtype=rank.dtype)
    # Trailing columns are cleared `group` at a time, enough to fill 2^15
    # entries when the matrices are large and few.  The product-table
    # indices are built in an intp buffer, as np.take copies any other index
    # type into a temporary intp array.
    group = max(1, (1 << 15) // (rows * count))
    index = np.empty((group, rows, count), dtype=np.intp)
    product = np.empty((group, rows, count), dtype=np.uint8)
    # A stack of few matrices, or of matrices with many rows, reads the
    # pivot row with one gather along the stack: a masked reduction over
    # rows would run numpy inner loops only `count` long.  A stack of many
    # small matrices keeps the masked reduction, which wins there.
    gather = count < 256 or rows > 32
    stack = np.arange(count) if gather else None
    for col in range(cols):
        # A row that was a pivot is zero in every later column (see below),
        # so the first nonzero entry of the column is the first unused one.
        column = a[col]
        np.multiply(column != 0, weight, out=key)
        top = key.max(axis=0)
        rank += top != 0
        if col + 1 == cols or rank.min() == rows:
            break
        # Read the pivot and the pivot row's trailing entries, by a gather or
        # under the pivot's one-hot mask, and scale those entries by the
        # pivot's inverse.  Then subtract column col's multiple of that row
        # from every row, the pivot row included, which clears it.  A matrix
        # without a pivot here has a zero column: its pivot reads 0, whose
        # inverse is 0, so nothing changes.
        trailing = a[col + 1 :]
        if gather:
            # Row rows - top holds the pivot.  A zero column (top = 0) reads
            # row 0, which is zero there too.
            pivot_row = (rows - top.astype(np.intp)) % rows
            pivot = column[pivot_row, stack]
            scaled = trailing[:, pivot_row, stack].astype(np.intp)
        else:
            mask = (key == top).view(np.uint8) * np.uint8(0xFF)
            pivot = np.bitwise_or.reduce(column & mask, axis=0)
            scaled = np.bitwise_or.reduce(trailing & mask, axis=1).astype(np.intp)
        scaled |= GF_INV.take(pivot) << 8
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
