"""Brute-force oracles used by the tests.

Everything here enumerates reception outcomes bit by bit, or does GF(256)
arithmetic by shift and add, and shares no code with the implementation it
checks.  The exceptions are ``scan_reference``, which evaluates the scan
formula inline from pi_N, and ``line_network_reference``, which rebuilds a
line network hop by hop from pi_N and ``scan_reference``, without the hop
caches or the scan plan, so that the cached hop loop and the cached scan
plan can be held to them float for float.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from bncagg import (
    AggregationContext,
    ChannelParams,
    CodeParams,
    EfficiencyProfile,
    RankDistribution,
    frame_size,
    max_feasible_n,
)
from bncagg.frame import lineage_reception_pmf
from bncagg.network import HopRecord


def make_ctx(
    m: int,
    f: float,
    d: float,
    hbar: RankDistribution | None = None,
    payload: int = 64,
    plr: float = 0.1,
    mtu: int = 9000,
) -> AggregationContext:
    """Context with the survival probabilities pinned to given values."""
    channel = ChannelParams(max_payload=mtu, baseline_plr=plr)
    code = CodeParams(batch_size=m, payload=payload, bnc_header=m + 2, integrity=2)
    if hbar is None:
        hbar = RankDistribution.degenerate(m)
    ctx = AggregationContext.build(channel, code, hbar)
    return dataclasses.replace(ctx, f=f, d=d)


def enum_group_counts(sizes, f, d, with_header):
    """Yield (probability, received counts per group) over every outcome.

    ``with_header[i]`` says whether group i rides its own frame header (lost
    entirely with probability 1 - d).
    """
    per_group = []
    for size, headed in zip(sizes, with_header):
        outcomes = {}
        for bits in itertools.product((0, 1), repeat=size):
            got = sum(bits)
            w = f**got * (1.0 - f) ** (size - got)
            outcomes[got] = outcomes.get(got, 0.0) + w
        if headed:
            scaled = {k: d * w for k, w in outcomes.items()}
            scaled[0] = scaled.get(0.0, 0.0) + (1.0 - d)
            outcomes = scaled
        per_group.append(sorted(outcomes.items()))
    for combo in itertools.product(*per_group):
        prob = 1.0
        counts = []
        for got, w in combo:
            prob *= w
            counts.append(got)
        yield prob, counts


def expected_increment(prior_sizes, current, ctx) -> float:
    """E over ranks of the increment from the current group of a split batch.

    Prior groups carry their own headers; the current group's frame is
    conditioned delivered.
    """
    hbar = ctx.rank_dist.masses
    sizes = list(prior_sizes) + [current]
    headed = [True] * len(prior_sizes) + [False]
    total = 0.0
    for prob, counts in enum_group_counts(sizes, ctx.f, ctx.d, headed):
        j = counts[-1]
        prior = sum(counts[:-1])
        total += prob * sum(
            hbar[r - 1] * max(min(j, r - prior), 0)
            for r in range(1, len(hbar) + 1)
        )
    return total


def batch_increment_unconditional(groups, ctx) -> float:
    """E over ranks of min(total received, r); every group headed."""
    hbar = ctx.rank_dist.masses
    total = 0.0
    for prob, counts in enum_group_counts(
        list(groups), ctx.f, ctx.d, [True] * len(groups)
    ):
        j = sum(counts)
        total += prob * sum(
            hbar[r - 1] * min(j, r) for r in range(1, len(hbar) + 1)
        )
    return total


def _split_batches(m: int, n: int) -> list[list[int]]:
    """Group sizes of each batch of one lcm(M, N) period, N packets a frame.

    A loop of its own, so that the enumerations below do not rely on
    ``phases.batch_lineages``.
    """
    lineages = []
    for b in range(math.lcm(m, n) // m):
        start, end = b * m, (b + 1) * m
        groups = []
        pos = start
        while pos < end:
            nxt = min(end, (pos // n + 1) * n)
            groups.append(nxt - pos)
            pos = nxt
        lineages.append(groups)
    return lineages


def period_expected_increment(n: int, ctx) -> float:
    """Exact per-frame E (conditioned on own header) by full enumeration."""
    m = ctx.code.batch_size
    total = 0.0
    for groups in _split_batches(m, n):
        total += batch_increment_unconditional(groups, ctx)
    return total / ((math.lcm(m, n) // n) * ctx.d)


def reception_pmf_bruteforce(r: int, n: int, ctx) -> list[float]:
    """Distribution of min(received, r) for a rank-r batch, over lineages."""
    lineages = _split_batches(ctx.code.batch_size, n)
    pmf = [0.0] * (r + 1)
    for groups in lineages:
        for prob, counts in enum_group_counts(
            groups, ctx.f, ctx.d, [True] * len(groups)
        ):
            pmf[min(sum(counts), r)] += prob / len(lineages)
    return pmf


def line_network_reference(hops: int, strategy, ctx) -> list:
    """Hop records of a line network, rebuilt per hop with no cached state.

    Each hop picks N from the context as the strategy kinds define it, reads
    its efficiency from ``scan_reference`` (the scan formula evaluated
    inline, without the cached scan plan), and builds the transition afresh
    from pi_N: pi_N[k] below the diagonal of row r, the tail sum of pi_N on
    it.
    """
    m = ctx.code.batch_size
    full = np.zeros(m + 1)
    full[m] = 1.0
    records = []
    for hop in range(1, hops + 1):
        delivered = float(full[1:].sum())
        cond = RankDistribution.from_masses(full[1:])
        local = ctx.with_rank_dist(cond)
        best, profile = scan_reference(local)
        if strategy.kind == "optimal":
            n = best
        elif strategy.kind == "largest":
            n = max_feasible_n(local.channel, local.code)
        else:
            n = strategy.n
        eff = delivered * profile.value(n)
        records.append(HopRecord(hop, n, cond, delivered, eff))
        pmf = lineage_reception_pmf(n, local)
        tails = np.cumsum(pmf[::-1])[::-1]
        t = np.tril(np.tile(pmf, (pmf.size, 1)), k=-1)
        np.fill_diagonal(t, tails)
        out = full @ t
        full = out / out.sum()
    return records


def scan_reference(ctx) -> tuple:
    """``optimize_n`` evaluated inline, with no cached plan or min matrix.

    E(N) = (N / M) * (pi_N . e) / d with e[j] = sum_r hbar_r * min(j, r), and
    efficiency d * K * E(N) / S(N), in that order of float operations.
    """
    m = ctx.code.batch_size
    n_max = max_feasible_n(ctx.channel, ctx.code)
    table = np.array([lineage_reception_pmf(n, ctx) for n in range(1, n_max + 1)])
    mins = np.minimum.outer(np.arange(m + 1), np.arange(1, m + 1))
    e = mins @ np.asarray(ctx.rank_dist.masses)
    ns = np.arange(1, n_max + 1)
    increments = ns / m * (table @ e) / ctx.d
    step = ctx.code.packet_size
    sizes = frame_size(1, ctx.channel, ctx.code) + np.arange(n_max) * step
    values = ctx.d * ctx.code.payload * increments / sizes
    best = int(np.argmax(values)) + 1
    return best, EfficiencyProfile(n_max, tuple(values.tolist()), best)


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over the prime field GF(p), by elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                factor = rows[i][c] * inv % p
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_pmf_bruteforce(j: int, r: int, p: int) -> list[float]:
    """Rank law of a uniform j x r matrix over GF(p), by listing every matrix."""
    counts = [0] * (min(j, r) + 1)
    for entries in itertools.product(range(p), repeat=j * r):
        counts[rank_mod_p([entries[i * r : (i + 1) * r] for i in range(j)], p)] += 1
    return [c / p ** (j * r) for c in counts]


def gf256_mul_slow(a: int, b: int) -> int:
    """Product in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1, by shift and add."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
    return product


def gf256_inv_slow(a: int) -> int:
    """Inverse in GF(256) as a^254, by square and multiply."""
    result, power, exponent = 1, a, 254
    while exponent:
        if exponent & 1:
            result = gf256_mul_slow(result, power)
        power = gf256_mul_slow(power, power)
        exponent >>= 1
    return result


def gf256_rank_slow(rows) -> int:
    """Rank of a matrix over GF(256) by textbook Gaussian elimination."""
    rows = [[int(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = gf256_inv_slow(rows[rank][c])
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                factor = gf256_mul_slow(rows[i][c], inv)
                rows[i] = [x ^ gf256_mul_slow(factor, y) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@functools.cache
def gf256_mul_table_slow() -> np.ndarray:
    """mul[x, y] = x * y in GF(256) for every pair, by shift and add."""
    return np.array(
        [[gf256_mul_slow(x, y) for y in range(256)] for x in range(256)],
        dtype=np.uint8,
    )


def gf256_rank_rows(matrix) -> int:
    """Rank over GF(256) by Gaussian elimination with row swaps.

    Textbook elimination like ``gf256_rank_slow``, but each row operation
    covers a whole row at once through the shift-and-add product table, so
    that matrices with hundreds of rows take milliseconds.
    """
    mul = gf256_mul_table_slow()
    rows = np.array(matrix, dtype=np.uint8)
    rank = 0
    for c in range(rows.shape[1]):
        nonzero = np.flatnonzero(rows[rank:, c])
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        rows[[rank, pivot]] = rows[[pivot, rank]]
        unit_row = mul[gf256_inv_slow(int(rows[rank, c]))][rows[rank]]
        below = rows[rank + 1 :]
        below ^= mul[below[:, c][:, None], unit_row[None, :]]
        rank += 1
        if rank == rows.shape[0]:
            break
    return rank
