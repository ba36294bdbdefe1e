"""Periodic phase structure of aggregating batches of M packets, N per frame.

Batches are sent sequentially, so the stream of BNC packets is periodic with
period lcm(M, N).  The "phase" of a frame is the number of packets of its
leading batch it carries.  The helpers here enumerate phases, the valid
(s, k) lineages of full-batch frames when M > N, and the way each batch's M
packets are split into groups by the frame boundaries.
"""

from __future__ import annotations

import math

from .params import PhaseError, positive_int


def phase_sequence(m: int, n: int) -> list[int]:
    """Leading-batch packet count of every frame in one lcm(M, N) period."""
    m, n = _check_mn(m, n)
    period = math.lcm(m, n)
    phases = []
    for u in range(period // n):
        start = u * n
        batch = start // m
        phases.append(min((batch + 1) * m, start + n) - start)
    return phases


def case_i_phases(m: int, n: int) -> list[int]:
    """Phase values for M <= N: each multiple of g up to M, once per period."""
    m, n = _check_mn(m, n)
    if m > n:
        raise PhaseError(f"case I needs M <= N, got M={m}, N={n}")
    g = math.gcd(m, n)
    return list(range(g, m + 1, g))


def case_ii_partial_phases(m: int, n: int) -> list[int]:
    """Phase values below N for M > N: multiples of g up to N - g."""
    m, n = _check_mn(m, n)
    if m <= n:
        raise PhaseError(f"case II needs M > N, got M={m}, N={n}")
    g = math.gcd(m, n)
    return list(range(g, n - g + 1, g))


def case_ii_sk_pairs(m: int, n: int) -> list[tuple[int, int]]:
    """Valid (s, k) lineages of the full-batch frames when M > N.

    ``s`` is the packet count of the batch's first, partial frame (0 when the
    batch starts a frame) and ``k`` the number of earlier frames it filled
    completely.  ``s`` runs over multiples of g up to min(M - N, N - g) and k
    up to floor((M - s) / N) - 1.
    """
    m, n = _check_mn(m, n)
    if m <= n:
        raise PhaseError(f"case II needs M > N, got M={m}, N={n}")
    g = math.gcd(m, n)
    pairs = []
    for s in range(0, min(m - n, n - g) + 1, g):
        for k in range((m - s) // n):
            pairs.append((s, k))
    return pairs


def batch_lineages(m: int, n: int) -> list[tuple[int, ...]]:
    """Group sizes of each batch in one period, split by frame boundaries.

    Returns one tuple per batch (lcm(M, N) / M of them); the entries are the
    packet counts the batch contributes to consecutive frames and sum to M.
    """
    m, n = _check_mn(m, n)
    period = math.lcm(m, n)
    lineages = []
    for b in range(period // m):
        start, end = b * m, (b + 1) * m
        groups = []
        pos = start
        while pos < end:
            frame_end = (pos // n + 1) * n
            nxt = min(end, frame_end)
            groups.append(nxt - pos)
            pos = nxt
        lineages.append(tuple(groups))
    return lineages


def _check_mn(m: int, n: int) -> tuple[int, int]:
    return positive_int(m, "batch size"), positive_int(n)
