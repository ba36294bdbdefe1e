"""Periodic phase structure of aggregating batches of M packets, N per frame.

Batches are sent sequentially, so the stream of BNC packets is periodic with
period lcm(M, N).  The "phase" of a frame is the number of packets of its
leading batch it carries.  The helpers here enumerate phases, the valid
(s, k) lineages of full-batch frames when M > N, and the way each batch's M
packets are split into groups by the frame boundaries, in closed form by
the offset law (``batch_lineages``).  The exhaustive oracle walks the
packets instead, so a fault in the law shows as a gap between the two.
"""

from __future__ import annotations

import math

from .params import PhaseError, positive_int


def phase_sequence(m: int, n: int) -> list[int]:
    """Leading-batch packet count of every frame in one lcm(M, N) period."""
    m, n = _check_mn(m, n)
    phases = []
    for start in range(0, math.lcm(m, n), n):
        left = m - start % m  # packets of the leading batch not yet sent
        phases.append(left if left < n else n)  # min() costs a call per frame
    return phases


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
    return [
        (s, k) for s in range(0, min(m - n, n - g) + 1, g) for k in range((m - s) // n)
    ]


def batch_lineages(m: int, n: int) -> list[tuple[int, ...]]:
    """Group sizes of each batch in one period, split by frame boundaries.

    Returns one tuple per batch (lcm(M, N) / M = N / gcd(M, N) of them); the
    entries are the packet counts the batch contributes to consecutive frames
    and sum to M.  By the offset law, batch b starts at offset o = b * M mod N
    of its first frame, puts min(N - o, M) packets there, fills whole frames
    of N, and puts the rest in one more frame.
    """
    m, n = _check_mn(m, n)
    lineages = []
    for b in range(n // math.gcd(m, n)):
        first = min(n - b * m % n, m)
        fulls, rest = divmod(m - first, n)
        lineages.append((first,) + (n,) * fulls + ((rest,) if rest else ()))
    return lineages


def _check_mn(m: int, n: int) -> tuple[int, int]:
    return positive_int(m, "batch size"), positive_int(n)
