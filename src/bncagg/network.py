"""Hop-by-hop rank distribution evolution on a line network.

Each node re-chunks its outgoing stream into its own (M, N) period starting
at phase 0, so a batch's next-hop rank depends only on its own group split.
A batch of rank r that receives j packets leaves with rank min(j, r), so one
hop is the (M + 1) x (M + 1) transition matrix built from pi_N, row N - 1
of the model's cached reception table.  Batches that fall to rank 0 stay in the
pipeline (they still cost bytes); their mass is tracked in a separate bucket
and the per-hop efficiency is scaled by the probability of rank >= 1.

Each hop runs one ``optimize_n`` scan under its incoming rank distribution:
the strategy picks N from the scan's profile and the hop records the
profile's entry for that N.  The scan reads the model's cached scan plan
(the reception table, N / M and the frame sizes S(N)), so a warm hop pays
for the product with its own rank distribution and little else.  The
transition depends on the rank distribution only through N, so it is cached
read-only per reception table and N, and built the first time a hop asks
for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .frame import (
    AggregationContext,
    EfficiencyProfile,
    _reception_table,
    _table_key,
    lineage_reception_pmf,
    optimize_n,
)
from .params import InfeasibleError, ParameterError, RankDistribution

# Bound on the cached hop transitions.  One holds (M + 1)^2 floats, 8.5 KiB
# at M = 32, so a full cache stays near 1 MiB there.  A line network reads
# one per distinct N it picks.
_TRANSITION_CACHE_SIZE = 128

OPTIMAL = "optimal"
LARGEST = "largest"
FIXED = "fixed"


@dataclass(frozen=True)
class NodeStrategy:
    """How each node picks its aggregation count from local batch statistics."""

    kind: str
    n: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (OPTIMAL, LARGEST, FIXED):
            raise ParameterError(f"unknown strategy kind {self.kind!r}")
        if (self.kind == FIXED) != (self.n is not None):
            raise ParameterError("fixed strategies need n, others must not set it")
        if self.kind == FIXED and self.n < 1:
            raise ParameterError(f"fixed N must be >= 1, got {self.n!r}")

    @classmethod
    def optimal(cls) -> "NodeStrategy":
        return cls(OPTIMAL)

    @classmethod
    def largest(cls) -> "NodeStrategy":
        return cls(LARGEST)

    @classmethod
    def fixed(cls, n: int) -> "NodeStrategy":
        return cls(FIXED, n)

    def select(self, profile: EfficiencyProfile) -> int:
        """N for a node whose ``optimize_n`` scan gave ``profile``."""
        if self.kind == OPTIMAL:
            return profile.best_n
        if self.kind == LARGEST:
            return profile.n_max
        if self.n > profile.n_max:
            raise InfeasibleError(f"fixed N={self.n} is not feasible")
        return self.n

    def label(self) -> str:
        return f"fixed{self.n}" if self.kind == FIXED else self.kind


@dataclass(frozen=True)
class HopRecord:
    """State of one hop: chosen N, incoming ranks, throughput per byte."""

    hop: int
    n: int
    rank_dist: RankDistribution
    delivered: float
    efficiency: float


@dataclass(frozen=True)
class HopTrace:
    records: tuple[HopRecord, ...]

    def efficiencies(self) -> list[float]:
        return [rec.efficiency for rec in self.records]


# No package path calls this; bench/tracer.py keys a span by its name (KEYED).
def aggregate_reception_pmf(n: int, ctx: AggregationContext) -> np.ndarray:
    """PMF of packets received per batch, averaged over the batch lineages.

    A writable copy of the model's cached pi_N; see
    :func:`bncagg.frame.lineage_reception_pmf`.
    """
    return lineage_reception_pmf(n, ctx).copy()


def simulate_line_network(
    hops: int, strategy: NodeStrategy, ctx: AggregationContext
) -> HopTrace:
    """Trace throughput per byte across ``hops`` links of a line network.

    The source holds full-rank batches.  At each hop the node selects N from
    the exact evolved distribution, the throughput is recorded, and the
    distribution is pushed through the link.  Recoding restores every batch
    to M outgoing packets, so the loss model is identical at every hop.
    """
    if hops < 1:
        raise ParameterError(f"hops must be >= 1, got {hops!r}")
    m = ctx.code.batch_size
    full = np.zeros(m + 1)
    full[m] = 1.0
    records = []
    for hop in range(1, hops + 1):
        delivered = float(full[1:].sum())
        if delivered == 0.0:  # every batch fell to rank 0, or its mass underflowed
            raise ParameterError(f"population extinct before hop {hop}")
        cond = RankDistribution.from_masses(full[1:])
        local = ctx.with_rank_dist(cond)
        profile = optimize_n(local)[1]
        n = strategy.select(profile)
        eff = delivered * profile.value(n)
        records.append(
            HopRecord(
                hop=hop, n=n, rank_dist=cond, delivered=delivered, efficiency=eff
            )
        )
        full = _evolve_full(full, n, local)
    return HopTrace(tuple(records))


def _transition_matrix(n: int, ctx: AggregationContext) -> np.ndarray:
    """T[r, k] = P(next-hop rank k | rank r): pi_N[k] below r, its tail at r.

    Shared by every hop with the same reception table and N: read-only.
    """
    return _transition(*_table_key(ctx, n), n)


@functools.lru_cache(maxsize=_TRANSITION_CACHE_SIZE)
def _transition(m: int, rows: int, f: float, d: float, n: int) -> np.ndarray:
    pmf = _reception_table(m, rows, f, d)[n - 1]
    tails = np.cumsum(pmf[::-1])[::-1]
    t = np.tril(np.tile(pmf, (pmf.size, 1)), k=-1)
    np.fill_diagonal(t, tails)
    t.flags.writeable = False
    return t


def _evolve_full(full: np.ndarray, n: int, ctx: AggregationContext) -> np.ndarray:
    """Push a distribution over ranks 0..M through one lossy hop."""
    out = full @ _transition_matrix(n, ctx)
    # Guard against accumulated round-off; the mass is conserved analytically.
    total = out.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        # A broken invariant of the model, not a bad input.
        raise RuntimeError(
            f"evolved distribution at N={n} lost mass: total {total!r}, expected 1"
        )
    return out / total
