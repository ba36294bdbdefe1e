"""Hop-by-hop rank distribution evolution on a line network.

Each node re-chunks its outgoing stream into its own (M, N) period starting
at phase 0, so a batch's next-hop rank depends only on its own group split.
A batch of rank r that receives j packets leaves with rank min(j, r), so one
hop is the (M + 1) x (M + 1) transition matrix built from pi_N, row N - 1
of the model's cached reception table.  Batches that fall to rank 0 stay in the
pipeline (they still cost bytes); their mass is tracked in a separate bucket
and the per-hop efficiency is scaled by the probability of rank >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frame import (
    AggregationContext,
    frame_efficiency,
    lineage_reception_pmf,
    max_feasible_n,
    optimize_n,
)
from .params import InfeasibleError, ParameterError, RankDistribution

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

    def select(self, ctx: AggregationContext) -> int:
        if self.kind == OPTIMAL:
            return optimize_n(ctx)[0]
        if self.kind == LARGEST:
            return max_feasible_n(ctx.channel, ctx.code)
        if self.n > max_feasible_n(ctx.channel, ctx.code):
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
        cond = RankDistribution.from_masses(full[1:])
        local = ctx.with_rank_dist(cond)
        n = strategy.select(local)
        eff = delivered * frame_efficiency(n, local)
        records.append(
            HopRecord(
                hop=hop, n=n, rank_dist=cond, delivered=delivered, efficiency=eff
            )
        )
        full = _evolve_full(full, n, local)
    return HopTrace(tuple(records))


def _transition_matrix(n: int, ctx: AggregationContext) -> np.ndarray:
    """T[r, k] = P(next-hop rank k | rank r): pi_N[k] below r, its tail at r."""
    pmf = lineage_reception_pmf(n, ctx)
    tails = np.cumsum(pmf[::-1])[::-1]
    t = np.tril(np.tile(pmf, (pmf.size, 1)), k=-1)
    np.fill_diagonal(t, tails)
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
