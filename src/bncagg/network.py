"""Hop-by-hop rank distribution evolution on a line network.

Each node re-chunks its outgoing stream into its own (M, N) period starting
at phase 0, so a batch's next-hop rank depends only on its own group split.
A batch of rank r that receives j packets leaves with rank min(j, r), so one
hop is the (M + 1) x (M + 1) transition matrix built from pi_N, row N - 1
of the model's cached reception table.  Batches that fall to rank 0 stay in the
pipeline (they still cost bytes); their mass is tracked in a separate bucket
and the per-hop efficiency is scaled by the probability of rank >= 1.

Each hop's N has one owner, ``NodeStrategy.choose``, which this network and
``oracle.simulate_end_to_end`` both call.  Both resolve the line's context
once, before the first hop (``frame._resolve``: the model's cached plan,
with rows N = 1..n_max).  At each hop ``choose`` normalizes the incoming rank
masses, scans them against that plan (``frame._scan``, the arithmetic of
``optimize_n``) and lets the strategy pick N from the profile, so no hop
builds a context or looks up a plan.  The transition depends on the ranks
only through N; ``frame._transition`` builds it on first use and keeps it,
read-only, in the same plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frame import (
    AggregationContext,
    EfficiencyProfile,
    _resolve,
    _scan,
    _ScanPlan,
    _transition,
    lineage_reception_pmf,
)
from .params import ParameterError, RankDistribution, positive_int

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
        if self.kind == FIXED:
            object.__setattr__(self, "n", positive_int(self.n, "fixed N"))

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
        """N for a node whose scan gave ``profile``."""
        if self.kind == OPTIMAL:
            return profile.best_n
        if self.kind == LARGEST:
            return profile.n_max
        profile.value(self.n)  # raises InfeasibleError past n_max, as E and pi_N do
        return self.n

    def choose(
        self, hop: int, masses: np.ndarray, plan: _ScanPlan
    ) -> tuple[RankDistribution, EfficiencyProfile, int]:
        """(incoming ranks, scan profile, N) at ``hop``; ``masses`` weigh ranks 1..M.

        ``plan`` is the line's context resolved once (``frame._resolve``).
        """
        try:  # all-zero masses raise here, so a live hop makes no extra pass
            ranks = RankDistribution.from_masses(masses)
        except ParameterError:
            if masses.any():  # some other fault, such as a NaN mass
                raise
            raise ParameterError(f"population extinct before hop {hop}") from None
        profile = _scan(plan, ranks)
        return ranks, profile, self.select(profile)

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
    hops = positive_int(hops, "hops")
    plan = _resolve(ctx)
    m = ctx.code.batch_size
    full = np.zeros(m + 1)
    full[m] = 1.0
    records = []
    for hop in range(1, hops + 1):
        ranks, profile, n = strategy.choose(hop, full[1:], plan)
        delivered = float(full[1:].sum())
        eff = delivered * profile.value(n)
        records.append(HopRecord(hop, n, ranks, delivered, eff))
        full = _evolve_full(full, n, plan)
    return HopTrace(tuple(records))


def _evolve_full(full: np.ndarray, n: int, plan: _ScanPlan) -> np.ndarray:
    """Push a distribution over ranks 0..M through one lossy hop."""
    out = full @ _transition(n, plan)
    # Guard against accumulated round-off; the mass is conserved analytically.
    total = out.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        # A broken invariant of the model, not a bad input.
        raise RuntimeError(
            f"evolved distribution at N={n} lost mass: total {total!r}, expected 1"
        )
    return out / total
