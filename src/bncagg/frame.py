"""Frame sizing, expected rank increment per frame, and the optimizer over N.

The model core is the lineage reception pmf pi_N: the frame boundaries split
each batch of a period into groups, each group rides its own frame, and
pi_N[j] is the probability that a batch gets j of its M packets through,
averaged over the batches of the period.  ``phases.batch_lineages`` states
the split by the offset law (batch b starts at offset b * M mod N of a
frame), so building a row costs one tuple per batch, not a packet walk.  The
expected rank increment E a frame adds at the next node, given the frame's
own header arrives, follows from pi_N in one dot product, and frame
efficiency is d * K * E / S(N).

pi_N depends on (M, N, f, d) but not on the rank distribution, so the
model keeps one read-only plan per (M, n_max, f, d, S(1), packet size, K):
each context has exactly one, with rows N = 1..n_max, and E, pi_N and
efficiency are defined on those N only.  A plan holds the reception table
(row N - 1 is pi_N), the factors N / M, the frame sizes S(N), the
min(j, r) matrix behind e, d and d * K, and the hop transitions that a line
network asks for, each built once (``_transition``).  E for every N is one
product of the plan's table with e, and a scan is one argmax.  A scan has
two halves: ``_resolve`` returns the context's plan, all that does not
depend on its ranks, and ``_scan`` turns a rank distribution into the
efficiency profile against it; ``optimize_n`` runs both.  A line network
resolves its context once and scans each hop's ranks, so a hop builds no
context and looks up no plan, and pays only for its arithmetic.  The plan
cache is the model's only state, and only ``_resolve`` keys it.
The paper's phase-average terms (beta, gamma, omega) compute the same E
frame by frame; they live in ``tests/reference.py`` and the tests hold this
module to them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import (
    ChannelParams,
    CodeParams,
    InfeasibleError,
    ParameterError,
    RankDistribution,
    positive_int,
    probability,
)
from .phases import batch_lineages
from .probability import (
    ber_from_plr,
    bin_d_pmf,
    bnc_packet_survival,
    header_survival,
)

# Bound on the cached plans, one per context.  At M = 32, K = 64 (n_max = 89
# rows) a plan's table takes 23 KiB, its min(j, r) matrix 8.3 KiB and each of
# its transitions 8.5 KiB.  A line network builds one transition per distinct N
# it picks (at most two per plan in the README figures); at two per plan a
# full cache stays near 6 MiB there.  The worst case is one per row: 790 KiB
# per plan, 98 MiB for a full cache.
_PMF_CACHE_SIZE = 128


@dataclass(frozen=True)
class AggregationContext:
    """Channel, code and rank distribution with the derived d, f cached."""

    channel: ChannelParams
    code: CodeParams
    rank_dist: RankDistribution
    d: float
    f: float

    def __post_init__(self) -> None:
        if self.rank_dist.batch_size != self.code.batch_size:
            raise ParameterError(
                "rank distribution has batch size"
                f" {self.rank_dist.batch_size}, code has {self.code.batch_size}"
            )
        probability(self.d, "header survival")
        probability(self.f, "packet survival")

    @classmethod
    def build(
        cls,
        channel: ChannelParams,
        code: CodeParams,
        rank_dist: RankDistribution | None = None,
    ) -> "AggregationContext":
        """Derive d, f from the channel loss model and the code via the BER p."""
        if rank_dist is None:
            rank_dist = RankDistribution.degenerate(code.batch_size)
        p = ber_from_plr(channel.baseline_plr, channel, code)
        return cls(
            channel=channel,
            code=code,
            rank_dist=rank_dist,
            d=header_survival(p, channel),
            f=bnc_packet_survival(p, code),
        )

    def with_rank_dist(self, rank_dist: RankDistribution) -> "AggregationContext":
        return AggregationContext(self.channel, self.code, rank_dist, self.d, self.f)


@dataclass(frozen=True)
class EfficiencyProfile:
    """Frame efficiency for every feasible N, plus the argmax."""

    n_max: int
    efficiency: tuple[float, ...]
    best_n: int

    def value(self, n: int) -> float:
        return self.efficiency[_row(n, self.n_max)]


def frame_size(n: int, channel: ChannelParams, code: CodeParams) -> int:
    """Bytes on the wire for a frame aggregating n BNC packets."""
    n = positive_int(n)
    return (
        channel.proto_header
        + channel.dl_header
        + channel.dl_trailer
        + n * code.packet_size
    )


def max_feasible_n(channel: ChannelParams, code: CodeParams) -> int:
    """Largest n with proto_header + n * packet_size <= max_payload."""
    n = (channel.max_payload - channel.proto_header) // code.packet_size
    if n < 1:
        raise InfeasibleError(
            f"no feasible aggregation count: payload {channel.max_payload} too"
            f" small for one {code.packet_size}-byte BNC packet"
        )
    return n


def expected_rank_increment(n: int, ctx: AggregationContext) -> float:
    """Per-frame expected rank increment E, averaged over the phase period.

    Conditioned on the frame's own header arriving.  A period of lcm(M, N)
    packets holds lcm / M batches and lcm / N frames, so
    E = (N / M) * sum_j pi_N[j] * e[j] / d, where pi_N is the lineage
    reception pmf and e[j] = E_r[min(j, r)].
    """
    if ctx.d <= 0.0:
        raise ParameterError("header survival is zero; E is undefined")
    plan = _resolve(ctx)
    return float(_increments(plan, ctx.rank_dist)[_row(n, plan.sizes.size)])


def lineage_reception_pmf(n: int, ctx: AggregationContext) -> np.ndarray:
    """PMF pi_N of packets received per batch, averaged over the batch lineages.

    Entry j is the probability that a batch gets j of its M packets through,
    with header loss (probability 1 - d per frame) and per-packet loss folded
    in; independent across the groups of one batch since they ride distinct
    frames.  The array is row N - 1 of the context's cached reception table,
    shared by every caller: it is read-only.
    """
    plan = _resolve(ctx)
    return plan.table[_row(n, plan.sizes.size)]


def frame_efficiency(n: int, ctx: AggregationContext) -> float:
    """Expected useful payload bytes per byte sent, d * K * E / S(N).

    The entry for N of the ``optimize_n`` scan, so the two always agree.
    """
    return optimize_n(ctx)[1].value(n)


def optimize_n(ctx: AggregationContext) -> tuple[int, EfficiencyProfile]:
    """Exhaustive scan over feasible N; ties break toward the smallest N."""
    profile = _scan(_resolve(ctx), ctx.rank_dist)
    return profile.best_n, profile


def _row(n: int, n_max: int) -> int:
    """The row of N in a plan or profile: E, pi_N and efficiency share 1..n_max."""
    n = positive_int(n)
    if n > n_max:
        raise InfeasibleError(f"N={n} outside 1..{n_max}")
    return n - 1


def _increments(plan: _ScanPlan, ranks: RankDistribution) -> np.ndarray:
    """E for every row of the plan: one product of its table with e.

    e[j] = E_r[min(j, r)] under the rank distribution ``ranks``, j = 0..M.
    """
    e = plan.mins @ np.asarray(ranks.masses)
    return plan.scale * (plan.table @ e) / plan.d


class _ScanPlan(NamedTuple):
    """The model state of one (M, n_max, f, d, S(1), packet size, K).

    The arrays are read-only; ``transitions`` maps N to its hop transition
    and is filled only by :func:`_transition`.
    """

    table: np.ndarray  # the reception table, row N - 1 holding pi_N
    scale: np.ndarray  # N / M for each row
    sizes: np.ndarray  # frame size S(N) in bytes for each row
    mins: np.ndarray  # mins[j, r - 1] = min(j, r), floats so e casts nothing
    transitions: dict[int, np.ndarray]
    d: float
    dk: float  # d * K


@functools.lru_cache(maxsize=_PMF_CACHE_SIZE)
def _scan_plan(
    m: int, n_max: int, f: float, d: float, s1: int, step: int, k: int
) -> _ScanPlan:
    groups = {
        size: np.array([bin_d_pmf(i, size, f, d) for i in range(size + 1)])
        for size in range(1, min(m, n_max) + 1)
    }

    @functools.cache  # the same lineage recurs at many N
    def lineage_pmf(sizes: tuple[int, ...]) -> np.ndarray:
        return functools.reduce(np.convolve, (groups[s] for s in sizes), np.ones(1))

    table = np.zeros((n_max, m + 1))
    for n, row in enumerate(table, start=1):
        lineages = batch_lineages(m, n)
        for sizes in lineages:
            row += lineage_pmf(sizes)
        row /= len(lineages)
    scale = np.arange(1, n_max + 1) / m
    sizes = s1 + np.arange(n_max) * step
    mins = np.minimum.outer(np.arange(m + 1.0), np.arange(1.0, m + 1))
    for array in (table, scale, sizes, mins):
        array.flags.writeable = False
    return _ScanPlan(table, scale, sizes, mins, {}, d, d * k)


def _transition(n: int, plan: _ScanPlan) -> np.ndarray:
    """T[r, k] = P(next-hop rank k | rank r): pi_N[k] below r, its tail at r.

    Built the first time a hop asks for it and kept in the plan, so every
    hop with the same plan and N shares it: read-only.  N is at most the
    plan's n_max.
    """
    t = plan.transitions.get(n)
    if t is None:
        pmf = plan.table[n - 1]
        tails = np.cumsum(pmf[::-1])[::-1]
        t = np.tril(np.tile(pmf, (pmf.size, 1)), k=-1)
        np.fill_diagonal(t, tails)
        t.flags.writeable = False
        plan.transitions[n] = t
    return t


def _resolve(ctx: AggregationContext) -> _ScanPlan:
    """The context's plan with rows N = 1..n_max: all a scan needs but ranks.

    A line network resolves its context once and scans each hop's ranks
    against the plan, so a hop looks up no plan and builds no context.
    """
    code = ctx.code
    n_max = max_feasible_n(ctx.channel, code)
    s1 = frame_size(1, ctx.channel, code)
    return _scan_plan(
        code.batch_size, n_max, ctx.f, ctx.d, s1, code.packet_size, code.payload
    )


def _scan(plan: _ScanPlan, ranks: RankDistribution) -> EfficiencyProfile:
    """Efficiency d * K * E(N) / S(N) under ``ranks``; ``plan`` is resolved."""
    n_max = plan.sizes.size
    if plan.d <= 0.0:
        values = np.zeros(n_max)  # no header arrives, so no payload byte is useful
    else:
        values = plan.dk * _increments(plan, ranks) / plan.sizes
    best = int(values.argmax()) + 1
    return EfficiencyProfile(n_max, tuple(values.tolist()), best)
