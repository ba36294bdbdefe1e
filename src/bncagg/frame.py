"""Frame sizing, expected rank increment per frame, and the optimizer over N.

The model core is the lineage reception pmf pi_N: the frame boundaries split
each batch of a period into groups (``phases.batch_lineages``), each group
rides its own frame, and pi_N[j] is the probability that a batch gets j of
its M packets through, averaged over the batches of the period.  The
expected rank increment E a frame adds at the next node, given the frame's
own header arrives, follows from pi_N in one dot product, and frame
efficiency is d * K * E / S(N).

pi_N depends on (M, N, f, d) but not on the rank distribution, so one
read-only table per (M, n_max, f, d) is cached, row N - 1 holding pi_N (and
built past n_max when a larger N is asked for).  Beside it, one read-only
scan plan per table and frame layout (S(1) and the packet size) holds the
table, the factors N / M and the frame sizes S(N).  E for every N is one
product of the plan's table with e, a scan is one argmax, and every hop of a
line network at the same loss rate reads the same plan, so a warm scan pays
only for its arithmetic.  The paper's phase-average terms (beta, gamma,
omega) compute the same E frame by frame; they live in ``tests/reference.py``
and the tests hold this module to them.
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
)
from .phases import batch_lineages
from .probability import (
    ber_from_plr,
    bin_d_pmf,
    bnc_packet_survival,
    header_survival,
)

# Bound on the cached reception tables.  A table holds n_max x (M + 1) floats,
# 23 KiB at M = 32, K = 64, so a full cache stays under 3 MiB there.  A 10-hop
# line network at one loss rate reads one table; the README figures, a handful.
_PMF_CACHE_SIZE = 128
# One (M + 1) x M float matrix per batch size, 33 KiB at M = 64.
_MIN_CACHE_SIZE = 32


@dataclass(frozen=True)
class AggregationContext:
    """Channel, code and rank distribution with the derived p, d, f cached."""

    channel: ChannelParams
    code: CodeParams
    rank_dist: RankDistribution
    p: float
    d: float
    f: float

    def __post_init__(self) -> None:
        if self.rank_dist.batch_size != self.code.batch_size:
            raise ParameterError(
                "rank distribution has batch size"
                f" {self.rank_dist.batch_size}, code has {self.code.batch_size}"
            )

    @classmethod
    def build(
        cls,
        channel: ChannelParams,
        code: CodeParams,
        rank_dist: RankDistribution | None = None,
    ) -> "AggregationContext":
        """Derive p, d, f from the channel loss model and the code."""
        if rank_dist is None:
            rank_dist = RankDistribution.degenerate(code.batch_size)
        if channel.ber is not None:
            p = channel.ber
        else:
            p = ber_from_plr(channel.baseline_plr, channel, code)
        return cls(
            channel=channel,
            code=code,
            rank_dist=rank_dist,
            p=p,
            d=header_survival(p, channel),
            f=bnc_packet_survival(p, code),
        )

    def with_rank_dist(self, rank_dist: RankDistribution) -> "AggregationContext":
        return AggregationContext(
            self.channel, self.code, rank_dist, self.p, self.d, self.f
        )


@dataclass(frozen=True)
class EfficiencyProfile:
    """Frame efficiency for every feasible N, plus the argmax."""

    n_max: int
    efficiency: tuple[float, ...]
    best_n: int

    def value(self, n: int) -> float:
        n = positive_int(n)
        if n > self.n_max:
            raise InfeasibleError(f"N={n} outside 1..{self.n_max}")
        return self.efficiency[n - 1]


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
    n = _capacity(channel, code)
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
    return float(_increments(ctx, _plan(ctx, n))[n - 1])


def lineage_reception_pmf(n: int, ctx: AggregationContext) -> np.ndarray:
    """PMF pi_N of packets received per batch, averaged over the batch lineages.

    Entry j is the probability that a batch gets j of its M packets through,
    with header loss (probability 1 - d per frame) and per-packet loss folded
    in; independent across the groups of one batch since they ride distinct
    frames.  The array is row N - 1 of the context's cached reception table,
    shared by every caller: it is read-only.
    """
    return _table(ctx, n)[n - 1]


def frame_efficiency(n: int, ctx: AggregationContext) -> float:
    """Expected useful payload bytes per byte sent, d * K * E / S(N).

    The entry for N of the ``optimize_n`` scan, so the two always agree.
    """
    return optimize_n(ctx)[1].value(n)


def optimize_n(ctx: AggregationContext) -> tuple[int, EfficiencyProfile]:
    """Exhaustive scan over feasible N; ties break toward the smallest N."""
    n_max = max_feasible_n(ctx.channel, ctx.code)
    if ctx.d <= 0.0:
        values = np.zeros(n_max)  # no header arrives, so no payload byte is useful
    else:
        plan = _plan(ctx, n_max)
        values = ctx.d * ctx.code.payload * _increments(ctx, plan) / plan.sizes
    best = int(values.argmax()) + 1
    return best, EfficiencyProfile(n_max, tuple(values.tolist()), best)


def _capacity(channel: ChannelParams, code: CodeParams) -> int:
    """BNC packets that fit in one payload; below 1 when none does."""
    return (channel.max_payload - channel.proto_header) // code.packet_size


def _increments(ctx: AggregationContext, plan: _ScanPlan) -> np.ndarray:
    """E for every row of the plan: one product of its table with e."""
    return plan.scale * (plan.table @ _expected_min_table(ctx)) / ctx.d


def _expected_min_table(ctx: AggregationContext) -> np.ndarray:
    """e[j] = E_r[min(j, r)] under the context's rank distribution, j = 0..M."""
    return _min_matrix(ctx.code.batch_size) @ np.asarray(ctx.rank_dist.masses)


@functools.lru_cache(maxsize=_MIN_CACHE_SIZE)
def _min_matrix(m: int) -> np.ndarray:
    """mins[j, r - 1] = min(j, r) for j = 0..M, r = 1..M; read-only.

    Held as floats, so the product with the masses casts nothing per call.
    """
    mins = np.minimum.outer(np.arange(m + 1.0), np.arange(1.0, m + 1))
    mins.flags.writeable = False
    return mins


def _table(ctx: AggregationContext, n: int) -> np.ndarray:
    """The context's reception table, with rows for N = 1..max(n, n_max)."""
    return _reception_table(*_table_key(ctx, n))


class _ScanPlan(NamedTuple):
    """What a scan reads besides the rank distribution; arrays are read-only."""

    table: np.ndarray  # the reception table, row N - 1 holding pi_N
    scale: np.ndarray  # N / M for each row
    sizes: np.ndarray  # frame size S(N) in bytes for each row


def _plan(ctx: AggregationContext, n: int) -> _ScanPlan:
    """The context's scan plan, with rows for N = 1..max(n, n_max)."""
    s1 = frame_size(1, ctx.channel, ctx.code)
    return _scan_plan(*_table_key(ctx, n), s1, ctx.code.packet_size)


@functools.lru_cache(maxsize=_PMF_CACHE_SIZE)
def _scan_plan(
    m: int, rows: int, f: float, d: float, s1: int, step: int
) -> _ScanPlan:
    scale = np.arange(1, rows + 1) / m
    sizes = s1 + np.arange(rows) * step
    scale.flags.writeable = sizes.flags.writeable = False
    return _ScanPlan(_reception_table(m, rows, f, d), scale, sizes)


def _table_key(ctx: AggregationContext, n: int) -> tuple[int, int, float, float]:
    """(M, rows, f, d) of the cached reception table that holds pi_N."""
    rows = max(positive_int(n), _capacity(ctx.channel, ctx.code))
    return ctx.code.batch_size, rows, ctx.f, ctx.d


@functools.lru_cache(maxsize=_PMF_CACHE_SIZE)
def _reception_table(m: int, rows: int, f: float, d: float) -> np.ndarray:
    groups = {
        size: np.array([bin_d_pmf(i, size, f, d) for i in range(size + 1)])
        for size in range(1, min(m, rows) + 1)
    }

    @functools.cache  # the same lineage recurs at many N
    def lineage_pmf(sizes: tuple[int, ...]) -> np.ndarray:
        return functools.reduce(np.convolve, (groups[s] for s in sizes), np.ones(1))

    table = np.zeros((rows, m + 1))
    for n, row in enumerate(table, start=1):
        lineages = batch_lineages(m, n)
        for sizes in lineages:
            row += lineage_pmf(sizes)
        row /= len(lineages)
    table.flags.writeable = False
    return table
