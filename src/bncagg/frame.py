"""Frame sizing, expected rank increment per frame, and the optimizer over N.

The model core is the lineage reception pmf pi_N: the frame boundaries split
each batch of a period into groups (``phases.batch_lineages``), each group
rides its own frame, and pi_N[j] is the probability that a batch gets j of
its M packets through, averaged over the batches of the period.  The
expected rank increment E a frame adds at the next node, given the frame's
own header arrives, follows from pi_N in one dot product, and frame
efficiency is d * K * E / S(N).

pi_N depends on (M, N, f, d) but not on the rank distribution, so it is
cached: an ``optimize_n`` scan and every hop of a line network at the same
loss rate share the entries.  The paper's phase-average terms (beta, gamma,
omega) compute the same E frame by frame; they live in ``reference`` and
the tests hold this module to them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .params import (
    ChannelParams,
    CodeParams,
    InfeasibleError,
    ParameterError,
    RankDistribution,
)
from .phases import batch_lineages
from .probability import (
    ber_from_plr,
    bin_d_pmf,
    bnc_packet_survival,
    header_survival,
)

# Bound on the cached pi_N arrays.  A 10-hop line-network run at one loss
# rate touches one entry per feasible N; the README figures touch a few
# hundred in all.
_PMF_CACHE_SIZE = 1024


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
        return replace(self, rank_dist=rank_dist)


@dataclass(frozen=True)
class EfficiencyProfile:
    """Frame efficiency for every feasible N, plus the argmax."""

    n_max: int
    efficiency: tuple[float, ...]
    best_n: int

    def value(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise InfeasibleError(f"N={n} outside 1..{self.n_max}")
        return self.efficiency[n - 1]


def frame_size(n: int, channel: ChannelParams, code: CodeParams) -> int:
    """Bytes on the wire for a frame aggregating n BNC packets."""
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"aggregation count must be >= 1, got {n!r}")
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
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"aggregation count must be >= 1, got {n!r}")
    if ctx.d <= 0.0:
        raise ParameterError("header survival is zero; E is undefined")
    pmf = lineage_reception_pmf(n, ctx)
    m = ctx.code.batch_size
    return n / m * float(pmf @ _expected_min_table(ctx)) / ctx.d


def lineage_reception_pmf(n: int, ctx: AggregationContext) -> np.ndarray:
    """PMF pi_N of packets received per batch, averaged over the batch lineages.

    Entry j is the probability that a batch gets j of its M packets through,
    with header loss (probability 1 - d per frame) and per-packet loss folded
    in; independent across the groups of one batch since they ride distinct
    frames.  pi_N does not depend on the rank distribution, so the array is
    cached per (M, N, f, d) and shared by every caller: it is read-only.
    """
    return _lineage_pmf(ctx.code.batch_size, n, ctx.f, ctx.d)


@functools.lru_cache(maxsize=_PMF_CACHE_SIZE)
def _lineage_pmf(m: int, n: int, f: float, d: float) -> np.ndarray:
    lineages = batch_lineages(m, n)
    groups = {
        size: np.array([bin_d_pmf(i, size, f, d) for i in range(size + 1)])
        for size in {size for sizes in lineages for size in sizes}
    }
    acc = np.zeros(m + 1)
    for sizes in lineages:
        pmf = np.ones(1)
        for size in sizes:
            pmf = np.convolve(pmf, groups[size])
        acc += pmf
    acc /= len(lineages)
    acc.flags.writeable = False
    return acc


def frame_efficiency(n: int, ctx: AggregationContext) -> float:
    """Expected useful payload bytes per byte sent, d * K * E / S(N)."""
    if n > max_feasible_n(ctx.channel, ctx.code):
        raise InfeasibleError(
            f"N={n} exceeds the feasible bound"
            f" {max_feasible_n(ctx.channel, ctx.code)}"
        )
    if ctx.d <= 0.0:
        return 0.0  # no header arrives, so no payload byte is useful
    e = expected_rank_increment(n, ctx)
    return ctx.d * ctx.code.payload * e / frame_size(n, ctx.channel, ctx.code)


def optimize_n(ctx: AggregationContext) -> tuple[int, EfficiencyProfile]:
    """Exhaustive scan over feasible N; ties break toward the smallest N."""
    n_max = max_feasible_n(ctx.channel, ctx.code)
    values = tuple(frame_efficiency(n, ctx) for n in range(1, n_max + 1))
    best = max(range(n_max), key=lambda i: (values[i], -i)) + 1
    return best, EfficiencyProfile(n_max=n_max, efficiency=values, best_n=best)


def _expected_min_table(ctx: AggregationContext) -> np.ndarray:
    """e[j] = E_r[min(j, r)] under the context's rank distribution, j = 0..M."""
    m = ctx.code.batch_size
    mins = np.minimum.outer(np.arange(m + 1), np.arange(1, m + 1))
    return mins @ np.asarray(ctx.rank_dist.masses)
