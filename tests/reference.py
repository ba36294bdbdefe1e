"""The paper's phase-average terms, kept as an independent reference for E.

The production model (:func:`bncagg.frame.expected_rank_increment`) averages
one lineage reception pmf over the batches of a period.  This module instead
follows the paper's accounting frame by frame: every phase of the period
contributes the increments of the batches it finishes (beta, gamma,
gamma_prime) and starts (beta_prime), and batches split over several earlier
frames are handled by the omega recursion.  :func:`phase_average_increment`
sums those terms into E.

The terms read the context, the phase lists (``case_i_phases`` and
``case_ii_partial_phases`` here, ``case_ii_sk_pairs`` from ``bncagg.phases``)
and the probability primitives, but neither ``batch_lineages`` nor the reception
table, so they would catch a fault in the offset law by which
``batch_lineages`` splits each batch; the tests hold production to them.
``oracle.enumerate_period_exact``, ``helpers.period_expected_increment`` and
``helpers.reception_pmf_bruteforce`` catch such a fault too: each splits
batches by walking their packets and enumerates every outcome, and
``helpers._split_batches`` is held to ``batch_lineages`` tuple for tuple.
No production path calls this module, so it lives with the tests: its
pure-Python terms cost far more per E than the pmf does, and more so as M
grows.

``phase_sequence_loop`` and ``case_ii_sk_pairs_loop`` keep the earlier loop
forms of the two phase helpers, which the tests hold the production forms
to, list for list.
"""

from __future__ import annotations

import math

from bncagg.frame import AggregationContext
from bncagg.params import ParameterError, PhaseError
from bncagg.phases import _check_mn, case_ii_sk_pairs
from bncagg.probability import bin_d_pmf, binom_pmf


def beta_prime(length: int, ctx: AggregationContext) -> float:
    """Expected rank increment of a fresh batch with ``length`` packets aboard.

    Conditioned on the frame payload being delivered.
    """
    m = ctx.code.batch_size
    if not 0 <= length <= m:
        raise ParameterError(f"need 0 <= length <= {m}, got {length}")
    emin = _expected_min_table(ctx)
    return sum(
        binom_pmf(j, length, ctx.f) * emin[j] for j in range(length + 1)
    )


def beta(length: int, ctx: AggregationContext) -> float:
    """Expected rank increment of a batch finishing in this frame.

    The other M - length packets of the batch rode a single earlier frame.
    Conditioned on this frame's payload being delivered.
    """
    m = ctx.code.batch_size
    if not 1 <= length <= m:
        raise ParameterError(f"need 1 <= length <= {m}, got {length}")
    hbar = ctx.rank_dist.masses
    prior = m - length
    prior_pmf = [bin_d_pmf(i, prior, ctx.f, ctx.d) for i in range(prior + 1)]
    total = 0.0
    for j in range(length + 1):
        pj = binom_pmf(j, length, ctx.f)
        if pj == 0.0:
            continue
        inner = 0.0
        for i, pi in enumerate(prior_pmf):
            if pi == 0.0:
                continue
            inner += pi * sum(
                hbar[r - 1] * max(min(j, r - i), 0) for r in range(1, m + 1)
            )
        total += pj * inner
    return total


def omega(
    r: int,
    j: int,
    prior_partial: int,
    full_frames: int,
    already: int,
    n: int,
    ctx: AggregationContext,
) -> float:
    """Residual increment term for a batch split over several earlier frames.

    ``full_frames`` earlier frames carried n packets of the batch each and the
    earliest frame carried ``prior_partial`` of them; ``already`` ranks were
    received before those.  Returns E[(min(j, r - received))^+].
    """
    m = ctx.code.batch_size
    if full_frames < 0 or already < 0:
        raise ParameterError("recursion arguments must be nonnegative")
    if not 0 <= prior_partial < max(n, 1) + 1:
        raise ParameterError(f"prior_partial must be in 0..{n}, got {prior_partial}")
    if full_frames > math.ceil(m / n):
        raise ParameterError(
            f"recursion depth {full_frames} exceeds ceil(M/N)={math.ceil(m / n)}"
        )
    mu_dist = _mu_distribution(full_frames, n, ctx)
    return _omega_terminal(mu_dist, prior_partial, r, j, already, ctx)


def gamma(length: int, n: int, ctx: AggregationContext) -> float:
    """Expected rank increment of a batch finishing in this frame (M > N).

    The other M - length packets were split across ceil((M - length) / N)
    earlier frames.  Conditioned on this frame's payload being delivered.
    """
    m = ctx.code.batch_size
    if not 1 <= length <= min(n, m):
        raise ParameterError(f"need 1 <= length <= min(N, M), got {length}")
    hbar = ctx.rank_dist.masses
    rest = m - length
    mu_dist = _mu_distribution(rest // n, n, ctx)
    partial = rest % n
    total = 0.0
    for j in range(length + 1):
        pj = binom_pmf(j, length, ctx.f)
        if pj == 0.0:
            continue
        total += pj * sum(
            hbar[r - 1] * _omega_terminal(mu_dist, partial, r, j, 0, ctx)
            for r in range(1, m + 1)
        )
    return total


def gamma_prime(s: int, k: int, n: int, ctx: AggregationContext) -> float:
    """Expected rank increment of a full-batch frame with lineage (s, k)."""
    m = ctx.code.batch_size
    if (s, k) not in set(case_ii_sk_pairs(m, n)):
        raise PhaseError(f"(s, k)=({s}, {k}) is not a valid lineage for M={m}, N={n}")
    hbar = ctx.rank_dist.masses
    mu_dist = _mu_distribution(k, n, ctx)
    total = 0.0
    for j in range(n + 1):
        pj = binom_pmf(j, n, ctx.f)
        if pj == 0.0:
            continue
        total += pj * sum(
            hbar[r - 1] * _omega_terminal(mu_dist, s, r, j, 0, ctx)
            for r in range(1, m + 1)
        )
    return total


def phase_average_increment(n: int, ctx: AggregationContext) -> float:
    """Per-frame expected rank increment E from the phase-average terms.

    Conditioned on the frame's own header arriving; header and packet loss in
    the earlier frames of split batches is accounted inside the terms.  Equals
    :func:`bncagg.frame.expected_rank_increment` to round-off.
    """
    m = ctx.code.batch_size
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"aggregation count must be >= 1, got {n!r}")
    if m == 1:
        # Every packet is a whole batch; the n batches aboard are independent.
        return n * beta_prime(1, ctx)
    g = math.gcd(m, n)
    if m <= n:
        bp_full = beta_prime(m, ctx)
        total = 0.0
        for length in case_i_phases(m, n):
            rest = n - length
            total += (
                beta(length, ctx)
                + beta_prime(rest % m, ctx)
                + (rest // m) * bp_full
            )
        return g * total / m
    total = 0.0
    for length in case_ii_partial_phases(m, n):
        total += gamma(length, n, ctx) + beta_prime(n - length, ctx)
    for s, k in case_ii_sk_pairs(m, n):
        total += gamma_prime(s, k, n, ctx)
    return g * total / m


def _expected_min_table(ctx: AggregationContext) -> list[float]:
    """emin[j] = E_r[min(j, r)] under the context's rank distribution."""
    hbar = ctx.rank_dist.masses
    m = len(hbar)
    return [
        sum(hbar[r - 1] * min(j, r) for r in range(1, m + 1)) for j in range(m + 1)
    ]


def _mu_distribution(full_frames: int, n: int, ctx: AggregationContext) -> list[float]:
    """Distribution of packets received from ``full_frames`` earlier frames."""
    dist = [1.0]
    layer = [bin_d_pmf(i, n, ctx.f, ctx.d) for i in range(n + 1)]
    for _ in range(full_frames):
        nxt = [0.0] * (len(dist) + n)
        for mu, w in enumerate(dist):
            if w == 0.0:
                continue
            for i, pi in enumerate(layer):
                nxt[mu + i] += w * pi
        dist = nxt
    return dist


def _omega_terminal(
    mu_dist: list[float],
    prior_partial: int,
    r: int,
    j: int,
    already: int,
    ctx: AggregationContext,
) -> float:
    """E[(min(j, r - mu - i))^+] with i drawn from the earliest partial frame."""
    if j <= 0:
        return 0.0
    partial_pmf = [
        bin_d_pmf(i, prior_partial, ctx.f, ctx.d) for i in range(prior_partial + 1)
    ]
    total = 0.0
    for mu, w in enumerate(mu_dist):
        if w == 0.0:
            continue
        base = r - already - mu
        total += w * sum(
            pi * max(min(j, base - i), 0) for i, pi in enumerate(partial_pmf)
        )
    return total


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


def phase_sequence_loop(m: int, n: int) -> list[int]:
    """Leading-batch packet count of every frame, one ``min`` per frame.

    The earlier form of ``bncagg.phases.phase_sequence``, which now takes
    the smaller of N and the packets left in the leading batch without
    ``min``; the tests hold the two equal list for list.
    """
    m, n = _check_mn(m, n)
    period = math.lcm(m, n)
    phases = []
    for u in range(period // n):
        start = u * n
        batch = start // m
        phases.append(min((batch + 1) * m, start + n) - start)
    return phases


def case_ii_sk_pairs_loop(m: int, n: int) -> list[tuple[int, int]]:
    """The earlier nested-loop form of ``bncagg.phases.case_ii_sk_pairs``."""
    m, n = _check_mn(m, n)
    if m <= n:
        raise PhaseError(f"case II needs M > N, got M={m}, N={n}")
    g = math.gcd(m, n)
    pairs = []
    for s in range(0, min(m - n, n - g) + 1, g):
        for k in range((m - s) // n):
            pairs.append((s, k))
    return pairs
