"""Seeded Monte Carlo and exhaustive oracles for the analytical model.

All randomness comes from numpy's Philox counter-based generator.  Trials are
processed in fixed-size chunks by one runner, ``_chunks``.  Chunk c of
``simulate_period`` uses the stream derived from
``SeedSequence(seed, spawn_key=(c,))`` and chunk c of hop h in
``simulate_end_to_end`` the one from ``spawn_key=(h, c)``, so results are
bit-identical for a given seed regardless of how the work is scheduled.

Within a chunk the draws are, in order: one word per batch for its rank,
one per frame for its header, one per packet for its survival, then in
``gf256_matrix`` mode one byte per coefficient, two to a word.  A lost
header marks every packet of its frame lost, and a batch receives M minus
its lost packets.  The draws read the same Philox words as
``Generator.random`` and ``Generator.integers(0, 256)`` would, so the
stream is the one those calls define, but they skip the float64 and int64
arrays:

* ``random()`` maps a 64-bit word w to (w >> 11) * 2^-53, so ``random() < p``
  holds exactly when w < ceil(p * 2^53) << 11 (``_word_bound``).  One
  reader, ``_reached``, counts per word how many of a list of
  probabilities its uniform reaches.  Over the one probability d or f that
  count is the loss of a header or a packet; over the cumulative rank
  masses, the last left out, it is a batch's rank minus 1, which is what
  ``searchsorted(cum, random(), "right")`` returns.
* ``integers(0, 256)`` is Lemire's bounded draw on one 32-bit half-word u,
  which for a range of 256 never rejects and returns u >> 24.  Philox hands
  out a word's low half, then its high half, so the coefficients are bytes
  3 and 7 of consecutive raw words (``_Coefficients``).

The two modes read the same words in the same order up to the
coefficients, which only ``gf256_matrix`` draws, and they are last.  So
``simulate_periods`` serves both modes from one set of draws: per chunk it
counts each batch's received packets once, takes the rank-counting
increments min(received, rank) from them, then draws the coefficients,
and each estimate is bit for bit the one ``simulate_period`` gives in its
own mode.  Any draw added to a chunk must keep that order, or come after
the coefficients.

Raw words are drawn ``_BLOCK`` at a time, and coefficients one piece of
``_gf_increments`` at a time, which bounds the draw buffers however many
trials a chunk holds.  Counts and ranks use the narrowest unsigned type
that holds M.

The oracles report E in the same convention as the analytical formulas: the
per-frame rank increment conditioned on the frame's own header arriving,
obtained by dividing the unconditional per-frame increment by d.

Two fields are modelled.  ``rank_counting`` mode and ``enumerate_period_exact``
by default take a batch's increment as min(received, rank), the large-field
limit that ``expected_rank_increment`` also uses.  ``gf256_matrix`` mode ranks
explicit uniform coefficient matrices over GF(256), which are rank deficient
with small probability, so its mean sits about 5e-4 (relative) below the
large-field E; its exact reference is
``enumerate_period_exact(ctx, n, field_size=256)``.

``simulate_period`` shares no code with the model; ``simulate_end_to_end``
takes each hop's N from ``NodeStrategy.choose``, as the exact line network
does.  ``enumerate_period_exact`` shares no lineage code with the model
either: it splits each batch by walking its packet positions frame by
frame, where the model states the split in closed form by the offset law,
and it convolves brute-force group pmfs into each batch's.  It keeps no
state: every call enumerates its cell from scratch.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .frame import AggregationContext, _resolve, frame_size
from .gf256 import gf256_rank_many
from .network import NodeStrategy
from .params import EnumerationSizeError, ParameterError
from .params import nonnegative_int, ordered_sum, positive_int

RANK_COUNTING = "rank_counting"
GF256_MATRIX = "gf256_matrix"
_MODES = (RANK_COUNTING, GF256_MATRIX)  # the order a chunk serves them in

_CHUNK = 1 << 16
_BLOCK = 1 << 18  # words drawn or coefficients ranked at once; 2 MiB of uint64
_WORD_LIMIT = 1 << 64
_MAX_ENUM_TERMS = 1 << 24


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ParameterError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class TrialConfig:
    """A reproducible Monte Carlo run: scenario, mode, seed and trial count."""

    ctx: AggregationContext
    n: int
    seed: int
    trials: int
    mode: str = RANK_COUNTING

    def __post_init__(self) -> None:
        positive_int(self.n)
        positive_int(self.trials, "trials")
        nonnegative_int(self.seed, "seed")
        _check_mode(self.mode)


@dataclass(frozen=True)
class PeriodEstimate:
    """Empirical per-frame rank increment with its standard error."""

    mean: float
    std_error: float
    trials: int
    mode: str
    rank_histogram: tuple[float, ...]


@dataclass(frozen=True)
class HopEstimate:
    hop: int
    n: int
    throughput: float
    std_error: float


def _chunk_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    )


def _word_bound(p: float) -> int:
    """The b with ``random() < p`` exactly when the word it maps is below b.

    b lies in 0..2^64; at 2^64, which no uint64 holds, every word is below.
    """
    return min(max(math.ceil(p * 2.0**53), 0), 1 << 53) << 11


def _reached(rng: np.random.Generator, probs, shape, dtype) -> np.ndarray:
    """Per entry, how many of ``probs`` its ``rng.random()`` reaches, bit for bit.

    ``random() >= p`` holds exactly when the word is not below
    ``_word_bound(p)``, so one raw word per entry, drawn ``_BLOCK`` at a
    time, is compared with each bound; a bound of 2^64 is never reached.
    With a single probability and ``dtype=bool`` this is
    ``rng.random(shape) >= p``.
    """
    bounds = [np.uint64(b) for b in map(_word_bound, probs) if b < _WORD_LIMIT]
    out = np.zeros(shape, dtype=dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        words = rng.bit_generator.random_raw(block.size)
        if bounds:  # the first comparison fills the block, with no temporary
            np.greater_equal(words, bounds[0], out=block)
        for bound in bounds[1:]:
            block += words >= bound
    return out


class _Coefficients:
    """Successive ``rng.integers(0, 256, size, dtype=np.int64)`` draws, as uint8.

    For a range of 256 that call takes u >> 24 of one 32-bit half-word u, and
    Philox hands out the low half of a word first and keeps the high half for
    its next 32-bit draw.  So the coefficients are bytes 3 and 7 of
    consecutive raw words, read here in one raw draw per call (a call asks
    for one piece of ``_gf_increments``); an odd draw leaves byte 7 unread,
    as Philox keeps the half-word, and the next draw reads it first.  This
    holds only if ``rng`` holds no spare half-word when the first draw is
    made: a fresh generator does not, and raw draws never set one.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._unread = np.empty(0, dtype=np.uint8)  # at most one byte

    def __call__(self, size: int) -> np.ndarray:
        held = self._unread.size
        words = self._rng.bit_generator.random_raw((size - held + 1) // 2)
        stream = np.empty(held + 2 * words.size, dtype=np.uint8)
        stream[:held] = self._unread
        # Cast in numpy's small buffers: no uint32 array the size of the piece.
        halves = words.astype("<u8", copy=False).view("<u4")
        np.right_shift(halves, 24, out=stream[held:], casting="unsafe")
        self._unread = stream[size:].copy()
        return stream[:size]


def _chunks(seed: int, total: int, *key: int):
    """Yield each chunk's slice of up to ``_CHUNK`` rows and its stream ``(*key, c)``."""
    for c, start in enumerate(range(0, total, _CHUNK)):
        yield slice(start, min(start + _CHUNK, total)), _chunk_rng(seed, *key, c)


def _received_counts(
    rng: np.random.Generator, ctx: AggregationContext, n: int, shape: tuple[int, int]
) -> np.ndarray:
    """Packets received by each batch of a (trials, batches) array of periods.

    Draws header losses, then packet losses.
    """
    m = ctx.code.batch_size
    trials, batches = shape
    period = batches * m
    lost_headers = _reached(rng, (ctx.d,), (trials, period // n), bool)
    lost = _reached(rng, (ctx.f,), (trials, period), bool)
    # Row i of this view holds the packets of frame i: mark the rows of the
    # lost frames.  Their index takes 8 bytes per lost frame, so it outgrows
    # ``lost`` (N bytes per frame) only if more than N/8 of them are lost.
    lost.reshape(-1, n)[np.flatnonzero(lost_headers)] = True
    del lost_headers
    # Each batch's packets are M adjacent 0/1 bytes.  Read them as w-byte words,
    # w = gcd(M, 8): multiplying a word by 0x01..01 adds its bytes into its
    # top byte.  Then subtract the M / w words of each batch, as strided
    # slices, from M.
    w = math.gcd(m, 8)
    words = lost.view(f"u{w}").reshape(trials, batches, m // w)
    ones = words.dtype.type(int.from_bytes(b"\x01" * w, "little"))
    top = words.dtype.type(8 * w - 8)
    counts = np.full((trials, batches), m, dtype=np.min_scalar_type(m))
    for i in range(m // w):
        counts -= (words[:, :, i] * ones) >> top
    return counts


def _gf_increments(
    rng: np.random.Generator, counts: np.ndarray, ranks: np.ndarray, m: int
) -> np.ndarray:
    """Rank increments via explicit random coefficient matrices.

    A batch of rank r is recoded into M packets whose coordinates in the
    r-dimensional received space are uniform; receiving j of them yields the
    rank of a uniform j x r matrix.  Groups of equal (j, r) are ranked in
    ascending (j, r) order and row-major order within a group, so the stream
    of random draws is reproducible; a group is drawn (``_Coefficients``)
    and ranked in pieces of at most ``_BLOCK`` coefficients.
    One stable sort on the key j * (M + 1) + r, computed in int64 and stored
    in the narrowest unsigned type, where numpy sorts by radix, yields every
    group; ranks are written in key order and scattered back once.
    """
    groups = (m + 1) ** 2
    key = counts.astype(np.int64) * (m + 1) + ranks
    key = key.ravel().astype(np.min_scalar_type(groups - 1))
    order = np.argsort(key, kind="stable")
    sizes = np.bincount(key, minlength=groups)
    ends = np.cumsum(sizes)
    ranked = np.zeros(key.size, dtype=counts.dtype)
    coefficients = _Coefficients(rng)
    # Keys below M + 1 have j = 0, so their rank is 0.
    for k in np.flatnonzero(sizes[m + 1 :]) + m + 1:
        j, r = divmod(int(k), m + 1)
        step = max(1, _BLOCK // (j * r))
        for start in range(ends[k - 1], ends[k], step):
            stop = min(start + step, ends[k])
            draw = coefficients((stop - start) * j * r)
            ranked[start:stop] = gf256_rank_many(draw.reshape(-1, j, r))
    inc = np.empty_like(ranked)
    inc[order] = ranked
    return inc.reshape(counts.shape)


def simulate_periods(
    config: TrialConfig, modes: Sequence[str]
) -> tuple[PeriodEstimate, ...]:
    """One estimate per entry of ``modes``, all read from one set of draws.

    ``config.mode`` is not read.  Each estimate is bit for bit the one
    ``simulate_period`` gives in its mode: the modes draw the same ranks,
    headers and packets, and only ``gf256_matrix`` draws more after them.
    """
    modes = tuple(modes)
    if not modes:
        raise ParameterError("no mode to simulate")
    for mode in modes:
        _check_mode(mode)
    ctx, n = config.ctx, config.n
    m = ctx.code.batch_size
    if ctx.d <= 0.0:
        raise ParameterError("header survival is zero; E is undefined")
    frames = math.lcm(m, n) // n
    batches = math.lcm(m, n) // m
    cum = np.cumsum(ctx.rank_dist.masses)[:-1]  # a rank is 1 + the masses reached
    # Per mode, in the order a chunk serves them: the sum and the sum of
    # squares of the per-trial increments, and the increment histogram.
    sums = {mode: [0.0, 0.0, np.zeros(m + 1)] for mode in _MODES if mode in modes}
    for rows, rng in _chunks(config.seed, config.trials):
        ranks = _reached(rng, cum, (rows.stop - rows.start, batches), np.min_scalar_type(m))
        ranks += 1
        counts = _received_counts(rng, ctx, n, ranks.shape)
        for mode, acc in sums.items():
            if mode == RANK_COUNTING:
                inc = np.minimum(counts, ranks)
            else:
                inc = _gf_increments(rng, counts, ranks, m)
            acc[2] += np.bincount(inc.ravel(), minlength=m + 1)[: m + 1]
            # Row sums of small integers are exact in float64, so these are the
            # floats ``inc.sum(axis=1)`` gives; einsum casts in small buffers
            # and pays far less per row of a few batches than that reduction.
            per_trial = np.einsum("ij->i", inc, dtype=np.float64) / (frames * ctx.d)
            acc[0] += float(per_trial.sum())
            acc[1] += float((per_trial**2).sum())
            del inc, per_trial  # not held through the GF(256) draws
    estimates = {}
    for mode, (total, total_sq, hist) in sums.items():
        mean = total / config.trials
        var = max(total_sq / config.trials - mean**2, 0.0)
        estimates[mode] = PeriodEstimate(
            mean=mean,
            std_error=math.sqrt(var / config.trials),
            trials=config.trials,
            mode=mode,
            rank_histogram=tuple(hist / hist.sum()),
        )
    return tuple(estimates[mode] for mode in modes)


def simulate_period(config: TrialConfig) -> PeriodEstimate:
    """Estimate E by simulating whole lcm(M, N)-packet periods.

    Unlike the analytical formulas, batches sharing a frame share its header
    loss event here, so the estimate also probes that factorization.
    """
    return simulate_periods(config, (config.mode,))[0]


def enumerate_period_exact(
    ctx: AggregationContext, n: int, field_size: int | None = None
) -> float:
    """Exact E by enumerating every reception outcome, batch by batch.

    Expectation is additive over the batches of a period, so each batch's
    increment is enumerated over all survival patterns of its own packets and
    the header events of the frames it touches.  A walk over the batch's
    packet positions, each riding frame p // N by its position p, splits it
    into groups, and its pmf convolves their brute-force pmfs
    (:func:`_group_pmf_brute`, once per group size), both model-free.  The
    size guard counts that work first: about 32 patterns per batch, and
    fewer than 2^(min(M, N) + 1) over groups of at most min(M, N) packets.

    With ``field_size=None`` a batch of rank r that receives j packets gains
    min(j, r), the large-field model.  With a prime power q it gains the
    expected rank of a uniform j x r matrix over GF(q), which is exact for
    random linear recoding over that field because a batch's increment over a
    period is the rank of everything it received.  ``uniform_rank_pmf``
    checks the field size.
    """
    n = positive_int(n)
    if field_size is not None:
        field_size = positive_int(field_size, "field size")
    m, f, d, masses = ctx.code.batch_size, ctx.f, ctx.d, ctx.rank_dist.masses
    period = math.lcm(m, n)
    if (terms := 32 * (period // m) + (2 << min(m, n))) > _MAX_ENUM_TERMS:
        raise EnumerationSizeError(
            f"enumeration needs {terms} terms, above the {_MAX_ENUM_TERMS} bound"
        )
    if d <= 0.0:
        raise ParameterError("header survival is zero; E is undefined")
    # Entry j of gains: a batch's mean increment from j received packets.
    if field_size is None:
        rank = min
    else:
        def rank(j: int, r: int) -> float:
            return ordered_sum(k * p for k, p in enumerate(uniform_rank_pmf(j, r, field_size)))
    gains = [
        ordered_sum(masses[r - 1] * rank(j, r) for r in range(1, m + 1)) for j in range(m + 1)
    ]
    group_pmfs = {}
    total = 0.0
    for start in range(0, period, m):
        pmf = np.ones(1)
        for _, group in itertools.groupby(range(start, start + m), lambda p: p // n):
            if (size := len(list(group))) not in group_pmfs:
                group_pmfs[size] = _group_pmf_brute(size, f, d)
            pmf = np.convolve(pmf, group_pmfs[size])
        total += ordered_sum(p * e for p, e in zip(pmf.tolist(), gains))
    return total / (period // n * d)


def uniform_rank_pmf(j: int, r: int, q: int) -> list[float]:
    """Rank law of a uniform j x r matrix over GF(q): entry k is P(rank = k).

    P(rank = k) = q^-((j-k)(r-k)) * prod_{i<k} (1 - q^(i-j)) (1 - q^(i-r))
    / (1 - q^(i-k)) for k = 0..min(j, r), the count of rank-k matrices over
    q^(jr) (the rank law behind BATS code analysis; Yang & Yeung, "Batched
    Sparse Codes", IEEE Trans. IT 2014).  ``q`` must be a prime power.
    """
    j = nonnegative_int(j, "j")
    r = nonnegative_int(r, "r")
    if not _is_prime_power(q := positive_int(q, "field size")):
        raise ParameterError(f"field size must be a prime power, got {q!r}")
    q = float(q)
    pmf = []
    for k in range(min(j, r) + 1):
        p = q ** (-(j - k) * (r - k))
        for i in range(k):
            p *= (1.0 - q ** (i - j)) * (1.0 - q ** (i - r)) / (1.0 - q ** (i - k))
        pmf.append(p)
    return pmf


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = next((p for p in range(2, math.isqrt(q) + 1) if q % p == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


def _group_pmf_brute(size: int, f: float, d: float) -> np.ndarray:
    """Received-count pmf for one group, by enumerating each packet's bit."""
    survive = np.zeros(size + 1)
    for mask in range(1 << size):
        bits = mask.bit_count()
        survive[bits] += f**bits * (1.0 - f) ** (size - bits)
    pmf = d * survive
    pmf[0] += 1.0 - d
    return pmf


def simulate_end_to_end(
    ctx: AggregationContext,
    hops: int,
    strategy: NodeStrategy,
    seed: int,
    trials: int,
) -> list[HopEstimate]:
    """Empirical throughput per byte on each hop of a line network.

    ``trials`` is the period count simulated at each hop; the batch
    population starts at full rank and is carried hop to hop.  Each hop's N
    is ``strategy.choose`` on the histogram of ranks 1..M of the population.
    """
    hops = positive_int(hops, "hops")
    trials = positive_int(trials, "trials")
    seed = nonnegative_int(seed, "seed")
    m = ctx.code.batch_size
    payload = ctx.code.payload
    model = _resolve(ctx)
    records = []
    # About `trials` periods at N = M.
    ranks = np.full(trials * m, m, dtype=np.min_scalar_type(m))
    for hop in range(1, hops + 1):
        _, _, n = strategy.choose(hop, np.bincount(ranks, minlength=m + 1)[1:], model)
        period = math.lcm(m, n)
        per_period = period // m
        frames = period // n
        n_periods = ranks.size // per_period
        if n_periods == 0:
            raise ParameterError(
                f"hop {hop}: only {ranks.size} batches left, but one period at"
                f" N={n} holds {per_period}; raise the trial count"
            )
        used = ranks[: n_periods * per_period].reshape(n_periods, per_period)
        next_ranks = np.empty_like(used)
        for rows, rng in _chunks(seed, n_periods, hop):
            counts = _received_counts(rng, ctx, n, used[rows].shape)
            np.minimum(counts, used[rows], out=next_ranks[rows])
        bytes_per_period = frames * frame_size(n, ctx.channel, ctx.code)
        per_period_tp = payload * next_ranks.sum(axis=1) / bytes_per_period
        mean = float(per_period_tp.mean())
        se = float(per_period_tp.std(ddof=0) / math.sqrt(n_periods))
        records.append(HopEstimate(hop=hop, n=n, throughput=mean, std_error=se))
        ranks = next_ranks.ravel()
    return records
