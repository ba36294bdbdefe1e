"""Seeded Monte Carlo and exhaustive oracles for the analytical model.

All randomness comes from numpy's Philox counter-based generator.  Trials are
processed in fixed-size chunks by one runner, ``_chunks``.  Chunk c of
``simulate_period`` uses the stream derived from
``SeedSequence(seed, spawn_key=(c,))`` and chunk c of hop h in
``simulate_end_to_end`` the one from ``spawn_key=(h, c)``, so results are
bit-identical for a given seed regardless of how the work is scheduled.

Within a chunk the draws are, in order: one word per batch for its rank,
one per frame for its header, one per packet for its survival, then in
``gf256_matrix`` mode one byte per coefficient, two to a word.  They read
the same Philox words as ``Generator.random`` and
``Generator.integers(0, 256)`` would, so the stream is the one those calls
define, but they skip the float64 and int64 arrays:

* ``random()`` maps a 64-bit word w to (w >> 11) * 2^-53, so ``random() < p``
  holds exactly when w < ceil(p * 2^53) << 11 (``_word_bound``).  Header and
  packet survival compare raw words with that bound (``_bernoulli``), and a
  batch's rank is 1 plus the number of cumulative rank masses whose bound
  its word reaches (``_draw_ranks``), which is what
  ``searchsorted(cum, random(), "right") + 1`` returns.
* ``integers(0, 256)`` is Lemire's bounded draw on one 32-bit half-word u,
  which for a range of 256 never rejects and returns u >> 24.  Philox hands
  out a word's low half, then its high half, so the coefficients are bytes
  3 and 7 of consecutive raw words (``_Coefficients``).

Raw words are drawn ``_BLOCK`` at a time, which bounds the draw buffers
however many trials a chunk holds.  Counts and ranks use the narrowest
unsigned type that holds M.

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

The simulators share no code with the model.  ``enumerate_period_exact``
walks the same ``batch_lineages`` as the model's lineage reception pmf and
differs from it only in its brute-force group pmf, so a fault in the lineage
walk would escape it; the tests catch such a fault with the phase-average
terms of ``tests/reference.py`` and with enumerations that split batches
with their own loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frame import AggregationContext, frame_size, optimize_n
from .gf256 import gf256_rank_many
from .network import NodeStrategy
from .params import EnumerationSizeError, ParameterError, RankDistribution
from .phases import batch_lineages

RANK_COUNTING = "rank_counting"
GF256_MATRIX = "gf256_matrix"

_CHUNK = 1 << 16
_BLOCK = 1 << 18  # words drawn or coefficients ranked at once; 2 MiB of uint64
_WORD_LIMIT = 1 << 64
_MAX_ENUM_TERMS = 1 << 24


@dataclass(frozen=True)
class TrialConfig:
    """A reproducible Monte Carlo run: scenario, mode, seed and trial count."""

    ctx: AggregationContext
    n: int
    seed: int
    trials: int
    mode: str = RANK_COUNTING

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials!r}")
        if self.mode not in (RANK_COUNTING, GF256_MATRIX):
            raise ParameterError(f"unknown mode {self.mode!r}")


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


def _raw_blocks(rng: np.random.Generator, out: np.ndarray):
    """Yield ``(block, words)``: ``out`` in flat blocks, one Philox word per entry."""
    flat = out.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        yield block, rng.bit_generator.random_raw(block.size)


def _bernoulli(rng: np.random.Generator, p: float, shape) -> np.ndarray:
    """``rng.random(shape) < p`` bit for bit, without the float64 array."""
    bound = _word_bound(p)
    out = np.empty(shape, dtype=bool)
    for block, words in _raw_blocks(rng, out):
        if bound == _WORD_LIMIT:
            block.fill(True)
        else:
            np.less(words, np.uint64(bound), out=block)
    return out


def _draw_ranks(rng: np.random.Generator, hbar: RankDistribution, shape) -> np.ndarray:
    """``searchsorted(cum, rng.random(shape), "right") + 1`` bit for bit.

    With the last cumulative mass taken as 1, the rank is 1 plus the number
    of the other cumulative masses that the uniform reaches.
    """
    bounds = [_word_bound(c) for c in np.cumsum(hbar.masses)[:-1]]
    bounds = [np.uint64(b) for b in bounds if b < _WORD_LIMIT]
    ranks = np.ones(shape, dtype=np.min_scalar_type(hbar.batch_size))
    for block, words in _raw_blocks(rng, ranks):
        for bound in bounds:
            block += words >= bound
    return ranks


class _Coefficients:
    """Successive ``rng.integers(0, 256, size, dtype=np.int64)`` draws, as uint8.

    For a range of 256 that call takes u >> 24 of one 32-bit half-word u, and
    Philox hands out the low half of a word first and keeps the high half for
    its next 32-bit draw.  So the coefficients are bytes 3 and 7 of
    consecutive raw words, read here ``_BLOCK`` words at a time; a draw of
    odd size keeps the last word's byte 7 for the next draw, as Philox keeps
    the half-word.  This holds only if ``rng`` holds no spare half-word when
    the first draw is made: a fresh generator does not, and raw draws never
    set one.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._spare = None

    def __call__(self, size: int) -> np.ndarray:
        out = np.empty(size, dtype=np.uint8)
        rest = out
        if self._spare is not None and size:
            out[0], self._spare = self._spare, None
            rest = out[1:]
        for start in range(0, rest.size, 2 * _BLOCK):
            block = rest[start : start + 2 * _BLOCK]
            words = self._rng.bit_generator.random_raw((block.size + 1) // 2)
            words = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
            even = block.size & ~1
            block[:even].reshape(-1, 2)[...] = words[: even // 2, 3::4]
            if block.size > even:
                block[-1], self._spare = words[-1, 3::4]
        return out


def _chunks(seed: int, total: int, *key: int):
    """Yield each chunk's slice of up to ``_CHUNK`` rows and its stream ``(*key, c)``."""
    for c, start in enumerate(range(0, total, _CHUNK)):
        yield slice(start, min(start + _CHUNK, total)), _chunk_rng(seed, *key, c)


def _increments(
    rng: np.random.Generator,
    ctx: AggregationContext,
    n: int,
    ranks: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Per-batch rank increments of periods whose batches have ``ranks``.

    Draws header losses, packet losses, then in gf256 mode the coefficients.
    """
    m = ctx.code.batch_size
    trials, batches = ranks.shape
    period = batches * m
    headers = _bernoulli(rng, ctx.d, (trials, period // n))
    received = _bernoulli(rng, ctx.f, (trials, period))
    received &= np.repeat(headers, n, axis=1)
    del headers
    # Each batch's packets are M adjacent 0/1 bytes.  Read them as w-byte words,
    # w = gcd(M, 8): multiplying a word by 0x01..01 adds its bytes into its
    # top byte.  Then add the M / w words of each batch as strided slices.
    w = math.gcd(m, 8)
    words = received.view(f"u{w}").reshape(trials, batches, m // w)
    ones = words.dtype.type(int.from_bytes(b"\x01" * w, "little"))
    top = words.dtype.type(8 * w - 8)
    counts = np.zeros((trials, batches), dtype=np.min_scalar_type(m))
    for i in range(m // w):
        counts += (words[:, :, i] * ones) >> top
    del received, words  # not held through the GF(256) draws
    if mode == RANK_COUNTING:
        return np.minimum(counts, ranks)
    return _gf_increments(rng, counts, ranks, m)


def _gf_increments(
    rng: np.random.Generator, counts: np.ndarray, ranks: np.ndarray, m: int
) -> np.ndarray:
    """Rank increments via explicit random coefficient matrices.

    A batch of rank r is recoded into M packets whose coordinates in the
    r-dimensional received space are uniform; receiving j of them yields the
    rank of a uniform j x r matrix.  Groups of equal (j, r) are ranked in
    ascending (j, r) order and row-major order within a group, so the stream
    of random draws is reproducible; a group is drawn and ranked in pieces
    of at most ``_BLOCK`` coefficients.  The coefficients are bytes 3 and 7
    of consecutive raw words, and a piece of odd size leaves its last
    word's byte 7 to the next piece, as Philox leaves its spare 32-bit
    half-word to the next ``integers`` call.
    One stable sort on the key j * (M + 1) + r, computed in int64 and stored
    in the narrowest unsigned type, where numpy sorts by radix, yields every
    group.
    """
    groups = (m + 1) ** 2
    key = counts.astype(np.int64) * (m + 1) + ranks
    key = key.ravel().astype(np.min_scalar_type(groups - 1))
    order = np.argsort(key, kind="stable")
    sizes = np.bincount(key, minlength=groups)
    ends = np.cumsum(sizes)
    inc = np.zeros(key.size, dtype=counts.dtype)
    coefficients = _Coefficients(rng)
    for k in np.flatnonzero(sizes):
        j, r = divmod(int(k), m + 1)
        if j == 0:
            continue
        group = order[ends[k] - sizes[k] : ends[k]]
        step = max(1, _BLOCK // (j * r))
        for start in range(0, group.size, step):
            piece = group[start : start + step]
            draw = coefficients(piece.size * j * r)
            inc[piece] = gf256_rank_many(draw.reshape(piece.size, j, r))
    return inc.reshape(counts.shape)


def simulate_period(config: TrialConfig) -> PeriodEstimate:
    """Estimate E by simulating whole lcm(M, N)-packet periods.

    Unlike the analytical formulas, batches sharing a frame share its header
    loss event here, so the estimate also probes that factorization.
    """
    ctx, n = config.ctx, config.n
    m = ctx.code.batch_size
    if ctx.d <= 0.0:
        raise ParameterError("header survival is zero; E is undefined")
    frames = math.lcm(m, n) // n
    batches = math.lcm(m, n) // m
    total = 0.0
    total_sq = 0.0
    hist = np.zeros(m + 1)
    for rows, rng in _chunks(config.seed, config.trials):
        ranks = _draw_ranks(rng, ctx.rank_dist, (rows.stop - rows.start, batches))
        inc = _increments(rng, ctx, n, ranks, config.mode)
        hist += np.bincount(inc.ravel(), minlength=m + 1)[: m + 1]
        per_trial = inc.sum(axis=1) / (frames * ctx.d)
        total += float(per_trial.sum())
        total_sq += float((per_trial**2).sum())
    mean = total / config.trials
    var = max(total_sq / config.trials - mean**2, 0.0)
    se = math.sqrt(var / config.trials)
    return PeriodEstimate(
        mean=mean,
        std_error=se,
        trials=config.trials,
        mode=config.mode,
        rank_histogram=tuple(hist / hist.sum()),
    )


def enumerate_period_exact(
    ctx: AggregationContext, n: int, field_size: int | None = None
) -> float:
    """Exact E by enumerating every reception outcome, batch by batch.

    Expectation is additive over the batches of a period, so each batch's
    increment is enumerated over all survival patterns of its own packets and
    the header events of the frames it touches.  It walks ``batch_lineages``
    like the production model does; only its group pmf
    (:func:`_group_pmf_brute`) is built independently, so a fault in the
    lineage walk is left to the tests' own references to catch.

    With ``field_size=None`` a batch of rank r that receives j packets gains
    min(j, r), the large-field model.  With a prime power q it gains the
    expected rank of a uniform j x r matrix over GF(q), which is exact for
    random linear recoding over that field because a batch's increment over a
    period is the rank of everything it received.
    """
    if field_size is None:
        rank = min
    elif _is_prime_power(field_size):
        def rank(j: int, r: int) -> float:
            return sum(k * p for k, p in enumerate(uniform_rank_pmf(j, r, field_size)))
    else:
        raise ParameterError(f"field size must be a prime power, got {field_size!r}")
    m = ctx.code.batch_size
    lineages = batch_lineages(m, n)
    cost = sum(2 ** (m + len(groups)) for groups in lineages)
    if cost > _MAX_ENUM_TERMS:
        raise EnumerationSizeError(
            f"enumeration needs {cost} terms, above the {_MAX_ENUM_TERMS} bound"
        )
    if ctx.d <= 0.0:
        raise ParameterError("header survival is zero; E is undefined")
    hbar = ctx.rank_dist.masses
    emin = [
        sum(hbar[r - 1] * rank(j, r) for r in range(1, m + 1)) for j in range(m + 1)
    ]
    total = 0.0
    for groups in lineages:
        pmf = np.ones(1)
        for size in groups:
            pmf = np.convolve(pmf, _group_pmf_brute(size, ctx.f, ctx.d))
        total += sum(pmf[j] * emin[j] for j in range(pmf.size))
    frames = math.lcm(m, n) // n
    return total / (frames * ctx.d)


def uniform_rank_pmf(j: int, r: int, q: int) -> list[float]:
    """Rank law of a uniform j x r matrix over GF(q): entry k is P(rank = k).

    P(rank = k) = q^-((j-k)(r-k)) * prod_{i<k} (1 - q^(i-j)) (1 - q^(i-r))
    / (1 - q^(i-k)) for k = 0..min(j, r), the count of rank-k matrices over
    q^(jr) (the rank law behind BATS code analysis; Yang & Yeung, "Batched
    Sparse Codes", IEEE Trans. IT 2014).
    """
    q = float(q)
    pmf = []
    for k in range(min(j, r) + 1):
        p = q ** (-(j - k) * (r - k))
        for i in range(k):
            p *= (1.0 - q ** (i - j)) * (1.0 - q ** (i - r)) / (1.0 - q ** (i - k))
        pmf.append(p)
    return pmf


def _is_prime_power(q: object) -> bool:
    if not isinstance(q, int) or q < 2:
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
    population starts at full rank and is carried hop to hop.  N is chosen
    per hop from the empirical rank histogram of the surviving population.
    """
    if hops < 1:
        raise ParameterError(f"hops must be >= 1, got {hops!r}")
    m = ctx.code.batch_size
    payload = ctx.code.payload
    records = []
    # About `trials` periods at N = M.
    ranks = np.full(trials * m, m, dtype=np.min_scalar_type(m))
    for hop in range(1, hops + 1):
        positive = ranks[ranks > 0]
        if positive.size == 0:
            raise ParameterError(f"population extinct before hop {hop}")
        hist = np.bincount(positive, minlength=m + 1)[1 : m + 1]
        local = ctx.with_rank_dist(RankDistribution.from_masses(hist))
        n = strategy.select(optimize_n(local)[1])
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
            next_ranks[rows] = _increments(rng, local, n, used[rows], RANK_COUNTING)
        bytes_per_period = frames * frame_size(n, ctx.channel, ctx.code)
        per_period_tp = payload * next_ranks.sum(axis=1) / bytes_per_period
        mean = float(per_period_tp.mean())
        se = float(per_period_tp.std(ddof=0) / math.sqrt(n_periods))
        records.append(HopEstimate(hop=hop, n=n, throughput=mean, std_error=se))
        ranks = next_ranks.ravel()
    return records
