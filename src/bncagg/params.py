"""Parameter types shared by the analytical model and the simulators.

Each scalar rule is stated here once, and every check of such a value calls it:
``positive_int`` (a count), ``nonnegative_int`` (a byte size or a seed) and
``probability`` (d, f or a success rate in [0, 1]; a PLR or a BER in [0, 1)).
Numpy numbers of any width pass; NaN, None, strings and arrays raise.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np


class ParameterError(ValueError):
    """A parameter or argument is outside its domain."""


class InfeasibleError(ParameterError):
    """No aggregation count satisfies the frame size constraint."""


class PhaseError(ParameterError):
    """A phase index or (s, k) pair is not valid for the given (M, N)."""


class EnumerationSizeError(ParameterError):
    """An exact enumeration would exceed the supported instance size."""


_NORM_TOL = 1e-12


def positive_int(value, name: str = "aggregation count") -> int:
    """``value`` as a Python int >= 1; numpy integers pass, floats do not."""
    try:
        count = operator.index(value)
    except TypeError:
        count = 0  # not an integer: rejected below with the same message
    if count < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return count


def nonnegative_int(value, name: str) -> int:
    """``value`` as a Python int >= 0; numpy integers pass, floats do not."""
    try:
        count = operator.index(value)
    except TypeError:
        count = -1  # not an integer: rejected below with the same message
    if count < 0:
        raise ParameterError(f"{name} must be a nonnegative integer, got {value!r}")
    return count


def probability(value, name: str, below_one: bool = False) -> float:
    """``value`` as a Python float in [0, 1], or in [0, 1) if ``below_one``."""
    if isinstance(value, numbers.Real) and 0.0 <= value <= 1.0:
        if value < 1.0 or not below_one:
            return float(value)
    raise ParameterError(f"{name} must be in [0, 1{')' if below_one else ']'}, got {value!r}")


def ordered_sum(values) -> float:
    """Floats added left to right from 0.0, as ``sum`` did before Python 3.12 compensated."""
    total = 0.0
    for value in values:
        total += value
    return total


CHECKSUM = "checksum"
FEC = "fec"


@dataclass(frozen=True)
class ChannelParams:
    """Byte layout of the encapsulation plus the loss model of one link.

    All sizes are in bytes.  ``max_payload`` is the largest network layer
    packet the link carries, ``proto_header`` the checksummed IP + transport
    headers, ``dl_header`` the data-link bytes that must arrive intact and
    ``dl_trailer`` the data-link bytes that may be corrupted (e.g. a frame
    check sequence that is ignored).

    ``baseline_plr``, a required keyword, is the loss rate of an
    unaggregated single-BNC-packet frame, in [0, 1); the model derives the
    bit error rate from it.
    """

    max_payload: int = 9000
    proto_header: int = 28
    dl_header: int = 22
    dl_trailer: int = 4
    baseline_plr: float = field(kw_only=True)

    def __post_init__(self) -> None:
        for name in ("max_payload", "proto_header", "dl_header", "dl_trailer"):
            object.__setattr__(self, name, nonnegative_int(getattr(self, name), name))
        probability(self.baseline_plr, "loss rate", below_one=True)


@dataclass(frozen=True)
class CodeParams:
    """Batched-code parameters and the per-packet integrity mechanism.

    ``batch_size`` is the number of coded packets per batch (M), ``payload``
    the coded payload size in bytes (K), ``bnc_header`` the per-packet header
    (H) and ``integrity`` the integrity field size (F).  In ``checksum`` mode
    any bit error drops the BNC packet; in ``fec`` mode an error correcting
    code over byte symbols corrects up to ``integrity // 2`` symbol errors.
    """

    batch_size: int
    payload: int
    bnc_header: int
    integrity: int
    integrity_mode: str = CHECKSUM

    def __post_init__(self) -> None:
        for name in ("batch_size", "payload", "bnc_header", "integrity"):
            rule = positive_int if name in ("batch_size", "payload") else nonnegative_int
            object.__setattr__(self, name, rule(getattr(self, name), name))
        if self.integrity_mode not in (CHECKSUM, FEC):
            raise ParameterError(
                f"integrity_mode must be {CHECKSUM!r} or {FEC!r},"
                f" got {self.integrity_mode!r}"
            )
        if self.integrity_mode == FEC and self.integrity < 1:
            raise ParameterError("fec mode requires at least one integrity byte")

    @property
    def packet_size(self) -> int:
        """Total size of one BNC packet in bytes (header + payload + integrity)."""
        return self.bnc_header + self.payload + self.integrity


@dataclass(frozen=True)
class RankDistribution:
    """Probability mass over batch ranks 1..M at a node.

    ``masses[r - 1]`` is the probability of rank ``r``.  Rank 0 is outside
    the support; batches that lose every packet are accounted for separately
    by the hop-evolution code.
    """

    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        # A list or an array is kept as a tuple, so equal masses give equal,
        # hashable distributions.
        masses = tuple(self.masses)
        object.__setattr__(self, "masses", masses)
        if len(masses) < 1:
            raise ParameterError("rank distribution needs at least one rank")
        # A NaN or infinite mass makes the sum non-finite; only then are the
        # masses read one by one, to tell it from finite masses that overflow.
        total = ordered_sum(masses)
        if not math.isfinite(total) and not all(map(math.isfinite, masses)):
            raise ParameterError("rank masses must be finite")
        if min(masses) < 0.0:
            raise ParameterError("rank masses must be nonnegative")
        if abs(total - 1.0) > _NORM_TOL:
            raise ParameterError(f"rank masses must sum to 1, got {total!r}")

    @property
    def batch_size(self) -> int:
        return len(self.masses)

    @classmethod
    def from_masses(cls, masses) -> "RankDistribution":
        """Normalize ``masses`` (indexed by rank - 1) and build a distribution.

        Finite masses whose sum overflows are first divided by the largest.
        The normalized masses go through the constructor, which checks them.
        """
        masses = np.asarray(masses, dtype=np.float64)
        if masses.ndim != 1:
            raise ParameterError(
                f"rank masses must form a 1-d sequence, got shape {masses.shape}"
            )
        values = masses.tolist()
        total = ordered_sum(values)
        if total == math.inf and np.isfinite(masses).all():
            values = (masses / masses.max()).tolist()
            total = ordered_sum(values)
        if not (math.isfinite(total) and total > 0.0):
            raise ParameterError(
                f"rank masses must have a positive finite total, got {total!r}"
            )
        return cls(tuple([value / total for value in values]))

    @classmethod
    def degenerate(cls, batch_size: int, rank: int | None = None) -> "RankDistribution":
        """All mass on one rank (defaults to the full batch size)."""
        batch_size = positive_int(batch_size, "batch_size")
        rank = batch_size if rank is None else positive_int(rank, "rank")
        if rank > batch_size:
            raise ParameterError(f"rank must be in 1..{batch_size}, got {rank!r}")
        return cls(tuple(1.0 if r == rank else 0.0 for r in range(1, batch_size + 1)))

    @classmethod
    def truncated_binomial(cls, batch_size: int, success: float = 0.8) -> "RankDistribution":
        """Binomial(M, success) masses over 1..M, renormalized without rank 0."""
        from .probability import binom_pmf

        batch_size = positive_int(batch_size, "batch_size")
        masses = [binom_pmf(r, batch_size, success) for r in range(1, batch_size + 1)]
        return cls.from_masses(masses)
