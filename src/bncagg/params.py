"""Parameter types shared by the analytical model and the simulators."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

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

    Exactly one of ``baseline_plr`` (loss rate of an unaggregated
    single-BNC-packet frame) or ``ber`` (independent bit error rate) must be
    given; the other is derived on demand.
    """

    max_payload: int = 9000
    proto_header: int = 28
    dl_header: int = 22
    dl_trailer: int = 4
    baseline_plr: float | None = None
    ber: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_payload", "proto_header", "dl_header", "dl_trailer"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ParameterError(
                    f"{name} must be a nonnegative integer, got {value!r}"
                )
        if (self.baseline_plr is None) == (self.ber is None):
            raise ParameterError("exactly one of baseline_plr or ber must be set")
        loss = self.baseline_plr if self.ber is None else self.ber
        if not (isinstance(loss, (int, float)) and 0.0 <= loss < 1.0):
            raise ParameterError(f"loss rate must be in [0, 1), got {loss!r}")


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
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if not isinstance(self.payload, int) or self.payload < 1:
            raise ParameterError(f"payload must be >= 1, got {self.payload!r}")
        for name in ("bnc_header", "integrity"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ParameterError(
                    f"{name} must be a nonnegative integer, got {value!r}"
                )
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
        masses = self.masses
        if len(masses) < 1:
            raise ParameterError("rank distribution needs at least one rank")
        # A NaN or infinite mass makes the sum non-finite; only then are the
        # masses read one by one, to tell it from finite masses that overflow.
        total = sum(masses)
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
        """
        masses = np.asarray(masses, dtype=np.float64)
        if masses.ndim != 1:
            raise ParameterError(
                f"rank masses must form a 1-d sequence, got shape {masses.shape}"
            )
        total = sum(masses.tolist())
        if total == math.inf and np.isfinite(masses).all():
            masses = masses / masses.max()
            total = sum(masses.tolist())
        if not (math.isfinite(total) and total > 0.0):
            raise ParameterError(
                f"rank masses must have a positive finite total, got {total!r}"
            )
        return cls(tuple((masses / total).tolist()))

    @classmethod
    def degenerate(cls, batch_size: int, rank: int | None = None) -> "RankDistribution":
        """All mass on one rank (defaults to the full batch size)."""
        if rank is None:
            rank = batch_size
        if not 1 <= rank <= batch_size:
            raise ParameterError(f"rank must be in 1..{batch_size}, got {rank!r}")
        return cls(tuple(1.0 if r == rank else 0.0 for r in range(1, batch_size + 1)))

    @classmethod
    def truncated_binomial(cls, batch_size: int, success: float = 0.8) -> "RankDistribution":
        """Binomial(M, success) masses over 1..M, renormalized without rank 0."""
        from .probability import binom_pmf

        masses = [binom_pmf(r, batch_size, success) for r in range(1, batch_size + 1)]
        return cls.from_masses(masses)
