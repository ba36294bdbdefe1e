"""Probability primitives for the loss model.

Everything here is a pure function of its arguments.  Binomial masses are
evaluated in log space so that aggregate sizes in the thousands stay finite.
"""

from __future__ import annotations

import math

from .params import CHECKSUM, ChannelParams, CodeParams, ParameterError
from .params import nonnegative_int, ordered_sum, probability


def binom_pmf(k: int, n: int, x: float) -> float:
    """P[Binomial(n, x) = k], stable for n up to ~1e4."""
    k = nonnegative_int(k, "k")
    n = nonnegative_int(n, "n")
    if k > n:
        raise ParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
    x = probability(x, "success probability")
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    if x == 1.0:
        return 1.0 if k == n else 0.0
    log_comb = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )
    return math.exp(log_comb + k * math.log(x) + (n - k) * math.log1p(-x))


def bin_d_pmf(k: int, n: int, f: float, d: float) -> float:
    """Mass of receiving k of n BNC packets that share one frame header.

    The header arrives with probability ``d``; if it is lost the whole
    payload is lost, which folds into the k = 0 branch.  Each packet in a
    delivered payload survives independently with probability ``f``.
    """
    d = probability(d, "header survival")
    f = probability(f, "packet survival")
    if nonnegative_int(k, "k") == 0:
        return (1.0 - d) + d * (1.0 - f) ** nonnegative_int(n, "n")
    return d * binom_pmf(k, n, f)


def ber_from_plr(plr: float, channel: ChannelParams, code: CodeParams) -> float:
    """Bit error rate that reproduces the baseline packet loss rate.

    The baseline frame carries a single BNC packet with no integrity field,
    so the exponent counts P + P_DL + Q + H + K bytes (F excluded).
    """
    plr = probability(plr, "plr", below_one=True)
    bits = 8 * (
        channel.proto_header
        + channel.dl_header
        + channel.dl_trailer
        + code.bnc_header
        + code.payload
    )
    return -math.expm1(math.log1p(-plr) / bits)


def header_survival(p: float, channel: ChannelParams) -> float:
    """Probability d that the non-corruptible protocol bytes arrive intact."""
    p = probability(p, "ber", below_one=True)
    bits = 8 * (channel.proto_header + channel.dl_header)
    return (1.0 - p) ** bits


def bnc_packet_survival(p: float, code: CodeParams) -> float:
    """Probability f that one BNC packet inside a delivered payload is accepted.

    Checksum mode drops the packet on any bit error.  FEC mode models an
    error correcting code over byte symbols that corrects up to F // 2
    symbol errors; miscorrection is not modeled.
    """
    p = probability(p, "ber", below_one=True)
    size = code.packet_size
    if code.integrity_mode == CHECKSUM:
        return (1.0 - p) ** (8 * size)
    symbol_error = -math.expm1(8.0 * math.log1p(-p)) if p > 0.0 else 0.0
    errors = range(code.integrity // 2 + 1)
    # At a tiny BER the partial sum of the pmf can round to just above 1.
    return min(ordered_sum(binom_pmf(e, size, symbol_error) for e in errors), 1.0)
