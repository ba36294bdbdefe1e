import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bncagg import AggregationContext, ChannelParams, CodeParams, ParameterError, optimize_n
from bncagg.probability import (
    ber_from_plr,
    bin_d_pmf,
    binom_pmf,
    bnc_packet_survival,
    header_survival,
)

CH = ChannelParams(baseline_plr=0.10)
CODE = CodeParams(batch_size=4, payload=256, bnc_header=6, integrity=2)


class TestBinomPmf:
    def test_edge_cases(self):
        assert binom_pmf(0, 5, 0.0) == 1.0
        assert binom_pmf(5, 5, 1.0) == 1.0
        assert binom_pmf(3, 5, 0.0) == 0.0

    def test_hand_value(self):
        # C(4,2) * 0.8^2 * 0.2^2
        assert binom_pmf(2, 4, 0.8) == pytest.approx(0.1536, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            binom_pmf(5, 4, 0.5)
        with pytest.raises(ParameterError):
            binom_pmf(-1, 4, 0.5)
        with pytest.raises(ParameterError):
            binom_pmf(1, 4, 1.5)

    @given(st.integers(1, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_sums_to_one(self, n, x):
        total = sum(binom_pmf(k, n, x) for k in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_large_n_stable(self):
        assert 0.0 < binom_pmf(5000, 10_000, 0.5) < 1.0
        assert math.isfinite(binom_pmf(9999, 10_000, 0.999))


class TestBinDPmf:
    def test_d_one_is_binomial(self):
        for k in range(4):
            assert bin_d_pmf(k, 3, 0.4, 1.0) == pytest.approx(
                binom_pmf(k, 3, 0.4), abs=1e-15
            )

    def test_header_loss_only(self):
        assert bin_d_pmf(0, 3, 1.0, 0.6) == pytest.approx(0.4, abs=1e-15)

    def test_hand_value(self):
        assert bin_d_pmf(2, 3, 0.5, 0.9) == pytest.approx(0.3375, abs=1e-15)

    def test_empty_group_convention(self):
        # Receiving 0 of 0 packets is certain whatever d and f are.
        assert bin_d_pmf(0, 0, 0.3, 0.7) == pytest.approx(1.0, abs=1e-15)

    @given(
        st.integers(0, 40),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, n, f, d):
        total = sum(bin_d_pmf(k, n, f, d) for k in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestPlrBerConversion:
    def test_zero(self):
        assert ber_from_plr(0.0, CH, CODE) == 0.0

    @given(st.floats(0.0, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, plr):
        # The baseline frame's 316 bytes all arrive with probability 1 - plr.
        p = ber_from_plr(plr, CH, CODE)
        assert -math.expm1(8 * 316 * math.log1p(-p)) == pytest.approx(plr, abs=1e-12)

    def test_exponent_excludes_integrity_bytes(self):
        # Baseline frame counts P + P_DL + Q + H + K = 316 bytes, F excluded.
        p = ber_from_plr(0.10, CH, CODE)
        assert (1.0 - p) ** (8 * 316) == pytest.approx(0.9, abs=1e-12)


class TestSurvivalProbabilities:
    def test_header_survival(self):
        assert header_survival(0.0, CH) == 1.0
        p = ber_from_plr(0.10, CH, CODE)
        assert header_survival(p, CH) == pytest.approx((1.0 - p) ** 400, abs=1e-15)
        assert header_survival(1.0 - 1e-12, CH) < 1e-200

    def test_checksum_survival(self):
        p = ber_from_plr(0.10, CH, CODE)
        assert bnc_packet_survival(p, CODE) == pytest.approx(
            (1.0 - p) ** 2112, abs=1e-15
        )
        bare = CodeParams(batch_size=4, payload=256, bnc_header=6, integrity=0)
        assert bnc_packet_survival(p, bare) == pytest.approx(
            (1.0 - p) ** (8 * 262), abs=1e-15
        )

    def test_zero_ber(self):
        fec = CodeParams(
            batch_size=4, payload=256, bnc_header=6, integrity=3, integrity_mode="fec"
        )
        assert bnc_packet_survival(0.0, CODE) == 1.0
        assert bnc_packet_survival(0.0, fec) == 1.0

    @given(st.floats(1e-7, 0.01), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_fec_beats_checksum_at_same_length(self, p, f_bytes):
        checks = CodeParams(batch_size=4, payload=64, bnc_header=6, integrity=f_bytes)
        fec = CodeParams(
            batch_size=4,
            payload=64,
            bnc_header=6,
            integrity=f_bytes,
            integrity_mode="fec",
        )
        assert bnc_packet_survival(p, fec) >= bnc_packet_survival(p, checks)

    def test_fec_matches_symbol_enumeration(self):
        # 1-error-correcting code: survive iff at most one byte is hit.
        fec = CodeParams(
            batch_size=4, payload=10, bnc_header=2, integrity=3, integrity_mode="fec"
        )
        p = 0.001
        size = fec.packet_size
        good = (1.0 - p) ** 8
        expect = good**size + size * (1 - good) * good ** (size - 1)
        assert bnc_packet_survival(p, fec) == pytest.approx(expect, rel=1e-12)

    def test_fec_survival_stays_a_probability(self):
        # At this tiny BER the partial pmf sum rounds to 1 + 2^-52, which the
        # parent returned as f; every model call on that context then raised
        # "packet survival must be in [0, 1]".
        fec = CodeParams(
            batch_size=4, payload=256, bnc_header=6, integrity=8, integrity_mode="fec"
        )
        channel = ChannelParams(baseline_plr=2.229975029531505e-05)
        p = ber_from_plr(channel.baseline_plr, channel, fec)
        assert bnc_packet_survival(p, fec) == 1.0
        ctx = AggregationContext.build(channel, fec)
        assert optimize_n(ctx)[0] >= 1
