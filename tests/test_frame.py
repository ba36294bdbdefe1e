import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bncagg import (
    AggregationContext,
    ChannelParams,
    CodeParams,
    InfeasibleError,
    NodeStrategy,
    ParameterError,
    PhaseError,
    RankDistribution,
    expected_rank_increment,
    frame_efficiency,
    frame_size,
    max_feasible_n,
    optimize_n,
    simulate_line_network,
)
from bncagg import frame, network
from bncagg.frame import lineage_reception_pmf
from bncagg.network import aggregate_reception_pmf
from bncagg.scenario import ScenarioConfig
from helpers import (
    expected_increment,
    make_ctx,
    period_expected_increment,
    scan_reference,
)
from reference import beta, beta_prime, gamma, gamma_prime, omega, phase_average_increment

CH = ChannelParams(baseline_plr=0.10)
CODE = CodeParams(batch_size=4, payload=256, bnc_header=6, integrity=2)


class TestFrameSize:
    def test_single_packet(self):
        assert frame_size(1, CH, CODE) == 318

    def test_jumbo_bound(self):
        assert frame_size(33, CH, CODE) == 54 + 33 * 264 == 8766

    def test_rejects_zero(self):
        for n in (0, np.int64(0), 2.0, "3"):
            with pytest.raises(ParameterError):
                frame_size(n, CH, CODE)


class TestMaxFeasibleN:
    def test_reference_parameter_sets(self):
        assert max_feasible_n(CH, CODE) == 33
        small = dataclasses.replace(CODE, payload=110)
        assert max_feasible_n(CH, small) == 76

    def test_exact_boundary(self):
        ch = ChannelParams(max_payload=28 + 264, baseline_plr=0.1)
        assert max_feasible_n(ch, CODE) == 1

    def test_infeasible(self):
        ch = ChannelParams(max_payload=100, baseline_plr=0.1)
        with pytest.raises(InfeasibleError):
            max_feasible_n(ch, CODE)


class TestBetaPrime:
    def test_empty(self):
        ctx = make_ctx(3, f=0.5, d=0.9)
        assert beta_prime(0, ctx) == 0.0

    def test_lossless_degenerate(self):
        ctx = make_ctx(4, f=1.0, d=1.0)
        for l in range(5):
            assert beta_prime(l, ctx) == pytest.approx(l, abs=1e-12)

    def test_hand_value(self):
        # M=2, uniform ranks, f=1/2, l=2:
        # 0.25 * 0 + 0.5 * 1 + 0.25 * 1.5 = 0.875
        ctx = make_ctx(2, f=0.5, d=1.0, hbar=RankDistribution.from_masses([0.5, 0.5]))
        assert beta_prime(2, ctx) == pytest.approx(0.875, abs=1e-12)

    def test_nondecreasing_in_length(self):
        ctx = make_ctx(5, f=0.6, d=0.8, hbar=RankDistribution.truncated_binomial(5))
        values = [beta_prime(l, ctx) for l in range(6)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        ctx = make_ctx(3, f=0.5, d=0.9)
        with pytest.raises(ParameterError):
            beta_prime(4, ctx)


class TestBeta:
    def test_equals_beta_prime_at_full_batch(self):
        ctx = make_ctx(4, f=0.35, d=0.7, hbar=RankDistribution.truncated_binomial(4))
        assert beta(4, ctx) == pytest.approx(beta_prime(4, ctx), abs=1e-14)

    def test_lossless_degenerate(self):
        ctx = make_ctx(4, f=1.0, d=1.0)
        for l in range(1, 5):
            assert beta(l, ctx) == pytest.approx(l, abs=1e-12)

    def test_against_enumeration(self):
        hbar = RankDistribution.from_masses([0.5, 0.5])
        ctx = make_ctx(2, f=0.5, d=0.5, hbar=hbar)
        assert beta(1, ctx) == pytest.approx(
            expected_increment([1], 1, ctx), abs=1e-13
        )

    def test_never_exceeds_fresh_batch(self):
        ctx = make_ctx(6, f=0.55, d=0.85, hbar=RankDistribution.truncated_binomial(6))
        for l in range(1, 7):
            assert beta(l, ctx) <= beta_prime(l, ctx) + 1e-15


class TestOmega:
    def test_no_history(self):
        ctx = make_ctx(4, f=0.5, d=0.8)
        assert omega(3, 2, 0, 0, 0, 2, ctx) == pytest.approx(2.0, abs=1e-13)
        assert omega(3, 2, 0, 0, 2, 2, ctx) == pytest.approx(1.0, abs=1e-13)

    def test_zero_new_packets(self):
        ctx = make_ctx(4, f=0.5, d=0.8)
        assert omega(4, 0, 1, 1, 0, 2, ctx) == 0.0

    def test_hand_value(self):
        # One full earlier frame of 2, one earlier partial of 1, d=1, f=1/2:
        # E[(min(2, 3 - t))^+] with t = Bin(2, .5) + Bin(1, .5) -> 1.375.
        ctx = make_ctx(4, f=0.5, d=1.0)
        assert omega(3, 2, 1, 1, 0, 2, ctx) == pytest.approx(1.375, abs=1e-13)

    def test_against_enumeration(self):
        ctx = make_ctx(5, f=0.6, d=0.7, hbar=RankDistribution.degenerate(5, 4))
        # r=4, j=2, 2 earlier frames of N=2 and a partial of 1.
        got = omega(4, 2, 1, 2, 0, 2, ctx)
        hbar = RankDistribution.degenerate(5, 4)
        single = make_ctx(5, f=0.6, d=0.7, hbar=hbar)
        # enumeration: prior groups [1, 2, 2], current j fixed at 2 requires a
        # direct sum instead of expected_increment, so enumerate explicitly.
        from helpers import enum_group_counts

        expect = 0.0
        for prob, counts in enum_group_counts(
            [1, 2, 2], single.f, single.d, [True, True, True]
        ):
            expect += prob * max(min(2, 4 - sum(counts)), 0)
        assert got == pytest.approx(expect, abs=1e-13)

    def test_depth_guard(self):
        ctx = make_ctx(4, f=0.5, d=0.8)
        with pytest.raises(ParameterError):
            omega(3, 2, 1, 4, 0, 2, ctx)


class TestGamma:
    def test_reduces_to_beta_when_single_prior_frame(self):
        # M - l < N means the earlier packets all rode one frame.
        ctx = make_ctx(7, f=0.5, d=0.9, hbar=RankDistribution.truncated_binomial(7))
        assert gamma(4, 5, ctx) == pytest.approx(beta(4, ctx), abs=1e-13)

    def test_lossless(self):
        hbar = RankDistribution.truncated_binomial(7)
        ctx = make_ctx(7, f=1.0, d=1.0, hbar=hbar)
        for l in (1, 2, 3, 4):
            expect = sum(
                hbar.masses[r - 1] * max(min(l, r - (7 - l)), 0) for r in range(1, 8)
            )
            assert gamma(l, 5, ctx) == pytest.approx(expect, abs=1e-13)

    def test_against_enumeration(self):
        hbar = RankDistribution.from_masses([1.0 / 7] * 7)
        ctx = make_ctx(7, f=0.5, d=0.9, hbar=hbar)
        assert gamma(2, 5, ctx) == pytest.approx(
            expected_increment([5], 2, ctx), abs=1e-13
        )
        # With N=3 the five earlier packets split (2, 3): exercises depth 1.
        assert gamma(2, 3, ctx) == pytest.approx(
            expected_increment([2, 3], 2, ctx), abs=1e-13
        )


class TestGammaPrime:
    def test_fresh_full_frame(self):
        ctx = make_ctx(7, f=0.8, d=0.95, hbar=RankDistribution.truncated_binomial(7))
        assert gamma_prime(0, 0, 5, ctx) == pytest.approx(
            beta_prime(5, ctx), abs=1e-13
        )

    def test_lossless(self):
        hbar = RankDistribution.truncated_binomial(7)
        ctx = make_ctx(7, f=1.0, d=1.0, hbar=hbar)
        expect = sum(
            hbar.masses[r - 1] * max(min(5, r - 2), 0) for r in range(1, 8)
        )
        assert gamma_prime(2, 0, 5, ctx) == pytest.approx(expect, abs=1e-13)

    def test_against_enumeration(self):
        ctx = make_ctx(7, f=0.8, d=0.95, hbar=RankDistribution.degenerate(7))
        assert gamma_prime(2, 0, 5, ctx) == pytest.approx(
            expected_increment([2], 5, ctx), abs=1e-13
        )

    def test_invalid_pair(self):
        ctx = make_ctx(7, f=0.8, d=0.95)
        with pytest.raises(PhaseError):
            gamma_prime(3, 1, 5, ctx)


class TestExpectedRankIncrement:
    def test_lossless_equals_n(self):
        ctx = make_ctx(4, f=1.0, d=1.0)
        for n in (1, 2, 3, 4, 5, 7, 12, 33):
            assert expected_rank_increment(n, ctx) == pytest.approx(n, abs=1e-9)

    def test_single_packet_batches(self):
        ctx = make_ctx(1, f=0.7, d=0.9)
        assert expected_rank_increment(5, ctx) == pytest.approx(5 * 0.7, abs=1e-12)

    @pytest.mark.parametrize(
        "m,n",
        [(2, 3), (3, 2), (4, 4), (3, 5), (7, 5), (7, 3), (5, 4), (8, 6)],
    )
    def test_matches_full_enumeration(self, m, n):
        hbar = RankDistribution.truncated_binomial(m)
        ctx = make_ctx(m, f=0.6, d=0.85, hbar=hbar)
        assert expected_rank_increment(n, ctx) == pytest.approx(
            period_expected_increment(n, ctx), abs=1e-12
        )

    @given(
        st.integers(1, 6),
        st.integers(1, 8),
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_bounded_by_n(self, m, n, f, d):
        ctx = make_ctx(m, f=f, d=d, hbar=RankDistribution.truncated_binomial(m))
        e = expected_rank_increment(n, ctx)
        assert 0.0 <= e <= n + 1e-12


class TestEfficiencyAndOptimizer:
    def test_lossless_efficiency_is_header_ratio(self):
        ctx = AggregationContext.build(
            ChannelParams(baseline_plr=0.0), CODE, RankDistribution.degenerate(4)
        )
        for n in (1, 10, 33):
            expect = 256.0 * n / frame_size(n, ctx.channel, CODE)
            assert frame_efficiency(n, ctx) == pytest.approx(expect, abs=1e-12)

    def test_lossless_optimum_is_largest(self):
        ctx = AggregationContext.build(
            ChannelParams(baseline_plr=0.0), CODE, RankDistribution.degenerate(4)
        )
        best, profile = optimize_n(ctx)
        assert best == profile.n_max == 33
        values = profile.efficiency
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_infeasible_n_rejected(self):
        ctx = AggregationContext.build(CH, CODE, RankDistribution.degenerate(4))
        with pytest.raises(InfeasibleError):
            frame_efficiency(34, ctx)
        with pytest.raises(InfeasibleError):
            frame_efficiency(np.int64(34), ctx)

    def test_regression_scan_values(self):
        # Frozen from an exhaustive scan cross-checked by the period oracle.
        ctx = AggregationContext.build(
            CH, CODE, RankDistribution.truncated_binomial(4)
        )
        best, profile = optimize_n(ctx)
        assert best == 33
        assert profile.value(33) == pytest.approx(0.7228611, abs=5e-7)
        not_monotone = any(
            profile.efficiency[i] > profile.efficiency[i + 1]
            for i in range(14, 32)
        )
        assert not_monotone


class TestHeaderLossTotal:
    # At a bit error rate near 1, d = (1 - p)^400 underflows to zero.
    CTX = AggregationContext.build(
        ChannelParams(ber=0.9), CODE, RankDistribution.truncated_binomial(4)
    )

    def test_d_underflows(self):
        assert self.CTX.d == 0.0

    def test_expected_rank_increment_undefined(self):
        with pytest.raises(ParameterError):
            expected_rank_increment(3, self.CTX)

    def test_efficiency_is_zero_and_optimum_is_one(self):
        assert frame_efficiency(5, self.CTX) == 0.0
        best, profile = optimize_n(self.CTX)
        assert best == 1
        assert profile.efficiency == (0.0,) * 33


class TestReceptionPmfCache:
    def test_returned_pmf_is_a_copy(self):
        ctx = make_ctx(4, f=0.6, d=0.8, hbar=RankDistribution.truncated_binomial(4))
        before = expected_rank_increment(3, ctx)
        pmf = aggregate_reception_pmf(3, ctx)
        pmf[:] = 0.0
        pmf[0] = 1.0
        assert expected_rank_increment(3, ctx) == before
        assert aggregate_reception_pmf(3, ctx)[0] < 1.0

    def test_cached_pmf_is_read_only(self):
        ctx = make_ctx(4, f=0.6, d=0.8)
        with pytest.raises(ValueError):
            lineage_reception_pmf(3, ctx)[0] = 1.0

    def test_key_includes_f_and_d(self):
        # With full-rank batches E = N * f whatever d is, so use lower ranks.
        hbar = RankDistribution.truncated_binomial(4)
        base = make_ctx(4, f=0.6, d=0.8, hbar=hbar)
        other_f = make_ctx(4, f=0.7, d=0.8, hbar=hbar)
        other_d = make_ctx(4, f=0.6, d=0.9, hbar=hbar)
        pmf = aggregate_reception_pmf(3, base)
        assert not np.allclose(pmf, aggregate_reception_pmf(3, other_f))
        assert not np.allclose(pmf, aggregate_reception_pmf(3, other_d))
        assert expected_rank_increment(3, base) != expected_rank_increment(3, other_f)
        assert expected_rank_increment(3, base) != expected_rank_increment(3, other_d)


class TestReceptionTable:
    """Every use of the model reads one cached table per (M, n_max, f, d)."""

    @pytest.mark.parametrize("m", (4, 16, 32))
    def test_scalar_is_the_scan_entry(self, m):
        code = CodeParams(batch_size=m, payload=64, bnc_header=m + 2, integrity=2)
        hbar = RankDistribution.truncated_binomial(m)
        ctx = AggregationContext.build(ChannelParams(baseline_plr=0.2), code, hbar)
        profile = optimize_n(ctx)[1]
        for n in range(1, profile.n_max + 1):
            assert frame_efficiency(n, ctx) == profile.efficiency[n - 1], n

    def test_scan_and_line_network_build_one_table(self):
        # A loss rate no other test uses, so the table is not cached yet.
        ctx = AggregationContext.build(ChannelParams(baseline_plr=0.1734), CODE)
        before = frame._reception_table.cache_info().misses
        optimize_n(ctx)
        simulate_line_network(10, NodeStrategy.optimal(), ctx)
        assert frame._reception_table.cache_info().misses == before + 1

    @pytest.mark.parametrize("mtu", (400, 200))
    def test_defined_beyond_n_max(self, mtu):
        # At L = 400 only N = 1 fits and at L = 200 no N does, yet E(N) and
        # pi_N stay defined for every N.
        hbar = RankDistribution.truncated_binomial(4)
        ctx = make_ctx(4, f=0.6, d=0.85, hbar=hbar, payload=256, mtu=mtu)
        for n in range(1, 12):
            assert expected_rank_increment(n, ctx) == pytest.approx(
                phase_average_increment(n, ctx), rel=1e-12
            ), n
            assert lineage_reception_pmf(n, ctx).sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(InfeasibleError):
            frame_efficiency(2, ctx)

    def test_rejects_bad_n(self):
        ctx = make_ctx(4, f=0.6, d=0.85)
        for fn in (expected_rank_increment, lineage_reception_pmf, frame_efficiency):
            for n in (0, -1, 2.0, np.float64(2.0), "3", None, np.int64(0)):
                with pytest.raises(ParameterError):
                    fn(n, ctx)


class TestNumpyIntegerN:
    """A numpy integer N is the same N as the Python int, at every entry point."""

    CTX = make_ctx(4, f=0.6, d=0.85, hbar=RankDistribution.truncated_binomial(4), payload=256)

    @pytest.mark.parametrize("to_numpy", [np.int64, np.int32])
    @pytest.mark.parametrize("n", [1, 3, 33])
    def test_same_value(self, n, to_numpy):
        ctx, k = self.CTX, to_numpy(n)
        size = frame_size(k, ctx.channel, ctx.code)
        assert type(size) is int and size == frame_size(n, ctx.channel, ctx.code)
        assert expected_rank_increment(k, ctx) == expected_rank_increment(n, ctx)
        assert frame_efficiency(k, ctx) == frame_efficiency(n, ctx)
        assert optimize_n(ctx)[1].value(k) == optimize_n(ctx)[1].value(n)
        assert lineage_reception_pmf(k, ctx).tolist() == lineage_reception_pmf(n, ctx).tolist()

    def test_cache_keys_stay_python_ints(self):
        # Above n_max the requested N sets the table's row count.
        key = frame._table_key(self.CTX, np.int64(40))
        assert key[1] == 40 and type(key[1]) is int


class TestScanPlan:
    """One cached, read-only scan plan per reception table and frame layout."""

    def test_plan_arrays_are_read_only(self):
        ctx = make_ctx(4, f=0.6, d=0.8)
        n_max = max_feasible_n(ctx.channel, ctx.code)
        plan = frame._plan(ctx, n_max)
        assert plan is frame._plan(ctx, n_max)
        assert plan.table is frame._reception_table(*frame._table_key(ctx, n_max))
        for array in plan:
            assert len(array) == n_max
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_plan_holds_scale_and_frame_sizes(self):
        ctx = make_ctx(16, f=0.7, d=0.9, payload=256)
        n_max = max_feasible_n(ctx.channel, ctx.code)
        plan = frame._plan(ctx, n_max)
        for n in range(1, n_max + 1):
            assert plan.scale[n - 1] == n / 16
            assert plan.sizes[n - 1] == frame_size(n, ctx.channel, ctx.code)

    def test_repeated_line_network_misses_no_cache(self):
        # A loss rate no other test uses, so the first run fills the caches.
        ctx = ScenarioConfig(batch_size=16, payload=256).context(0.1837, "checksum")
        simulate_line_network(10, NodeStrategy.optimal(), ctx)
        caches = (frame._reception_table, frame._scan_plan, network._transition)
        before = [cache.cache_info().misses for cache in caches]
        simulate_line_network(10, NodeStrategy.optimal(), ctx)
        assert [cache.cache_info().misses for cache in caches] == before

    @pytest.mark.parametrize("mode", ["checksum", "fec"])
    @pytest.mark.parametrize(
        "m, payload", [(4, 256), (16, 256), (32, 1024), (12, 256), (5, 110)]
    )
    def test_scan_equals_inline_formula(self, m, payload, mode):
        # M = 12 and 5 also catch an N / M that is not divided per entry.
        ctx = ScenarioConfig(batch_size=m, payload=payload).context(0.2, mode)
        masses = np.arange(1.0, m + 1) ** 3
        for hbar in (
            RankDistribution.degenerate(m),
            RankDistribution.truncated_binomial(m, 0.7),
            RankDistribution.from_masses(masses),
        ):
            local = ctx.with_rank_dist(hbar)
            assert optimize_n(local) == scan_reference(local), hbar


class TestPhaseAverageReference:
    """Production E against the paper's phase-average terms, to 1e-12."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_criterion_5_grid(self, m):
        code = CodeParams(batch_size=m, payload=64, bnc_header=m + 2, integrity=2)
        for hbar in (
            RankDistribution.degenerate(m),
            RankDistribution.truncated_binomial(m, 0.8),
        ):
            base = AggregationContext.build(ChannelParams(baseline_plr=0.1), code, hbar)
            for n in range(1, 9):
                for f in (0.3, 0.6, 1.0):
                    for d in (0.5, 0.85, 1.0):
                        ctx = dataclasses.replace(base, f=f, d=d)
                        assert expected_rank_increment(n, ctx) == pytest.approx(
                            phase_average_increment(n, ctx), rel=1e-12
                        ), (m, n, f, d)

    @pytest.mark.parametrize("m,ns", [(16, range(1, 33)), (32, (1, 3, 7, 8))])
    def test_large_batches(self, m, ns):
        ctx = make_ctx(m, f=0.6, d=0.85, hbar=RankDistribution.truncated_binomial(m, 0.8))
        for n in ns:
            assert expected_rank_increment(n, ctx) == pytest.approx(
                phase_average_increment(n, ctx), rel=1e-12
            ), n
