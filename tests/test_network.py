import numpy as np
import pytest

from bncagg import (
    AggregationContext,
    ChannelParams,
    CodeParams,
    InfeasibleError,
    NodeStrategy,
    ParameterError,
    RankDistribution,
    aggregate_reception_pmf,
    batch_reception_distribution,
    evolve_rank_distribution,
    frame_efficiency,
    max_feasible_n,
    simulate_line_network,
)
from helpers import make_ctx, reception_pmf_bruteforce

CH = ChannelParams(baseline_plr=0.20)
CODE = CodeParams(batch_size=4, payload=256, bnc_header=6, integrity=2)


class TestNodeStrategy:
    def test_labels(self):
        assert NodeStrategy.optimal().label() == "optimal"
        assert NodeStrategy.largest().label() == "largest"
        assert NodeStrategy.fixed(1).label() == "fixed1"

    def test_bad_combinations(self):
        with pytest.raises(ParameterError):
            NodeStrategy("fixed")
        with pytest.raises(ParameterError):
            NodeStrategy("optimal", n=3)
        with pytest.raises(ParameterError):
            NodeStrategy("greedy")

    def test_largest_picks_bound(self):
        ctx = AggregationContext.build(CH, CODE)
        assert NodeStrategy.largest().select(ctx) == max_feasible_n(
            ctx.channel, ctx.code
        )

    def test_fixed_must_be_feasible(self):
        ctx = AggregationContext.build(CH, CODE)
        assert NodeStrategy.fixed(7).select(ctx) == 7
        with pytest.raises(InfeasibleError):
            NodeStrategy.fixed(99).select(ctx)


class TestReceptionPmf:
    def test_normalized(self):
        ctx = make_ctx(5, f=0.6, d=0.8)
        for n in (1, 2, 3, 5, 8):
            pmf = aggregate_reception_pmf(n, ctx)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert pmf.size == 6

    def test_lossless_all_mass_at_m(self):
        ctx = make_ctx(4, f=1.0, d=1.0)
        pmf = aggregate_reception_pmf(3, ctx)
        assert pmf[4] == pytest.approx(1.0, abs=1e-12)

    def test_single_group_case(self):
        # N >= M with M | N: every batch rides exactly one frame.
        ctx = make_ctx(3, f=0.7, d=0.9)
        pmf = aggregate_reception_pmf(6, ctx)
        from bncagg import bin_d_pmf

        for j in range(4):
            assert pmf[j] == pytest.approx(bin_d_pmf(j, 3, 0.7, 0.9), abs=1e-13)

    def test_matches_bruteforce(self):
        ctx = make_ctx(3, f=0.5, d=0.9)
        got = batch_reception_distribution(3, 5, ctx)
        expect = reception_pmf_bruteforce(3, 5, ctx)
        assert np.allclose(got, expect, atol=1e-13)

    def test_truncation_at_rank(self):
        ctx = make_ctx(4, f=0.6, d=0.8)
        out = batch_reception_distribution(2, 3, ctx)
        assert out.size == 3
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ParameterError):
            batch_reception_distribution(0, 3, ctx)
        with pytest.raises(ParameterError):
            batch_reception_distribution(5, 3, ctx)


class TestEvolution:
    def test_lossless_fixed_point(self):
        ctx = make_ctx(4, f=1.0, d=1.0, hbar=RankDistribution.truncated_binomial(4))
        hbar = RankDistribution.truncated_binomial(4)
        out = evolve_rank_distribution(hbar, 3, ctx)
        assert np.allclose(out.masses, hbar.masses, atol=1e-13)

    def test_expected_rank_never_increases(self):
        ctx = make_ctx(4, f=0.8, d=0.95)
        hbar = RankDistribution.degenerate(4)
        for _ in range(6):
            nxt = evolve_rank_distribution(hbar, 3, ctx)
            mean = sum((r + 1) * w for r, w in enumerate(nxt.masses))
            prev = sum((r + 1) * w for r, w in enumerate(hbar.masses))
            assert mean <= prev + 1e-12
            hbar = nxt

    def test_lost_mass_is_an_internal_fault(self, monkeypatch):
        import bncagg.network as network

        real = network._transition_matrix
        monkeypatch.setattr(
            network, "_transition_matrix", lambda n, ctx: 0.9 * real(n, ctx)
        )
        ctx = make_ctx(4, f=0.8, d=0.95)
        with pytest.raises(RuntimeError, match="N=3 lost mass") as info:
            evolve_rank_distribution(RankDistribution.degenerate(4), 3, ctx)
        assert not isinstance(info.value, ParameterError)
        assert "0.9" in str(info.value)


class TestLineNetwork:
    def test_trace_shape_and_determinism(self):
        ctx = AggregationContext.build(CH, CODE)
        a = simulate_line_network(5, NodeStrategy.optimal(), ctx)
        b = simulate_line_network(5, NodeStrategy.optimal(), ctx)
        assert len(a.records) == 5
        assert a == b

    def test_hop_one_matches_frame_efficiency(self):
        ctx = AggregationContext.build(CH, CODE)
        trace = simulate_line_network(1, NodeStrategy.fixed(7), ctx)
        rec = trace.records[0]
        assert rec.n == 7
        assert rec.delivered == pytest.approx(1.0, abs=1e-15)
        assert rec.efficiency == pytest.approx(
            frame_efficiency(7, ctx), abs=1e-14
        )

    def test_efficiency_decays_with_hops(self):
        ctx = AggregationContext.build(CH, CODE)
        for strategy in (NodeStrategy.optimal(), NodeStrategy.fixed(1)):
            values = simulate_line_network(8, strategy, ctx).efficiencies()
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_small_n_loses_early_but_degrades_slower(self):
        ctx = AggregationContext.build(CH, CODE)
        packed = simulate_line_network(10, NodeStrategy.optimal(), ctx)
        single = simulate_line_network(10, NodeStrategy.fixed(1), ctx)
        assert packed.efficiencies()[0] > single.efficiencies()[0]
        ratio_packed = packed.efficiencies()[-1] / packed.efficiencies()[0]
        ratio_single = single.efficiencies()[-1] / single.efficiencies()[0]
        assert ratio_single > ratio_packed

    def test_rejects_bad_hops(self):
        ctx = AggregationContext.build(CH, CODE)
        with pytest.raises(ParameterError):
            simulate_line_network(0, NodeStrategy.optimal(), ctx)
