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
    frame_efficiency,
    max_feasible_n,
    optimize_n,
    simulate_line_network,
)
from bncagg import frame, network
from bncagg.network import _evolve_full, _transition_matrix, aggregate_reception_pmf
from bncagg.scenario import ScenarioConfig
from helpers import line_network_reference, make_ctx, reception_pmf_bruteforce

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

    def test_optimal_picks_best(self):
        best, profile = optimize_n(AggregationContext.build(CH, CODE))
        assert NodeStrategy.optimal().select(profile) == best == profile.best_n

    def test_largest_picks_bound(self):
        ctx = AggregationContext.build(CH, CODE)
        assert NodeStrategy.largest().select(optimize_n(ctx)[1]) == max_feasible_n(
            ctx.channel, ctx.code
        )

    def test_fixed_must_be_feasible(self):
        profile = optimize_n(AggregationContext.build(CH, CODE))[1]
        assert NodeStrategy.fixed(7).select(profile) == 7
        assert NodeStrategy.fixed(profile.n_max).select(profile) == profile.n_max
        with pytest.raises(InfeasibleError):
            NodeStrategy.fixed(99).select(profile)
        with pytest.raises(InfeasibleError):
            NodeStrategy.fixed(profile.n_max + 1).select(profile)


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
        from bncagg.probability import bin_d_pmf

        for j in range(4):
            assert pmf[j] == pytest.approx(bin_d_pmf(j, 3, 0.7, 0.9), abs=1e-13)

    def test_matches_bruteforce(self):
        ctx = make_ctx(3, f=0.5, d=0.9)
        got = _transition_matrix(5, ctx)[3]
        expect = reception_pmf_bruteforce(3, 5, ctx)
        assert np.allclose(got, expect, atol=1e-13)

    def test_truncation_at_rank(self):
        # Row r of the hop transition is the next-hop rank pmf of a rank-r
        # batch: nothing above r, and the mass of j >= r received sits at r.
        ctx = make_ctx(4, f=0.6, d=0.8)
        t = _transition_matrix(3, ctx)
        assert t.shape == (5, 5)
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)
        assert not np.triu(t, k=1).any()
        for r in range(5):
            assert np.allclose(t[r, :r], aggregate_reception_pmf(3, ctx)[:r], atol=0)


class TestEvolution:
    def test_lossless_fixed_point(self):
        ctx = make_ctx(4, f=1.0, d=1.0)
        full = np.concatenate(([0.0], RankDistribution.truncated_binomial(4).masses))
        assert np.allclose(_evolve_full(full, 3, ctx), full, atol=1e-13)
        trace = simulate_line_network(4, NodeStrategy.fixed(3), ctx)
        for rec in trace.records:
            assert rec.delivered == pytest.approx(1.0, abs=1e-13)
            assert np.allclose(rec.rank_dist.masses, (0.0, 0.0, 0.0, 1.0), atol=1e-13)

    def test_expected_rank_never_increases(self):
        ctx = make_ctx(4, f=0.8, d=0.95)
        trace = simulate_line_network(7, NodeStrategy.fixed(3), ctx)
        means = [
            sum(r * w for r, w in enumerate(rec.rank_dist.masses, start=1))
            for rec in trace.records
        ]
        assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
        assert means[-1] < means[0]

    def test_lost_mass_is_an_internal_fault(self, monkeypatch):
        import bncagg.network as network

        real = network._transition_matrix
        monkeypatch.setattr(
            network, "_transition_matrix", lambda n, ctx: 0.9 * real(n, ctx)
        )
        ctx = make_ctx(4, f=0.8, d=0.95)
        with pytest.raises(RuntimeError, match="N=3 lost mass") as info:
            simulate_line_network(2, NodeStrategy.fixed(3), ctx)
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


STRATEGIES = (
    NodeStrategy.optimal(),
    NodeStrategy.largest(),
    NodeStrategy.fixed(1),
    NodeStrategy.fixed(3),
)


class TestHopRecordsUnchanged:
    """Every hop record equals the per-hop rebuild, float for float."""

    @pytest.mark.parametrize("mode", ["checksum", "fec"])
    # M = 5 and 12 are there because N / M and N * (1 / M) are the same
    # float at the powers of two.
    @pytest.mark.parametrize(
        "m, payload", [(4, 256), (16, 256), (32, 1024), (5, 256), (12, 256)]
    )
    def test_records_equal_reference(self, m, payload, mode):
        ctx = ScenarioConfig(batch_size=m, payload=payload).context(0.2, mode)
        for strategy in STRATEGIES:
            trace = simulate_line_network(10, strategy, ctx)
            expected = line_network_reference(10, strategy, ctx)
            assert len(trace.records) == len(expected) == 10
            for got, ref in zip(trace.records, expected):
                assert got.n == ref.n
                assert got.delivered == ref.delivered
                assert got.efficiency == ref.efficiency
                assert got.rank_dist.masses == ref.rank_dist.masses
                assert got == ref


class TestHopCaches:
    """One scan per hop; each transition is built once and shared."""

    @staticmethod
    def fresh_ctx(f):
        # An f no other test uses, so every cache entry it touches is new.
        return make_ctx(16, f=f, d=0.93, payload=256)

    def test_one_scan_per_hop(self, monkeypatch):
        calls = []

        def counted(ctx):
            calls.append(ctx.rank_dist)
            return real(ctx)

        real = frame.optimize_n
        monkeypatch.setattr(frame, "optimize_n", counted)
        monkeypatch.setattr(network, "optimize_n", counted)
        trace = simulate_line_network(10, NodeStrategy.optimal(), self.fresh_ctx(0.61803))
        assert len(calls) == 10
        assert calls == [rec.rank_dist for rec in trace.records]

    def test_cache_misses(self):
        tables = frame._reception_table.cache_info().misses
        transitions = network._transition.cache_info().misses
        trace = simulate_line_network(10, NodeStrategy.optimal(), self.fresh_ctx(0.61804))
        distinct = {rec.n for rec in trace.records}
        assert frame._reception_table.cache_info().misses == tables + 1
        assert network._transition.cache_info().misses == transitions + len(distinct)

    def test_scan_builds_no_transition(self):
        before = network._transition.cache_info()
        optimize_n(self.fresh_ctx(0.61805))
        after = network._transition.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)

    def test_cached_transition_is_read_only(self):
        ctx = make_ctx(4, f=0.6, d=0.8)
        t = _transition_matrix(3, ctx)
        assert t is _transition_matrix(3, ctx)
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 1.0
