"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
are produced.  Criterion 4 counts the whole batches of a case-I period in the
code's phase convention (phase = packets of the frame's leading batch), where
the floor-sum misses the whole batch that leads the l = M frame.  Criterion 6
holds each Monte Carlo mode to the exact E of its own field: the large-field
model for rank counting, and the exhaustive oracle over GF(256) for the
matrix mode, whose mean sits about 5e-4 (relative) below the large-field E.
"""

import dataclasses
import math

import numpy as np

from bncagg import (
    AggregationContext,
    ChannelParams,
    CodeParams,
    NodeStrategy,
    RankDistribution,
    TrialConfig,
    enumerate_period_exact,
    expected_rank_increment,
    max_feasible_n,
    optimize_n,
    simulate_line_network,
)
from bncagg.cli import main
from bncagg.gf256 import gf256_rank_many
from bncagg.oracle import GF256_MATRIX, RANK_COUNTING, _chunk_rng, simulate_periods
from bncagg.phases import (
    batch_lineages,
    case_ii_sk_pairs,
    phase_sequence,
)
from reference import case_i_phases

SEED = 20240901

CH_JUMBO = ChannelParams(max_payload=9000, baseline_plr=0.10)
CODE_256 = CodeParams(batch_size=4, payload=256, bnc_header=6, integrity=2)
CODE_110 = CodeParams(batch_size=4, payload=110, bnc_header=6, integrity=2)
HBAR = RankDistribution.truncated_binomial(4, 0.8)


def report(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


def test_criterion_1_feasibility_bounds():
    big = max_feasible_n(CH_JUMBO, CODE_256)
    small = max_feasible_n(CH_JUMBO, CODE_110)
    ok = (big, small) == (33, 76)
    line = report(1, ok, f"feasible aggregation bounds n_max = {big} / {small}")
    assert ok, line


def test_criterion_2_optimal_aggregation():
    ch = dataclasses.replace(CH_JUMBO, baseline_plr=0.25)
    ctx = AggregationContext.build(ch, CODE_110, HBAR)
    best, profile = optimize_n(ctx)
    ok = best == 75 and profile.value(76) < profile.value(75)
    line = report(
        2,
        ok,
        f"optimizer picks N = {best},"
        f" eff(76) = {profile.value(76):.7f} < eff(75) = {profile.value(75):.7f}",
    )
    assert ok, line


def test_criterion_3_non_monotone_bands():
    bands = {0.10: (0.718, 0.724), 0.20: (0.661, 0.667)}
    ok = True
    details = []
    for plr, (lo, hi) in bands.items():
        ctx = AggregationContext.build(
            dataclasses.replace(CH_JUMBO, baseline_plr=plr), CODE_256, HBAR
        )
        _, profile = optimize_n(ctx)
        values = profile.efficiency
        dips = any(
            values[i] > values[j]
            for i in range(33)
            for j in range(i + 1, 33)
        )
        tail = values[14:33]
        banded = all(lo - 0.002 <= v <= hi + 0.002 for v in tail)
        ok &= dips and banded
        details.append(
            f"plr{plr:g}: dip={dips},"
            f" N in [15,33] spans [{min(tail):.6f}, {max(tail):.6f}]"
        )
    line = report(3, ok, "; ".join(details))
    assert ok, line


def test_criterion_4_phase_identities():
    # A frame's phase l is the packet count of its leading batch, so case I
    # has phases {g, 2g, ..., M}.  Behind the leading batch a frame holds
    # floor((N - l) / M) whole batches; the leading batch is itself whole
    # only when l = M.  Together they make the (N - M + g) / g whole batches
    # of a period, which batch_lineages counts as its single-group tuples.
    bad_case_i = []
    bad_case_ii = []
    for m in range(2, 201):
        for n in range(2, 201):
            g = math.gcd(m, n)
            if m <= n:
                phases = case_i_phases(m, n)
                floors = sum((n - l) // m for l in phases)
                whole = floors + phases.count(m)
                lineage_whole = sum(
                    1 for groups in batch_lineages(m, n) if len(groups) == 1
                )
                if whole != (n - m + g) // g or lineage_whole != whole:
                    bad_case_i.append((m, n))
            else:
                full = sum(1 for p in phase_sequence(m, n) if p == n)
                if full != (m - n + g) // g:
                    bad_case_ii.append((m, n))
                if len(case_ii_sk_pairs(m, n)) != (m - n + g) // g:
                    bad_case_ii.append((m, n))
    ok = not bad_case_i and not bad_case_ii
    line = report(
        4,
        ok,
        f"case I whole-batch count (floor-sum + leading l = M batch,"
        f" cross-checked with batch_lineages) fails at {len(bad_case_i)} pairs"
        f" (first: {bad_case_i[0] if bad_case_i else None}),"
        f" case II phase counts fail at {len(bad_case_ii)} pairs",
    )
    assert ok, line


def test_criterion_5_oracle_equivalence():
    grid_f = (0.3, 0.6, 1.0)
    grid_d = (0.5, 0.85, 1.0)
    worst = 0.0
    argmax = None
    for m in range(1, 9):
        code = CodeParams(batch_size=m, payload=64, bnc_header=m + 2, integrity=2)
        dists = (
            RankDistribution.degenerate(m),
            RankDistribution.truncated_binomial(m, 0.8),
        )
        base = AggregationContext.build(CH_JUMBO, code, dists[0])
        for n in range(1, 9):
            for f in grid_f:
                for d in grid_d:
                    for hbar in dists:
                        ctx = dataclasses.replace(
                            base, rank_dist=hbar, f=f, d=d
                        )
                        delta = abs(
                            expected_rank_increment(n, ctx)
                            - enumerate_period_exact(ctx, n)
                        )
                        if delta > worst:
                            worst, argmax = delta, (m, n, f, d)
    ok = worst < 1e-12
    line = report(
        5,
        ok,
        f"max |lineage-pmf E - exhaustive E| = {worst:.3e} at (M,N,f,d) = {argmax}",
    )
    assert ok, line


def test_criterion_6_monte_carlo_agreement():
    # Each mode is held to the exact E of the field it simulates: rank
    # counting to the large-field model, GF(256) matrices to the exhaustive
    # oracle over GF(256).  The gf256 mode's z against the large-field E is
    # printed for information only.
    ctx = AggregationContext.build(CH_JUMBO, CODE_256, HBAR)
    ok = True
    cells = []
    for n in (1, 16, 33):
        large_field = expected_rank_increment(n, ctx)
        references = {
            RANK_COUNTING: large_field,
            GF256_MATRIX: enumerate_period_exact(ctx, n, field_size=256),
        }
        # Both modes read one set of draws, as each would alone.
        config = TrialConfig(ctx=ctx, n=n, seed=SEED, trials=1_000_000)
        estimates = simulate_periods(config, tuple(references))
        for (mode, reference), est in zip(references.items(), estimates):
            z = (est.mean - reference) / est.std_error
            good = abs(z) <= 3.0
            ok &= good
            cell = f"N={n} {mode}: z={z:+.2f}{'' if good else ' (!)'}"
            if mode == GF256_MATRIX:
                cell += f" (vs large-field E: {(est.mean - large_field) / est.std_error:+.2f})"
            cells.append(cell)
    line = report(6, ok, "; ".join(cells))
    assert ok, line


def test_criterion_7_throughput_crossing_and_fec_dominance():
    ch = dataclasses.replace(CH_JUMBO, baseline_plr=0.20)
    fec_code = dataclasses.replace(CODE_256, integrity=3, integrity_mode="fec")
    strategies = {
        "optimal": NodeStrategy.optimal(),
        "largest": NodeStrategy.largest(),
        "fixed1": NodeStrategy.fixed(1),
    }
    curves = {}
    for label, strategy in strategies.items():
        for code, mode in ((CODE_256, "checksum"), (fec_code, "fec")):
            ctx = AggregationContext.build(ch, code)
            curves[label, mode] = simulate_line_network(10, strategy, ctx).efficiencies()
    crossing = all(
        curves[label, "checksum"][0] > curves["fixed1", "checksum"][0]
        and curves[label, "checksum"][9] < curves["fixed1", "checksum"][9]
        for label in ("optimal", "largest")
    )
    dominance = all(
        curves[label, "fec"][h] > curves[label, "checksum"][h]
        for label in strategies
        for h in range(10)
    )
    ok = crossing and dominance
    line = report(
        7,
        ok,
        f"aggregated-vs-N=1 crossing over 10 hops: {crossing},"
        f" FEC above checksum at every hop: {dominance}",
    )
    assert ok, line


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for run in range(2):
        target = tmp_path / f"curve{run}.csv"
        assert main(["efficiency-curve", "--plr", "0.1", "--out", str(target)]) == 0
        outputs.append(target.read_bytes())
    analytical_same = outputs[0] == outputs[1]

    mc = []
    for run in range(2):
        target = tmp_path / f"mc{run}.csv"
        code = main(
            [
                "throughput",
                "--plr",
                "0.2",
                "--hops",
                "3",
                "--strategy",
                "fixed:4",
                "--integrity",
                "checksum",
                "--mc",
                "--trials",
                "5000",
                "--seed",
                str(SEED),
                "--out",
                str(target),
            ]
        )
        assert code == 0
        mc.append(target.read_bytes())
    mc_same = mc[0] == mc[1]
    ok = analytical_same and mc_same
    line = report(
        8,
        ok,
        f"byte-identical reruns: analytical CSV {analytical_same},"
        f" seeded Monte Carlo CSV {mc_same}",
    )
    assert ok, line


def test_criterion_9_large_field_full_rank():
    rng = _chunk_rng(SEED, 0)
    mats = rng.integers(0, 256, size=(100_000, 4, 8), dtype=np.int64)
    frac = float((gf256_rank_many(mats) == 4).mean())
    ok = frac >= 0.999
    line = report(9, ok, f"random 4x8 coefficient matrices full rank: {frac:.6f}")
    assert ok, line
