"""Capture the bit-identity corpus: model and simulator outputs as float.hex.

Run from the repository root to rewrite ``tests/data/corpus.json``::

    PYTHONPATH=src python3 tests/capture_corpus.py

Every cell is keyed by what it computes, so a failing comparison names the
cell.  Floats are stored with ``float.hex``, counts as ints.  The cells are:

* ``scan``: the ``optimize_n`` profile (best N, then the efficiency of every
  feasible N) of each (M, PLR, integrity mode, K) context under the
  degenerate law, ``binomial:0.7`` and one explicit law;
* ``line``: a 10-hop exact line network of each K = 256 context under
  ``optimal``, ``largest``, ``fixed:1`` and ``fixed:3``; per hop, N, the
  delivered mass, the efficiency and the incoming rank masses;
* ``past``: ``expected_rank_increment`` and ``lineage_reception_pmf`` for N
  up to four past n_max, at MTU 400 and 200;
* ``period`` and ``end_to_end``: seeded ``simulate_period`` in both modes and
  ``simulate_end_to_end``, at 2000 trials or fewer.

A change that alters any of these outputs on purpose recaptures the corpus
and says why.
"""

from __future__ import annotations

import json
from pathlib import Path

from bncagg import (
    NodeStrategy,
    TrialConfig,
    expected_rank_increment,
    max_feasible_n,
    optimize_n,
    simulate_end_to_end,
    simulate_line_network,
    simulate_period,
)
from bncagg.frame import lineage_reception_pmf
from bncagg.oracle import GF256_MATRIX, RANK_COUNTING
from bncagg.params import CHECKSUM, FEC
from bncagg.scenario import ScenarioConfig, parse_rank_dist, parse_strategy

CORPUS = Path(__file__).resolve().parent / "data" / "corpus.json"

BATCH_SIZES = (3, 4, 5, 12, 16, 32)
PLRS = (0.05, 0.2, 0.35)
MODES = (CHECKSUM, FEC)
PAYLOADS = (256, 64)
STRATEGIES = ("optimal", "largest", "fixed:1", "fixed:3")
HOPS = 10
SEED = 20240901


def explicit_law(m: int) -> str:
    """An uneven ``explicit:`` law over ranks 1..M, as the CLI spells it."""
    return "explicit:" + ",".join(str((7 * r) % 5 + 0.5) for r in range(1, m + 1))


def hexes(values) -> list[str]:
    return [float(value).hex() for value in values]


def scan_cells(config: ScenarioConfig, tag: str):
    for law in ("degenerate", "binomial:0.7", explicit_law(config.batch_size)):
        ctx = config.context(config.plrs[0], config.integrity).with_rank_dist(
            parse_rank_dist(law, config.batch_size)
        )
        best, profile = optimize_n(ctx)
        name = law.split(":")[0] if law.startswith("explicit") else law
        yield f"scan,{tag},{name}", [best, hexes(profile.efficiency)]


def line_cells(config: ScenarioConfig, tag: str):
    ctx = config.context(config.plrs[0], config.integrity)
    for text in STRATEGIES:
        trace = simulate_line_network(HOPS, parse_strategy(text), ctx)
        yield f"line,{tag},{text}", [
            [rec.n, rec.delivered.hex(), rec.efficiency.hex(), hexes(rec.rank_dist.masses)]
            for rec in trace.records
        ]


def past_cells():
    for mtu in (400, 200):
        for m in BATCH_SIZES:
            config = ScenarioConfig(mtu=mtu, batch_size=m, payload=64)
            ctx = config.context(0.2, CHECKSUM)
            rows = max_feasible_n(ctx.channel, ctx.code) + 4
            yield f"past,M={m},mtu={mtu}", [
                [expected_rank_increment(n, ctx).hex(), hexes(lineage_reception_pmf(n, ctx))]
                for n in range(1, rows + 1)
            ]


def simulator_cells():
    for m, n in ((4, 1), (4, 3), (4, 33), (16, 7)):
        ctx = ScenarioConfig(batch_size=m).context(0.2, CHECKSUM)
        for mode in (RANK_COUNTING, GF256_MATRIX):
            est = simulate_period(TrialConfig(ctx, n, SEED, 2000, mode))
            yield f"period,M={m},N={n},{mode}", [
                est.mean.hex(), est.std_error.hex(), est.trials, hexes(est.rank_histogram)
            ]
    for m, strategy in ((4, NodeStrategy.optimal()), (16, NodeStrategy.largest())):
        ctx = ScenarioConfig(batch_size=m).context(0.2, FEC)
        hops = simulate_end_to_end(ctx, HOPS, strategy, SEED, 500)
        yield f"end_to_end,M={m},{strategy.label()}", [
            [h.hop, h.n, h.throughput.hex(), h.std_error.hex()] for h in hops
        ]


def corpus() -> dict:
    """Every cell, recomputed, in the JSON form the corpus file holds."""
    cells = {}
    for m in BATCH_SIZES:
        for plr in PLRS:
            for mode in MODES:
                for payload in PAYLOADS:
                    config = ScenarioConfig(
                        batch_size=m, payload=payload, integrity=mode, plrs=(plr,)
                    )
                    tag = f"M={m},plr={plr},{mode},K={payload}"
                    cells.update(scan_cells(config, tag))
                    if payload == 256:
                        cells.update(line_cells(config, tag))
    cells.update(past_cells())
    cells.update(simulator_cells())
    return cells


if __name__ == "__main__":
    lines = [
        f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
        for key, value in corpus().items()
    ]
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {CORPUS}")
