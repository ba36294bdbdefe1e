"""Capture every pinned output: the bit-identity corpus and the seeded pins.

Run from the repository root, and only for a declared output change, to
rewrite ``tests/data/corpus.json`` and ``tests/data/pins.json``::

    PYTHONPATH=src python3 tests/capture_corpus.py

Every cell is keyed by what it computes, so a failing comparison names the
cell.  Floats are stored with ``float.hex``, counts as ints, CLI output
verbatim.  ``render`` writes both files.  The corpus cells are:

* ``scan``: the ``optimize_n`` profile (best N, then the efficiency of every
  feasible N) of each (M, PLR, integrity mode, K) context under the
  degenerate law, ``binomial:0.7`` and one explicit law;
* ``line``: a 10-hop exact line network of each K = 256 context under
  ``optimal``, ``largest``, ``fixed:1`` and ``fixed:3``; per hop, N, the
  delivered mass, the efficiency and the incoming rank masses;
* ``period`` and ``end_to_end``: seeded ``simulate_period`` in both modes and
  ``simulate_end_to_end``, at 2000 trials or fewer.

The pins, each computed by the function ``PIN_FUNCTIONS`` maps its key to,
which its test calls too, are:

* ``oracle``: ``enumerate_period_exact`` at ``validate``'s 100 cells (M and
  N in 1..5, (f, d) in {(0.6, 0.85), (1, 1)}, the degenerate and
  ``binomial:0.8`` laws) and at the 80 GF(256) ones with M <= 4;
* ``period`` and ``end_to_end``: seeded runs at seed 987654321 that cross
  RNG chunk boundaries, straddle frames, sum a batch's packets in 1- or
  2-byte words (M = 3 and 6), or reach M = 16 and M = 256;
* ``bncagg ...``: the stdout of ``validate`` at two seeds and of one
  ``throughput --mc`` run.

A change that alters any of these outputs on purpose recaptures both files
and says why.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from pathlib import Path

from bncagg import (
    AggregationContext,
    ChannelParams,
    CodeParams,
    NodeStrategy,
    TrialConfig,
    enumerate_period_exact,
    optimize_n,
    simulate_end_to_end,
    simulate_line_network,
    simulate_period,
)
from bncagg.cli import main
from bncagg.oracle import _CHUNK, GF256_MATRIX, RANK_COUNTING
from bncagg.params import CHECKSUM, FEC
from bncagg.scenario import ScenarioConfig, parse_rank_dist, parse_strategy
from helpers import make_ctx

DATA = Path(__file__).resolve().parent / "data"
CORPUS = DATA / "corpus.json"
PINS = DATA / "pins.json"

BATCH_SIZES = (3, 4, 5, 12, 16, 32)
PLRS = (0.05, 0.2, 0.35)
MODES = (CHECKSUM, FEC)
PAYLOADS = (256, 64)
STRATEGIES = ("optimal", "largest", "fixed:1", "fixed:3")
HOPS = 10
SEED = 20240901
PIN_SEED = 987654321


def explicit_law(m: int) -> str:
    """An uneven ``explicit:`` law over ranks 1..M, as the CLI spells it."""
    return "explicit:" + ",".join(str((7 * r) % 5 + 0.5) for r in range(1, m + 1))


def hexes(values) -> list[str]:
    return [float(value).hex() for value in values]


def estimate_cell(est) -> list:
    return [est.mean.hex(), est.std_error.hex(), est.trials, hexes(est.rank_histogram)]


def hops_cell(hops) -> list:
    return [[h.hop, h.n, h.throughput.hex(), h.std_error.hex()] for h in hops]


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


def simulator_cells():
    for m, n in ((4, 1), (4, 3), (4, 33), (16, 7)):
        ctx = ScenarioConfig(batch_size=m).context(0.2, CHECKSUM)
        for mode in (RANK_COUNTING, GF256_MATRIX):
            est = simulate_period(TrialConfig(ctx, n, SEED, 2000, mode))
            yield f"period,M={m},N={n},{mode}", estimate_cell(est)
    for m, strategy in ((4, NodeStrategy.optimal()), (16, NodeStrategy.largest())):
        ctx = ScenarioConfig(batch_size=m).context(0.2, FEC)
        hops = simulate_end_to_end(ctx, HOPS, strategy, SEED, 500)
        yield f"end_to_end,M={m},{strategy.label()}", hops_cell(hops)


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
    cells.update(simulator_cells())
    return cells


def oracle_pin(m: int, n: int, f: float, d: float, law: str, field_size: int | None) -> str:
    """The exhaustive oracle's E with f and d pinned, as ``float.hex``."""
    ctx = make_ctx(m, f=f, d=d, hbar=parse_rank_dist(law, m))
    return enumerate_period_exact(ctx, n, field_size).hex()


def pin_ctx(plr: float, m: int, law: str = "degenerate", payload: int = 256):
    """A context with H = M + 2 and 2 integrity bytes at the default MTU."""
    code = CodeParams(batch_size=m, payload=payload, bnc_header=m + 2, integrity=2)
    return AggregationContext.build(
        ChannelParams(baseline_plr=plr), code, parse_rank_dist(law, m)
    )


def period_pin(plr: float, m: int, law: str, n: int, trials: int, mode: str) -> list:
    """A seeded ``simulate_period`` estimate: mean, se, trials, histogram."""
    config = TrialConfig(pin_ctx(plr, m, law), n, PIN_SEED, trials, mode)
    return estimate_cell(simulate_period(config))


def end_to_end_pin(plr: float, payload: int, strategy: str, hops: int, trials: int) -> list:
    """A seeded ``simulate_end_to_end`` at M = 4: per hop, N, throughput, se."""
    ctx = pin_ctx(plr, 4, payload=payload)
    return hops_cell(
        simulate_end_to_end(ctx, hops, parse_strategy(strategy), PIN_SEED, trials)
    )


def cli_pin(*argv: str) -> str:
    """The stdout of ``bncagg *argv``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(list(argv))
    if status != 0:
        raise RuntimeError(f"bncagg {' '.join(argv)} exited {status}")
    return out.getvalue()


def pin_functions() -> dict:
    """Each pin's key, mapped to the call that computes it."""
    pins = {}
    for m in range(1, 6):
        for n in range(1, 6):
            for f, d in ((0.6, 0.85), (1.0, 1.0)):
                for law in ("degenerate", "binomial:0.8"):
                    for field_size in (None, 256) if m <= 4 else (None,):
                        key = f"oracle,M={m},N={n},f={f},d={d},{law},{field_size or 'large'}"
                        pins[key] = functools.partial(oracle_pin, m, n, f, d, law, field_size)
    periods = [
        (0.1, 4, "binomial:0.8", 5, 2 * _CHUNK + 1000, RANK_COUNTING),
        (0.1, 4, "binomial:0.8", 3, _CHUNK + 1000, GF256_MATRIX),
        (0.1, 16, "binomial:0.8", 5, 3000, GF256_MATRIX),
        *[
            (plr, 256, "binomial:0.995", 1, 6, mode)
            for plr in (0.0, 0.05)
            for mode in (RANK_COUNTING, GF256_MATRIX)
        ],
        *[(0.35, 4, "binomial:0.8", 6, 5000, mode) for mode in (RANK_COUNTING, GF256_MATRIX)],
        *[
            (0.2, m, "binomial:0.8", n, 5000, mode)
            for m, n in ((3, 2), (6, 4))
            for mode in (RANK_COUNTING, GF256_MATRIX)
        ],
        *[(0.1, 4, "binomial:0.8", n, 20_000, GF256_MATRIX) for n in (1, 4, 16)],
    ]
    for plr, m, law, n, trials, mode in periods:
        key = f"period,M={m},plr={plr},{law},N={n},{mode},trials={trials}"
        pins[key] = functools.partial(period_pin, plr, m, law, n, trials, mode)
    for plr, payload, strategy, hops, trials in (
        (0.1, 256, "fixed:4", 2, 40_000),
        (0.2, 110, "optimal", 3, 20_000),
    ):
        key = f"end_to_end,M=4,plr={plr},K={payload},{strategy},hops={hops},trials={trials}"
        pins[key] = functools.partial(end_to_end_pin, plr, payload, strategy, hops, trials)
    for argv in (
        ["validate", "--seed", "20240901"],
        ["validate", "--seed", "20250517"],
        ["throughput", "--mc", "--plr", "0", "--plr", "0.2", "--hops", "4", "--trials", "3000"],
    ):
        pins["bncagg " + " ".join(argv)] = functools.partial(cli_pin, *argv)
    return pins


PIN_FUNCTIONS = pin_functions()


def render(cells: dict) -> str:
    """A data file's text: one cell per line, each value compact JSON."""
    lines = [
        f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
        for key, value in cells.items()
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    CORPUS.write_text(render(corpus()))
    PINS.write_text(render({key: pin() for key, pin in PIN_FUNCTIONS.items()}))
    print(f"wrote {CORPUS} and {PINS}")
