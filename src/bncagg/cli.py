"""Command line interface: figure data as CSV plus an oracle check suite.

Subcommands:

* ``efficiency-curve`` -- frame efficiency for N = 1..n_max, one column per
  baseline PLR.
* ``throughput`` -- per-hop throughput on a line network, one column per
  (PLR, strategy, integrity mode) combination; ``--mc`` switches to the
  Monte Carlo simulator and adds standard error columns.
* ``validate`` -- runs the exhaustive and Monte Carlo oracles against the
  analytical formulas; exit status 1 on any failure.

Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Iterable, TextIO

from .frame import AggregationContext, expected_rank_increment, optimize_n
from .network import simulate_line_network
from .oracle import (
    GF256_MATRIX,
    RANK_COUNTING,
    TrialConfig,
    enumerate_period_exact,
    simulate_end_to_end,
    simulate_period,
)
from .params import CHECKSUM, ParameterError, RankDistribution
from .phases import case_ii_sk_pairs, phase_sequence
from .scenario import BOTH, ScenarioConfig, read_config_file

_FMT = "{:.12g}"


def _fmt(value: float) -> str:
    return _FMT.format(value)


def _write_csv(out: TextIO, header: list[str], rows: Iterable[list[str]]) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(row) + "\n")


def cmd_efficiency_curve(config: ScenarioConfig, out: TextIO) -> int:
    if config.integrity == BOTH:
        raise ParameterError("efficiency-curve needs a single integrity mode")
    profiles = []
    for plr in config.plrs:
        ctx = config.context(plr, config.integrity)
        profiles.append(optimize_n(ctx)[1])
    n_max = profiles[0].n_max
    header = ["N"] + [f"plr{plr:g}" for plr in config.plrs]
    rows = (
        [str(n)] + [_fmt(prof.efficiency[n - 1]) for prof in profiles]
        for n in range(1, n_max + 1)
    )
    _write_csv(out, header, rows)
    return 0


def cmd_throughput(config: ScenarioConfig, out: TextIO) -> int:
    header = ["hop"]
    columns: list[list[str]] = []
    for plr in config.plrs:
        for strategy in config.node_strategies():
            for mode in config.modes():
                ctx = AggregationContext.build(
                    config.channel(plr), config.code(mode)
                )
                label = f"plr{plr:g}_{strategy.label()}_{mode}"
                if config.mc:
                    estimates = simulate_end_to_end(
                        ctx, config.hops, strategy, config.seed, config.trials
                    )
                    header += [label, label + "_se"]
                    columns.append([_fmt(e.throughput) for e in estimates])
                    columns.append([_fmt(e.std_error) for e in estimates])
                else:
                    trace = simulate_line_network(config.hops, strategy, ctx)
                    header.append(label)
                    columns.append([_fmt(v) for v in trace.efficiencies()])
    rows = (
        [str(hop + 1)] + [col[hop] for col in columns] for hop in range(config.hops)
    )
    _write_csv(out, header, rows)
    return 0


def cmd_validate(config: ScenarioConfig, out: TextIO) -> int:
    if config.trials < 100:  # fewer trials can all agree: se = 0 FAILs working code
        raise ParameterError(f"validate needs --trials >= 100, got {config.trials}")
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        out.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")

    # Integer phase structure checks over a coarse grid.
    worst = None
    for m in range(2, 41):
        for n in range(1, 41):
            g = math.gcd(m, n)
            period = math.lcm(m, n)
            phases = phase_sequence(m, n)
            ok = len(phases) == period // n
            if m <= n:
                ok &= sorted(phases) == list(range(g, m + 1, g))
            else:
                full = sum(1 for p in phases if p == n)
                ok &= full == (m - n + g) // g
                ok &= len(case_ii_sk_pairs(m, n)) == (m - n + g) // g
            if not ok and worst is None:
                worst = (m, n)
    report(
        "phase-structure",
        worst is None,
        "period phase counts match closed forms" if worst is None else f"first mismatch at {worst}",
    )

    # Analytical E against the exhaustive enumeration oracle.  With f and d
    # pinned, the channel only sizes the reception table: fit N = 1..5.
    mode_name = CHECKSUM if config.integrity == BOTH else config.integrity
    base = config.context(0.1, mode_name)
    max_delta = 0.0
    argmax = None
    for m in range(1, 6):
        code = dataclasses.replace(base.code, batch_size=m, bnc_header=m + 2)
        fit = base.channel.proto_header + 5 * code.packet_size
        channel = dataclasses.replace(base.channel, max_payload=fit)
        for n in range(1, 6):
            for f, d in ((0.6, 0.85), (1.0, 1.0)):
                for rd in (
                    RankDistribution.degenerate(m),
                    RankDistribution.truncated_binomial(m, 0.8),
                ):
                    ctx = dataclasses.replace(
                        base, channel=channel, code=code, rank_dist=rd, d=d, f=f
                    )
                    delta = abs(
                        expected_rank_increment(n, ctx)
                        - enumerate_period_exact(ctx, n)
                    )
                    if delta > max_delta:
                        max_delta, argmax = delta, (m, n, f, d)
    report(
        "exhaustive-oracle",
        max_delta < 1e-12,
        f"max |analytical - exact| = {max_delta:.3e} at {argmax}",
    )

    # Monte Carlo agreement, counting and finite-field modes.
    ctx = config.context(config.plrs[0], mode_name)
    analytical = expected_rank_increment(4, ctx)
    for mode in (RANK_COUNTING, GF256_MATRIX):
        est = simulate_period(
            TrialConfig(ctx=ctx, n=4, seed=config.seed, trials=config.trials, mode=mode)
        )
        gap = abs(est.mean - analytical)
        limit = 3.0 * est.std_error
        report(
            f"monte-carlo-{mode}",
            gap <= max(limit, 1e-12),
            f"|empirical - analytical| = {gap:.3e}, 3se = {limit:.3e}",
        )

    out.write(f"{failures} failure(s)\n")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="INI config file")
    common.add_argument("--out", default="-", metavar="FILE", help="output file or - for stdout")
    common.add_argument(
        "--plr", action="append", type=float, dest="plrs", metavar="PLR",
        help="baseline PLR (repeatable)",
    )
    common.add_argument("--batch-size", type=int, help="batch size M")
    common.add_argument("--payload", type=int, help="BNC payload bytes K")
    common.add_argument("--bnc-header", type=int, help="BNC header bytes H (default M + 2)")
    common.add_argument(
        "--integrity", choices=["checksum", "fec", "both"], help="per-packet integrity mode"
    )
    common.add_argument("--fec-bytes", type=int, help="integrity bytes in fec mode")
    common.add_argument("--mtu", type=int, help="max network layer packet bytes L")
    common.add_argument("--hops", type=int, help="line network length")
    common.add_argument(
        "--strategy", action="append", dest="strategies", metavar="STRATEGY",
        help="optimal, largest or fixed:<n> (repeatable)",
    )
    common.add_argument(
        "--rank-dist",
        help="degenerate, binomial:<rho> or explicit:<m1,...>; throughput rejects it"
        " (its batches start at full rank) and ignores an INI rank_dist",
    )
    common.add_argument("--seed", type=int, help="Monte Carlo seed")
    common.add_argument("--trials", type=int, help="Monte Carlo trials / periods")
    common.add_argument(
        "--mc", action="store_true", default=None, help="use the Monte Carlo simulator"
    )

    parser = argparse.ArgumentParser(
        prog="bncagg",
        description="Frame efficiency of aggregated BNC packets over UDP-Lite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "efficiency-curve", parents=[common], help="frame efficiency vs N as CSV"
    )
    sub.add_parser("throughput", parents=[common], help="per-hop throughput as CSV")
    sub.add_parser("validate", parents=[common], help="oracle consistency report")
    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    # Built-in defaults, then the config file, then flags; throughput
    # compares both integrity modes unless told otherwise.  A flag sets the
    # field its dest names; unset flags are None.
    updates = {}
    if args.command == "throughput":
        if args.rank_dist is not None:
            raise ParameterError(
                "throughput does not take --rank-dist: the line network starts"
                " every batch at full rank"
            )
        updates["integrity"] = BOTH
    if args.config:
        updates.update(read_config_file(args.config))
    for field in dataclasses.fields(ScenarioConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            updates[field.name] = tuple(value) if isinstance(value, list) else value
    return ScenarioConfig(**updates)


_COMMANDS = {
    "efficiency-curve": cmd_efficiency_curve,
    "throughput": cmd_throughput,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.out == "-":
            return _COMMANDS[args.command](config, sys.stdout)
        with open(args.out, "w", newline="") as handle:
            return _COMMANDS[args.command](config, handle)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
