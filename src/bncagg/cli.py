"""Command line interface: figure data as CSV plus an oracle check suite.

Subcommands:

* ``efficiency-curve`` -- frame efficiency for N = 1..n_max, one column per
  baseline PLR.
* ``throughput`` -- per-hop throughput on a line network, one column per
  (PLR, strategy, integrity mode) combination; ``--mc`` switches to the
  Monte Carlo simulator and adds standard error columns.
* ``validate`` -- runs the exhaustive and Monte Carlo oracles against the
  analytical formulas; exit status 1 on any failure.

Each subcommand takes only the flags its command reads (``_SUBCOMMANDS``),
so a flag it would ignore, such as ``efficiency-curve --hops``, is an
argparse usage error, printed under the subcommand's own usage line.  INI
keys are shared: one file may serve every command.

Exit codes: 0 success, 1 validation failure, 2 configuration error (also a
run too large for memory, such as ``throughput --mc`` with a huge
``--trials``, which prints the ``MemoryError`` as ``error: ...``), 141
(128 + SIGPIPE) when the reader of stdout closes it early, as ``| head``
does; that case prints nothing to stderr.  ``--out FILE`` must name a file
in an existing directory, checked before the command runs.  A command
renders into one buffer, which goes to stdout or ``--out`` only when the
command returns 0 or 1, so a failing run prints nothing on stdout and
leaves the file as it was.

Two things are built once per process and reused on every call: the argument
parser (``_parser``; ``build_parser`` still returns a fresh one) and the two
``validate`` lines that read no input (``_input_free_lines``).  So a one-shot
``bncagg validate`` still computes them once, and only a later ``validate``
in the same process skips them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import itertools
import math
import os
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
    simulate_periods,
)
from .params import CHECKSUM, ParameterError, RankDistribution
from .phases import case_ii_sk_pairs, phase_sequence
from .scenario import BOTH, ScenarioConfig, read_config_file

_FMT = "{:.12g}"


def _fmt(value: float) -> str:
    return _FMT.format(value)


def _check_labels(labels: list[str]) -> None:
    """Reject a header that would name two columns alike."""
    seen = set()
    for label in labels:
        if label in seen:
            raise ParameterError(f"two columns would both be labelled {label!r}")
        seen.add(label)


def _write_csv(out: TextIO, header: list[str], rows: Iterable[list[str]]) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(row) + "\n")


def _single_mode(config: ScenarioConfig, command: str) -> str:
    """The one integrity mode ``command`` runs in; ``both`` is a usage error."""
    if config.integrity == BOTH:
        raise ParameterError(f"{command} needs a single integrity mode")
    return config.integrity


def cmd_efficiency_curve(config: ScenarioConfig, out: TextIO) -> int:
    mode = _single_mode(config, "efficiency-curve")
    header = ["N"] + [f"plr{_fmt(plr)}" for plr in config.plrs]
    _check_labels(header)
    profiles = []
    for plr in config.plrs:
        ctx = config.context(plr, mode)
        profiles.append(optimize_n(ctx)[1])
    n_max = profiles[0].n_max
    rows = (
        [str(n)] + [_fmt(prof.efficiency[n - 1]) for prof in profiles]
        for n in range(1, n_max + 1)
    )
    _write_csv(out, header, rows)
    return 0


def cmd_throughput(config: ScenarioConfig, out: TextIO) -> int:
    runs = [
        (f"plr{_fmt(plr)}_{strategy.label()}_{mode}", plr, strategy, mode)
        for plr in config.plrs
        for strategy in config.node_strategies()
        for mode in config.modes()
    ]
    _check_labels([label for label, *_ in runs])
    header = ["hop"]
    columns: list[list[str]] = []
    for label, plr, strategy, mode in runs:
        ctx = AggregationContext.build(config.channel(plr), config.code(mode))
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


@functools.cache
def _input_free_lines() -> tuple[tuple[str, bool, str], ...]:
    """The (name, ok, detail) of ``validate``'s phase-structure and exhaustive-oracle lines.

    Neither reads the scenario, so a process computes them once.
    """
    worst = None  # the first (M, N) of the grid whose phases miss their closed forms
    for m, n in itertools.product(range(2, 41), range(1, 41)):
        g = math.gcd(m, n)
        phases = phase_sequence(m, n)
        ok = len(phases) == math.lcm(m, n) // n
        if m <= n:
            ok &= sorted(phases) == list(range(g, m + 1, g))
        else:
            ok &= phases.count(n) == (m - n + g) // g
            ok &= len(case_ii_sk_pairs(m, n)) == (m - n + g) // g
        if not ok:
            worst = m, n
            break

    # Analytical E against the exhaustive enumeration oracle.  With f and d
    # pinned, the channel only sizes the reception table: fit N = 1..5.  So
    # the contexts start from the defaults, and no scenario input reaches
    # them.  Each M's four are built once; the first largest delta names its cell.
    base = ScenarioConfig().context(0.1, CHECKSUM)
    max_delta = 0.0
    argmax = None
    for m in range(1, 6):
        code = dataclasses.replace(base.code, batch_size=m, bnc_header=m + 2)
        fit = base.channel.proto_header + 5 * code.packet_size
        channel = dataclasses.replace(base.channel, max_payload=fit)
        laws = (RankDistribution.degenerate(m), RankDistribution.truncated_binomial(m, 0.8))
        contexts = [
            dataclasses.replace(base, channel=channel, code=code, rank_dist=rd, d=d, f=f)
            for f, d in ((0.6, 0.85), (1.0, 1.0))
            for rd in laws
        ]
        for n in range(1, 6):
            for ctx in contexts:
                delta = abs(expected_rank_increment(n, ctx) - enumerate_period_exact(ctx, n))
                if delta > max_delta:
                    max_delta, argmax = delta, (m, n, ctx.f, ctx.d)
    return (
        ("phase-structure", worst is None,
         "period phase counts match closed forms" if worst is None else f"first mismatch at {worst}"),
        ("exhaustive-oracle", max_delta < 1e-12,
         f"max |analytical - exact| = {max_delta:.3e} at {argmax}"),
    )


def cmd_validate(config: ScenarioConfig, out: TextIO) -> int:
    """The input-free lines (cached), then Monte Carlo against E at the scenario."""
    mode_name = _single_mode(config, "validate")
    if config.trials < 100:  # fewer trials can all agree: se = 0 FAILs working code
        raise ParameterError(f"validate needs --trials >= 100, got {config.trials}")
    lines = list(_input_free_lines())

    # Monte Carlo agreement, counting and finite-field modes, at N = 4, on a
    # channel sized to fit N = 4; d and f do not read its size.
    ctx = config.context(config.plrs[0], mode_name)
    fit = ctx.channel.proto_header + 4 * ctx.code.packet_size
    ctx = dataclasses.replace(ctx, channel=dataclasses.replace(ctx.channel, max_payload=fit))
    analytical = expected_rank_increment(4, ctx)
    trial = TrialConfig(ctx=ctx, n=4, seed=config.seed, trials=config.trials)
    for est in simulate_periods(trial, (RANK_COUNTING, GF256_MATRIX)):
        gap = abs(est.mean - analytical)
        limit = 3.0 * est.std_error
        ok = gap <= max(limit, 1e-12)
        detail = f"|empirical - analytical| = {gap:.3e}, 3se = {limit:.3e}"
        if est.mean == 0.0:
            # Every trial read 0, so se = 0.  A period's increments sum to at most
            # frames * N, E * d * frames on average: P(0) <= 1 - E * d / N.
            chance = (1.0 - analytical * ctx.d / 4) ** config.trials
            ok = chance >= 0.0027  # the two-sided 3-sigma level
            detail = f"every trial read 0, which has chance <= {chance:.3e}"
        lines.append((f"monte-carlo-{est.mode}", ok, detail))

    for name, ok, detail in lines:
        out.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
    failures = sum(not ok for _, ok, _ in lines)
    out.write(f"{failures} failure(s)\n")
    return 1 if failures else 0


_FLAGS = {
    "--config": dict(metavar="FILE", help="INI config file"),
    "--out": dict(default="-", metavar="FILE", help="output file or - for stdout"),
    "--plr": dict(action="append", type=float, dest="plrs", metavar="PLR",
                  help="baseline PLR (repeatable)"),
    "--batch-size": dict(type=int, help="batch size M"),
    "--payload": dict(type=int, help="BNC payload bytes K"),
    "--bnc-header": dict(type=int, help="BNC header bytes H (default M + 2)"),
    "--integrity": dict(choices=["checksum", "fec", "both"], help="per-packet integrity mode"),
    "--fec-bytes": dict(type=int, help="integrity bytes in fec mode"),
    "--mtu": dict(type=int, help="max network layer packet bytes L"),
    "--rank-dist": dict(help="degenerate, binomial:<rho> or explicit:<m1,...>"),
    "--hops": dict(type=int, help="line network length"),
    "--strategy": dict(action="append", dest="strategies", metavar="STRATEGY",
                       help="optimal, largest or fixed:<n> (repeatable)"),
    "--mc": dict(action="store_true", default=None, help="use the Monte Carlo simulator"),
    "--seed": dict(type=int, help="Monte Carlo seed"),
    "--trials": dict(type=int, help="Monte Carlo trials / periods"),
}
_LAYOUT = ("--config", "--out", "--plr", "--batch-size", "--payload", "--bnc-header",
           "--integrity", "--fec-bytes")
# throughput starts every batch at full rank, so it takes no --rank-dist;
# validate sizes its own frames, so it takes no --mtu.
_SUBCOMMANDS = {
    "efficiency-curve": ("frame efficiency vs N as CSV", ("--mtu", "--rank-dist")),
    "throughput": ("per-hop throughput as CSV",
                   ("--mtu", "--hops", "--strategy", "--mc", "--seed", "--trials")),
    "validate": ("oracle consistency report", ("--rank-dist", "--seed", "--trials")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bncagg",
        description="Frame efficiency of aggregated BNC packets over UDP-Lite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _SUBCOMMANDS.items():
        command_parser = sub.add_parser(command, help=text)
        command_parser.set_defaults(usage_error=command_parser.error)
        for flag in _LAYOUT + flags:
            command_parser.add_argument(flag, **_FLAGS[flag])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing reads the tree and keeps nothing of a call, so one tree serves
    # every call in the process.
    return build_parser()


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    # Built-in defaults, then the config file, then flags; throughput
    # compares both integrity modes unless told otherwise.  A flag sets the
    # field its dest names; unset flags, and those the command lacks, are None.
    updates = {"integrity": BOTH} if args.command == "throughput" else {}
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
    # A flag the command does not take is left over; the command's own parser
    # reports it, so the usage line printed is that command's.
    args, extra = _parser().parse_known_args(argv)
    if extra:
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        config = _config_from_args(args)
        out = args.out  # a path that cannot be opened is refused before the command runs
        if out != "-" and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            raise ParameterError(f"--out {out!r} is not a file in an existing directory")
        buf = io.StringIO()  # a failing command raises, so only 0 or 1 is written
        status = _COMMANDS[args.command](config, buf)
        if out == "-":
            sys.stdout.write(buf.getvalue())
            sys.stdout.flush()  # a closed pipe shows here, not at exit
        else:
            with open(out, "w", newline="") as handle:
                handle.write(buf.getvalue())
        return status
    except BrokenPipeError:
        # The reader is gone.  Python flushes stdout again at exit, so point
        # it at the null device, where that flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParameterError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one says nothing.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
