"""The three benchmark workloads: inputs made from a seed, one timed pass, checks.

Every call goes through a module attribute looked up at call time
(``self.frame.optimize_n`` and so on), so that the tracer's wrappers see the
benchmark's own top-level calls as well as the calls inside the package.

Checks follow one rule set:

* model outputs (efficiency values, hop records) match the golden values
  within 1e-12 relative; CSV cells are printed at 12 significant digits, so
  they may also differ by one unit in the last printed digit;
* seeded Monte Carlo outputs match the golden values bit for bit at the
  default seed, the only seed the goldens were captured at;
* at any seed, every pass repeats the first pass bit for bit, and
  ``rank_counting`` estimates lie within 4 standard errors of the analytical
  E.  ``gf256_matrix`` estimates are never gated against the large-field E:
  random GF(256) matrices are rank deficient with a real bias of about 5e-4
  relative, so their z-score is reported as information only.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field

DEFAULT_SEED = 20240901
SIZES = ("full", "tiny")
REL_TOL = 1e-12
MC_GATE_SE = 4.0


@dataclass
class CheckLog:
    """Counts outputs checked and failed; keeps the first failure messages."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _csv_close(text: str, golden: str) -> bool:
    """CSV equality: same layout and labels, numbers to 12 printed digits."""
    rows, grows = text.splitlines(), golden.splitlines()
    if len(rows) != len(grows) or rows[:1] != grows[:1]:
        return False
    for row, grow in zip(rows[1:], grows[1:]):
        cells, gcells = row.split(","), grow.split(",")
        if len(cells) != len(gcells) or cells[0] != gcells[0]:
            return False
        for cell, gcell in zip(cells[1:], gcells[1:]):
            a, b = float(cell), float(gcell)
            last_digit = 10.0 ** (math.floor(math.log10(abs(b))) - 11) if b else 0.0
            if abs(a - b) > REL_TOL * abs(b) + last_digit:
                return False
    return True


def _csv_cells(text: str) -> int:
    """Number of efficiency values in a figure CSV (every cell but the index)."""
    rows = text.splitlines()[1:]
    return sum(len(row.split(",")) - 1 for row in rows)


class Workload:
    """Base: ``run_pass`` is timed, ``check`` is not."""

    name = ""
    traced_passes = 1

    def __init__(self, bncagg, seed: int, golden: dict):
        self.pkg = bncagg
        self.seed = seed
        self.reference = golden
        # Seeded outputs have goldens only at the seed they were captured at.
        self.seeded_golden = seed == DEFAULT_SEED
        self.first = None  # outputs of the first pass, for the repeat check

    def run_pass(self):
        raise NotImplementedError

    def check(self, outputs, log: CheckLog) -> None:
        if self.first is None:
            self.first = outputs
        else:
            log.check(outputs == self.first, f"{self.name}: pass differs from the first pass")
        self.check_outputs(outputs, log)

    def check_outputs(self, outputs, log: CheckLog) -> None:
        raise NotImplementedError

    def to_golden(self, outputs) -> dict:
        raise NotImplementedError

    def points(self, outputs) -> int:
        """Efficiency values a pass produces through figure and scan calls."""
        raise NotImplementedError

    def rates(self, outputs) -> dict[str, float]:
        """Workload-specific throughputs of the last pass, from its call timings."""
        return {}

    def info(self, outputs) -> list[str]:
        """Report lines that are shown but never gated."""
        return []


class PaperCli(Workload):
    """The README figure commands plus ``validate``, through ``cli.main``."""

    name = "paper-cli"
    traced_passes = 3

    def __init__(self, bncagg, size, seed, golden):
        super().__init__(bncagg, seed, golden)
        hops = "10" if size == "full" else "3"
        validate = ["validate", "--seed", str(seed)]
        if size == "tiny":
            validate += ["--trials", "2000"]
        self.argvs = [
            ["efficiency-curve", "--payload", "256", "--plr", "0.1", "--plr", "0.2"],
            ["efficiency-curve", "--payload", "110", "--plr", "0.25"],
            [
                "throughput", "--payload", "256", "--plr", "0.1", "--plr", "0.2",
                "--hops", hops, "--strategy", "optimal", "--strategy", "largest",
                "--strategy", "fixed:1", "--integrity", "both",
            ],
            validate,
        ]

    def run_pass(self):
        outputs = []
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.pkg.cli.main(argv)
            outputs.append((code, buf.getvalue()))
        return outputs

    def to_golden(self, outputs):
        return {"outputs": [[code, text] for code, text in outputs]}

    def points(self, outputs):
        return sum(_csv_cells(text) for _, text in outputs[:3])

    def check_outputs(self, outputs, log):
        ref = [tuple(o) for o in self.reference["outputs"]]
        for argv, (code, text), (gcode, gtext) in zip(self.argvs, outputs[:3], ref[:3]):
            log.check(code == gcode == 0 and _csv_close(text, gtext), f"{argv[0]} CSV differs from golden")
        code, text = outputs[3]
        self._check_validate(code, text, ref[3], log)

    def _check_validate(self, code, text, golden, log):
        lines = _parse_report(text)
        glines = _parse_report(golden[1])
        log.check([n for n, _, _ in lines] == [n for n, _, _ in glines], "validate report lines differ")
        fails = 0
        for (name, status, detail), (_, gstatus, gdetail) in zip(lines, glines):
            fails += status == "FAIL"
            if name == "exhaustive-oracle":
                delta = float(detail.split("=")[1].split()[0])
                log.check(status == "PASS" and delta < 1e-12, f"validate {name}: {detail}")
            elif name == "monte-carlo-gf256_matrix" and not self.seeded_golden:
                continue  # information only: see the module docstring
            elif name == "monte-carlo-rank_counting" and not self.seeded_golden:
                gap, three_se = _gap_and_limit(detail)
                log.check(gap <= MC_GATE_SE / 3.0 * three_se, f"validate {name}: {detail}")
            else:
                log.check((status, detail) == (gstatus, gdetail), f"validate {name}: {detail}")
        log.check(code == (1 if fails else 0), f"validate exit code {code} with {fails} FAIL lines")
        if self.seeded_golden:
            log.check(code == golden[0], f"validate exit code {code}, golden {golden[0]}")

    def info(self, outputs):
        for name, _, detail in _parse_report(outputs[3][1]):
            if name == "monte-carlo-gf256_matrix":
                gap, three_se = _gap_and_limit(detail)
                return [f"validate gf256_matrix |z| vs large-field E = {3.0 * gap / three_se:.3f} (information only)"]
        return []


def _parse_report(text: str) -> list[tuple[str, str, str]]:
    out = []
    for line in text.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL"):
            name, _, detail = rest.partition(": ")
            out.append((name, status, detail))
    return out


def _gap_and_limit(detail: str) -> tuple[float, float]:
    """Parse '|empirical - analytical| = G, 3se = L' from a validate line."""
    gap_part, se_part = detail.split(", ")
    return float(gap_part.split("= ")[1]), float(se_part.split("= ")[1])


class LargeBatch(Workload):
    """Library calls at M = 16 (and M = 32), where the case-II recursion dominates."""

    name = "large-batch"
    traced_passes = 1

    def __init__(self, bncagg, size, seed, golden):
        super().__init__(bncagg, seed, golden)
        # Every input is fixed: the model is deterministic, so the seed
        # changes nothing here and the goldens apply at every seed.
        m, big_m, big_k, self.hops = (16, 32, 1024, 10) if size == "full" else (8, 12, 1024, 3)
        scenario = bncagg.scenario.ScenarioConfig(batch_size=m, payload=256, plrs=(0.2,))
        self.checksum = scenario.context(0.2, "checksum")
        self.fec = scenario.context(0.2, "fec")
        big = bncagg.scenario.ScenarioConfig(batch_size=big_m, payload=big_k, plrs=(0.2,))
        self.big = big.context(0.2, "checksum")
        self.strategy = bncagg.network.NodeStrategy.optimal()

    def run_pass(self):
        frame, network = self.pkg.frame, self.pkg.network
        return {
            "scan_checksum": frame.optimize_n(self.checksum),
            "scan_fec": frame.optimize_n(self.fec),
            "line_network": network.simulate_line_network(self.hops, self.strategy, self.checksum),
            "scan_large_m": frame.optimize_n(self.big),
        }

    def to_golden(self, outputs):
        out = {}
        for key, value in outputs.items():
            if key.startswith("scan"):
                best, profile = value
                out[key] = {"best_n": best, "efficiency": list(profile.efficiency)}
            else:
                out[key] = [
                    {
                        "n": rec.n,
                        "delivered": rec.delivered,
                        "efficiency": rec.efficiency,
                        "rank_masses": list(rec.rank_dist.masses),
                    }
                    for rec in value.records
                ]
        return out

    def points(self, outputs):
        scans = sum(len(outputs[k][1].efficiency) for k in outputs if k.startswith("scan"))
        return scans + len(outputs["line_network"].records)

    def check_outputs(self, outputs, log):
        got = self.to_golden(outputs)
        for key, ref in self.reference.items():
            if key.startswith("scan"):
                value = got[key]
                ok = value["best_n"] == ref["best_n"] and len(value["efficiency"]) == len(ref["efficiency"])
                ok = ok and all(map(close, value["efficiency"], ref["efficiency"]))
                log.check(ok, f"{key}: efficiency profile differs from golden")
                continue
            ok = len(got[key]) == len(ref)
            for rec, gref in zip(got[key], ref):
                ok = ok and rec["n"] == gref["n"] and close(rec["delivered"], gref["delivered"])
                ok = ok and close(rec["efficiency"], gref["efficiency"])
                ok = ok and all(map(close, rec["rank_masses"], gref["rank_masses"]))
            log.check(ok, f"{key}: hop records differ from golden")


class MonteCarlo(Workload):
    """Seeded oracles at M = 4: both period modes and the 10-hop simulator."""

    name = "monte-carlo"
    traced_passes = 3

    # (mode, N, trials): sized so that neither mode swamps the other (rank
    # counting takes about a quarter of a pass, GF(256) about half) and
    # N = 33 does not swamp the smaller shapes within a mode.
    FULL_PLAN = (
        ("rank_counting", 1, 400_000),
        ("rank_counting", 16, 150_000),
        ("rank_counting", 33, 12_000),
        ("gf256_matrix", 1, 30_000),
        ("gf256_matrix", 16, 8_000),
        ("gf256_matrix", 33, 3_000),
    )
    TINY_PLAN = (
        ("rank_counting", 1, 4_000),
        ("rank_counting", 16, 2_000),
        ("rank_counting", 33, 1_000),
        ("gf256_matrix", 1, 1_000),
        ("gf256_matrix", 16, 300),
        ("gf256_matrix", 33, 100),
    )

    def __init__(self, bncagg, size, seed, golden):
        super().__init__(bncagg, seed, golden)
        oracle = bncagg.oracle
        self.ctx = bncagg.scenario.ScenarioConfig(plrs=(0.2,)).context(0.2, "checksum")
        plan = self.FULL_PLAN if size == "full" else self.TINY_PLAN
        self.configs = [
            oracle.TrialConfig(ctx=self.ctx, n=n, seed=seed, trials=trials, mode=mode)
            for mode, n, trials in plan
        ]
        self.hops, self.periods = (10, 20_000) if size == "full" else (3, 2_000)
        self.strategy = bncagg.network.NodeStrategy.optimal()
        # Analytical references for the statistical checks, computed once.
        frame = bncagg.frame
        self.expected = {n: frame.expected_rank_increment(n, self.ctx) for n in (1, 16, 33)}
        full_rank = self.ctx.with_rank_dist(
            bncagg.params.RankDistribution.degenerate(self.ctx.code.batch_size)
        )
        self.first_hop_n = frame.optimize_n(full_rank)[0]
        self.first_hop_eff = frame.frame_efficiency(self.first_hop_n, full_rank)

    def run_pass(self):
        oracle = self.pkg.oracle
        clock = time.perf_counter
        self.call_s = {"rank_counting": 0.0, "gf256_matrix": 0.0}
        periods = []
        for config in self.configs:
            start = clock()
            periods.append(oracle.simulate_period(config))
            self.call_s[config.mode] += clock() - start
        start = clock()
        hops = oracle.simulate_end_to_end(self.ctx, self.hops, self.strategy, self.seed, self.periods)
        self.call_s["end_to_end"] = clock() - start
        return {"periods": periods, "end_to_end": hops}

    def to_golden(self, outputs):
        return {
            "periods": [
                {
                    "mode": est.mode,
                    "trials": est.trials,
                    "mean": est.mean,
                    "std_error": est.std_error,
                    "rank_histogram": list(est.rank_histogram),
                }
                for est in outputs["periods"]
            ],
            "end_to_end": [
                {"hop": e.hop, "n": e.n, "throughput": e.throughput, "std_error": e.std_error}
                for e in outputs["end_to_end"]
            ],
        }

    def points(self, outputs):
        return len(outputs["end_to_end"])

    def hop_periods(self, outputs) -> int:
        """Periods simulated over all hops, from the population size and each hop's N."""
        m = self.ctx.code.batch_size
        population = self.periods * m
        total = 0
        for est in outputs["end_to_end"]:
            per_period = math.lcm(m, est.n) // m
            periods = population // per_period
            total += periods
            population = periods * per_period
        return total

    def rates(self, outputs):
        call_s = self.call_s
        trials = {"rank_counting": 0, "gf256_matrix": 0}
        for config in self.configs:
            trials[config.mode] += config.trials
        return {
            "mc_trials_per_s.rank_counting": trials["rank_counting"] / call_s["rank_counting"],
            "mc_trials_per_s.gf256_matrix": trials["gf256_matrix"] / call_s["gf256_matrix"],
            "mc_hop_periods_per_s": self.hop_periods(outputs) / call_s["end_to_end"],
        }

    def check_outputs(self, outputs, log):
        got = self.to_golden(outputs)
        if self.seeded_golden:
            for i, (est, ref) in enumerate(zip(got["periods"], self.reference["periods"])):
                log.check(est == ref, f"simulate_period #{i} differs from golden bit for bit")
            log.check(
                got["end_to_end"] == self.reference["end_to_end"],
                "simulate_end_to_end differs from golden bit for bit",
            )
        for config, est in zip(self.configs, outputs["periods"]):
            ok = math.isfinite(est.mean) and est.std_error > 0.0 and abs(sum(est.rank_histogram) - 1.0) < 1e-9
            if config.mode == "rank_counting":
                ok = ok and abs(est.mean - self.expected[config.n]) <= MC_GATE_SE * est.std_error
            log.check(ok, f"simulate_period {config.mode} N={config.n}: mean {est.mean!r}")
        hops = outputs["end_to_end"]
        first = hops[0]
        ok = len(hops) == self.hops and first.n == self.first_hop_n
        ok = ok and abs(first.throughput - self.first_hop_eff) <= MC_GATE_SE * first.std_error
        ok = ok and all(math.isfinite(e.throughput) and e.throughput > 0.0 for e in hops)
        log.check(ok, f"simulate_end_to_end hop 1: {first.throughput!r} vs exact {self.first_hop_eff!r}")

    def info(self, outputs):
        lines = []
        for config, est in zip(self.configs, outputs["periods"]):
            if config.mode == "gf256_matrix":
                z = (est.mean - self.expected[config.n]) / est.std_error
                lines.append(
                    f"gf256_matrix N={config.n} z vs large-field E = {z:+.3f}"
                    f" over {config.trials} trials (information only)"
                )
        return lines


WORKLOADS = {cls.name: cls for cls in (PaperCli, LargeBatch, MonteCarlo)}
