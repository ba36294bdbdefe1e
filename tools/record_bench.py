"""Record a ``BENCH_<label>.json`` point: alternating pairs of two commits.

    python3 tools/record_bench.py --label pr22_validate_once --base 4742c59 \\
        --title "validate computes its input-free checks once" \\
        --claim paper-cli@20240901:ref_pass_s.median:-0.15 \\
        --runs paper-cli@20240901:10 --runs paper-cli@20250517:3 \\
        --runs large-batch@20240901:5 --runs monte-carlo@20240901:3

Run it from a git checkout.  ``git archive BASE`` and ``git archive HEAD``
are unpacked into temporary directories, so edits that are not committed
are never measured.  For each ``--runs WORKLOAD@SEED:PAIRS`` it runs
``python3 bench/run.py --workload WORKLOAD --seed SEED --seconds T --trace 0``
in both trees, PAIRS times each, alternating: pair i runs base first when i
is even and head first when i is odd.  A run's metrics are the JSON object
on the last line of its stdout.  The end-to-end metrics, their units, their
direction and their bounds, and the default T, come from ``BENCHMARK.json``
in the head tree.

The record goes to ``BENCH_<label>.json`` at the root of the checkout and is
rewritten after every pair, so a stopped run keeps what it measured.  Its
keys are ``title``, ``claim``, ``what``, ``base``, ``head``, ``host`` and
``workloads``.  Each workload entry holds every pair and, per metric, the
base and head medians, the relative change of the medians, the base's
interquartile range and the number of pairs the head won (ties count for
neither side).  The optional ``--claim`` repeats that summary for one
workload and metric and says whether it is met: the head wins at least
nine tenths of the pairs, the medians differ by more than the base's
interquartile range, and the change reaches the target (a negative target
for a lower-is-better metric).  Without it the record's ``claim`` is null,
as for a change that claims no gain.

Exit status: 0 when the record is written, 2 when a run cannot start or a
revision cannot be unpacked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_FIELDS = ("base_median", "head_median", "change", "head_wins", "pairs", "base_iqr")


def parse_runs(spec: str) -> tuple[str, int, int]:
    """``WORKLOAD@SEED:PAIRS`` as (workload, seed, pairs)."""
    try:
        key, pairs = spec.rsplit(":", 1)
        workload, seed = key.split("@")
        parsed = (workload, int(seed), int(pairs))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD@SEED:PAIRS, got {spec!r}") from None
    if parsed[2] < 1:
        raise argparse.ArgumentTypeError(f"at least one pair, got {spec!r}")
    return parsed


def parse_claim(spec: str) -> tuple[str, str, float]:
    """``WORKLOAD@SEED:METRIC:TARGET`` as (workload key, metric, target change)."""
    try:
        key, metric, target = spec.rsplit(":", 2)
        return key, metric, float(target)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD@SEED:METRIC:TARGET, got {spec!r}"
        ) from None


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: medians, change, base interquartile range and head wins."""
    summary = {}
    for spec in metrics:
        name = spec["name"]
        base = [pair["base"][name] for pair in pairs]
        head = [pair["head"][name] for pair in pairs]
        if spec["better"] == "lower":
            wins = sum(h < b for b, h in zip(base, head))
        else:
            wins = sum(h > b for b, h in zip(base, head))
        # quantiles needs two values; one pair has no spread.
        q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive") if base[1:] else base * 3
        base_median, head_median = statistics.median(base), statistics.median(head)
        summary[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "base_median": base_median,
            "head_median": head_median,
            "change": head_median / base_median - 1.0,
            "base_iqr": q3 - q1,
            "head_wins": wins,
            "pairs": len(pairs),
        }
    return summary


def judge_claim(entry: dict, better: str, target: float) -> bool:
    """Nine tenths of the pairs won, medians apart by more than the base IQR, target reached."""
    apart = abs(entry["head_median"] - entry["base_median"]) > entry["base_iqr"]
    reached = entry["change"] <= target if better == "lower" else entry["change"] >= target
    return 10 * entry["head_wins"] >= 9 * entry["pairs"] and apart and reached


def _unpack(rev: str, into: Path) -> str:
    """Unpack ``git archive rev`` into ``into``; return the full commit hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return commit


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """One bench run: (end-to-end values, failed, attempted, host facts)."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode not in (0, 1):  # 1: a check failed, which is counted
            raise ValueError(proc.stderr.strip())
        result = json.loads(lines[-1])
        host = next((json.loads(line[5:]) for line in lines if line.startswith("host {")), {})
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        return values, result["failed"], result["attempted"], host
    except (ValueError, IndexError, KeyError) as exc:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {exc}") from None


def _host(facts: dict) -> dict:
    """The host facts of a BENCH record, from those that bench/run.py prints."""
    return {
        "cpu": facts.get("cpu_model", "unknown"),
        "cpus": facts.get("nproc", os.cpu_count()),
        "python": facts.get("python", platform.python_version()),
        "numpy": facts.get("numpy", "unknown"),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--base", required=True, metavar="REV", help="the parent commit")
    parser.add_argument("--title", required=True)
    parser.add_argument(
        "--claim", type=parse_claim, metavar="WORKLOAD@SEED:METRIC:TARGET",
        help="optional; without it the record claims nothing",
    )
    parser.add_argument(
        "--runs", required=True, action="append", type=parse_runs, metavar="WORKLOAD@SEED:PAIRS",
        help="repeatable; run in the order given",
    )
    parser.add_argument("--seconds", type=float, help="per run (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args(argv)
    claim_key, claim_metric, target = args.claim or (None, None, None)
    if claim_key is not None and claim_key not in {f"{w}@{s}" for w, s, _ in args.runs}:
        parser.error(f"the claim's {claim_key} is not among --runs")

    out = ROOT / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory(prefix="record_bench-") as tmp:
        trees = {"base": Path(tmp, "base"), "head": Path(tmp, "head")}
        try:
            for tree in trees.values():
                tree.mkdir()
            commits = {"base": _unpack(args.base, trees["base"]), "head": _unpack("HEAD", trees["head"])}
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot unpack a revision: {exc}", file=sys.stderr)
            return 2
        benchmark = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        metrics = benchmark["end_to_end"]
        claim_spec = next((m for m in metrics if m["name"] == claim_metric), None)
        if claim_metric is not None and claim_spec is None:
            parser.error(f"{claim_metric} is not an end-to-end metric of BENCHMARK.json")
        seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
        record = {
            "title": args.title,
            "claim": None,
            "what": (
                f"alternating base/head pairs of `python3 bench/run.py --workload W --seed S"
                f" --seconds {seconds:g} --trace 0`, each side run from `git archive REV` unpacked"
                " into its own directory; pair i runs base first when i is even and head first"
                " when i is odd; written by tools/record_bench.py"
            ),
            "base": commits["base"],
            "head": commits["head"],
            "host": {},
            "workloads": {},
        }
        for workload, seed, count in args.runs:
            key = f"{workload}@{seed}"
            entry = record["workloads"].setdefault(key, {"pairs": []})
            for i in range(count):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                runs = {}
                for side in order:
                    try:
                        runs[side] = _run(trees[side], workload, seed, seconds)
                    except RuntimeError as exc:
                        print(f"error: {exc}", file=sys.stderr)
                        return 2
                record["host"] = record["host"] or _host(runs[order[0]][3])
                pair = {
                    "base": runs["base"][0],
                    "head": runs["head"][0],
                    "first": order[0],
                    "failed": [runs["base"][1], runs["head"][1]],
                    "attempted": [runs["base"][2], runs["head"][2]],
                }
                entry["pairs"].append(pair)
                entry["summary"] = summarize(entry["pairs"], metrics)
                entry["failed_total"] = sum(sum(p["failed"]) for p in entry["pairs"])
                if key == claim_key:
                    summary = entry["summary"][claim_metric]
                    record["claim"] = {
                        "workload": workload,
                        "seed": seed,
                        "metric": claim_metric,
                        **{k: summary[k] for k in CLAIM_FIELDS},
                        "target": target,
                        "met": judge_claim(summary, claim_spec["better"], target),
                    }
                out.write_text(json.dumps(record, indent=1) + "\n")
                progress = f"{key} pair {i + 1}/{count}"
                if claim_metric is not None:
                    change = entry["summary"][claim_metric]["change"]
                    progress += f": {claim_metric} change {change:+.2%}"
                print(progress, file=sys.stderr)
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
