"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload paper-cli --seeds 1-10 [--seconds 40] [--save NAME]

The spread of a metric is (Q3 - Q1) / median of its values over the runs,
with the quartiles of ``statistics.quantiles(values, n=4)``.  Each run is
the one command of BENCHMARK.json with ``--trace 0``.  With ``--save``, the
runs and their summary go to ``bench/out/NAME.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--save")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    out = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = BENCHMARK["command"] + [
                "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        table = {name: summary([r["metrics"][name] for r in runs]) for name in bounds}
        out["workloads"][workload] = {"summary": table, "runs": runs}
        for name, row in table.items():
            flag = "" if row["spread"] < bounds[name] / 3 else "  <- above a third of the bound"
            print(f"{workload} {name}: median {row['median']:.6g} spread {row['spread']:.3f} bound {bounds[name]}{flag}")
    if args.save:
        path = ROOT / "bench" / "out" / f"{args.save}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
