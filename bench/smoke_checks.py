"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/smoke_checks.py

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

import run
from workloads import DEFAULT_SEED, WORKLOADS, CheckLog

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
OTHER_SEED = 7


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = BENCHMARK["command"] + ["--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload: str, seed: int, trace: int, repeat: int = 0):
        key = (workload, seed, trace, repeat)
        if key not in cache:
            proc = _run("--workload", workload, "--seed", str(seed), "--trace", str(trace), "--size", "tiny")
            cache[key] = proc
        return cache[key]

    return get


def test_catalogs_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run._per_layer_catalog())
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(results, workload, trace):
    seed = DEFAULT_SEED if trace else OTHER_SEED
    proc = results(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    catalog = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in catalog]
    for m in catalog:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0, m["name"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("failed_frac = 0 ratio") for line in lines)
    assert any(line.startswith("host {") for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_call_counts_repeat(results, workload):
    counts = []
    for repeat in (0, 1):
        proc = results(workload, DEFAULT_SEED, 1, repeat)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith((".calls", ".matrices", ".bytes_in"))})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def _perturb(workload: str, golden: dict) -> None:
    """Change one golden value just beyond the check's tolerance."""
    if workload == "paper-cli":
        header, first, *rest = golden["outputs"][0][1].splitlines(keepends=True)
        cells = first.rstrip("\n").split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-10))
        golden["outputs"][0][1] = header + ",".join(cells) + "\n" + "".join(rest)
    elif workload == "large-batch":
        golden["scan_checksum"]["efficiency"][0] *= 1 + 1e-11
    else:
        mean = golden["periods"][0]["mean"]
        golden["periods"][0]["mean"] = math.nextafter(mean, math.inf)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_perturbed_golden_makes_failed_frac_positive(workload):
    bncagg = run.import_package()
    golden = json.loads((run.GOLDEN_DIR / f"{workload}.json").read_text())["tiny"]
    failed = []
    for perturb in (False, True):
        if perturb:
            _perturb(workload, golden)
        bench = WORKLOADS[workload](bncagg, "tiny", DEFAULT_SEED, golden)
        log = CheckLog()
        bench.check(bench.run_pass(), log)
        failed.append(log.failed / log.attempted)
    assert failed[0] == 0.0
    assert failed[1] > 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "paper-cli", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
