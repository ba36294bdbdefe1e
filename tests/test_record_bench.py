"""tools/record_bench.py: pair summaries, the claim rule and the record it writes."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

METRICS = [
    {"name": "t", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def pairs_of(base, head):
    return [
        {"base": {"t": b, "rate": 1.0 / b}, "head": {"t": h, "rate": 1.0 / h}}
        for b, h in zip(base, head)
    ]


def test_summary_counts_wins_by_direction():
    summary = record_bench.summarize(pairs_of([4.0, 2.0, 3.0, 5.0], [3.0, 2.0, 2.0, 6.0]), METRICS)
    t, rate = summary["t"], summary["rate"]
    assert (t["base_median"], t["head_median"]) == (3.5, 2.5)
    assert t["change"] == pytest.approx(2.5 / 3.5 - 1.0)
    assert t["base_iqr"] == pytest.approx(4.25 - 2.75)  # inclusive quartiles of 2, 3, 4, 5
    assert t["head_wins"] == rate["head_wins"] == 2  # the tie at 2.0 counts for neither
    assert (t["pairs"], t["bound"], rate["better"]) == (4, 0.25, "higher")


def test_one_pair_has_no_spread():
    assert record_bench.summarize(pairs_of([2.0], [1.0]), METRICS)["t"]["base_iqr"] == 0.0


@pytest.mark.parametrize(
    "wins, head_median, target, met",
    [
        (9, 0.75, -0.2, True),
        (8, 0.75, -0.2, False),  # fewer than nine tenths of the pairs
        (10, 0.85, -0.2, False),  # short of the target
        (10, 0.95, -0.01, False),  # within the base's spread
    ],
)
def test_claim_rule(wins, head_median, target, met):
    entry = {
        "base_median": 1.0, "head_median": head_median, "change": head_median - 1.0,
        "base_iqr": 0.1, "head_wins": wins, "pairs": 10,
    }
    assert record_bench.judge_claim(entry, "lower", target) is met


@pytest.mark.parametrize("spec", ["paper-cli:3", "paper-cli@x:3", "paper-cli@1:0", "a@1@2:3"])
def test_bad_runs_spec(spec):
    with pytest.raises(argparse.ArgumentTypeError, match="(?i)pair"):
        record_bench.parse_runs(spec)


@pytest.fixture
def calls(tmp_path, monkeypatch):
    """Stub both trees, with no git archive and no benchmark run; list the runs."""
    calls = []

    def unpack(rev, into):
        (into / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        return f"{rev}-commit"

    def run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        t = 2.0 if tree.name == "base" else 1.0
        values = {"ref_pass_s.median": t, "setup_s": 0.1, "ref_pass_s.tail": t,
                  "ref_pass_cpu_s.median": t, "ref_points_per_s": 1 / t, "peak_rss_mib": 40.0}
        return values, 0, 10, {"cpu_model": "cpu", "nproc": 2, "python": "3", "numpy": "2"}

    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    monkeypatch.setattr(record_bench, "_unpack", unpack)
    monkeypatch.setattr(record_bench, "_run", run)
    return calls


def test_writes_the_record_schema(tmp_path, calls):
    argv = [
        "--label", "x", "--base", "abc", "--title", "T", "--seconds", "1",
        "--claim", "paper-cli@7:ref_pass_s.median:-0.4",
        "--runs", "paper-cli@7:2", "--runs", "monte-carlo@7:1",
    ]
    assert record_bench.main(argv) == 0
    assert [c[0] for c in calls] == ["base", "head", "head", "base", "base", "head"]
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert list(record) == ["title", "claim", "what", "base", "head", "host", "workloads"]
    assert (record["base"], record["head"]) == ("abc-commit", "HEAD-commit")
    assert record["claim"]["met"] is True
    assert record["claim"]["change"] == -0.5
    assert list(record["workloads"]) == ["paper-cli@7", "monte-carlo@7"]
    first, second = record["workloads"]["paper-cli@7"]["pairs"]
    assert (first["first"], second["first"], first["failed"]) == ("base", "head", [0, 0])
    assert record["workloads"]["monte-carlo@7"]["failed_total"] == 0


def test_records_without_a_claim(tmp_path, calls, capsys):
    argv = [
        "--label", "x", "--base", "abc", "--title", "T", "--seconds", "1",
        "--runs", "paper-cli@7:1", "--runs", "monte-carlo@7:1",
    ]
    assert record_bench.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert record["claim"] is None
    assert list(record["workloads"]) == ["paper-cli@7", "monte-carlo@7"]
    assert record["workloads"]["paper-cli@7"]["summary"]["ref_pass_s.median"]["change"] == -0.5
    assert capsys.readouterr().err == "paper-cli@7 pair 1/1\nmonte-carlo@7 pair 1/1\n"
