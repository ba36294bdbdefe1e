import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bncagg import (
    AggregationContext,
    ChannelParams,
    CodeParams,
    NodeStrategy,
    RankDistribution,
    frame_efficiency,
    simulate_line_network,
)
from bncagg.cli import main
from bncagg.scenario import ScenarioConfig, parse_rank_dist, parse_strategy
from bncagg.params import ParameterError


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestScenarioParsing:
    def test_strategies(self):
        assert parse_strategy("optimal") == NodeStrategy.optimal()
        assert parse_strategy("fixed:3") == NodeStrategy.fixed(3)
        with pytest.raises(ParameterError):
            parse_strategy("fixed:x")
        with pytest.raises(ParameterError):
            parse_strategy("random")

    def test_rank_dists(self):
        assert parse_rank_dist("degenerate", 4).masses[-1] == 1.0
        explicit = parse_rank_dist("explicit:0.25,0.75", 2)
        assert explicit.masses == (0.25, 0.75)
        with pytest.raises(ParameterError):
            parse_rank_dist("explicit:0.5,0.5", 3)
        with pytest.raises(ParameterError):
            parse_rank_dist("uniformish", 4)

    def test_default_code_layout(self):
        config = ScenarioConfig()
        code = config.code("checksum")
        assert code.bnc_header == 6
        assert code.packet_size == 264
        fec = config.code("fec")
        assert fec.integrity == 3
        assert fec.integrity_mode == "fec"


class TestEfficiencyCurve:
    def test_row_count_and_argmax(self, capsys):
        code, out, _ = run_cli(
            ["efficiency-curve", "--plr", "0.1", "--plr", "0.2"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["N", "plr0.1", "plr0.2"]
        assert len(rows) == 33
        assert [r[0] for r in rows] == [str(n) for n in range(1, 34)]
        col = [float(r[2]) for r in rows]  # PLR 20%
        assert col.index(max(col)) + 1 == 33

    def test_small_payload_has_76_rows(self, capsys):
        code, out, _ = run_cli(
            ["efficiency-curve", "--payload", "110", "--plr", "0.1"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 76

    def test_matches_library_values(self, capsys):
        code, out, _ = run_cli(["efficiency-curve", "--plr", "0.1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        config = ScenarioConfig(plrs=(0.1,))
        ctx = config.context(0.1, "checksum")
        assert float(rows[6][1]) == pytest.approx(
            frame_efficiency(7, ctx), rel=1e-10
        )

    def test_byte_identical_reruns(self, capsys):
        args = ["efficiency-curve", "--plr", "0.15"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_rejects_both_modes(self, capsys):
        code, _, err = run_cli(
            ["efficiency-curve", "--integrity", "both"], capsys
        )
        assert code == 2
        assert "error:" in err


class TestThroughput:
    def test_column_grid(self, capsys):
        code, out, _ = run_cli(
            ["throughput", "--plr", "0.2", "--hops", "3", "--strategy", "optimal"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        # Default integrity expands to checksum and fec when unset.
        assert header == ["hop", "plr0.2_optimal_checksum", "plr0.2_optimal_fec"]
        assert [r[0] for r in rows] == ["1", "2", "3"]

    def test_matches_line_network(self, capsys):
        code, out, _ = run_cli(
            [
                "throughput",
                "--plr",
                "0.2",
                "--hops",
                "4",
                "--strategy",
                "fixed:5",
                "--integrity",
                "checksum",
            ],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        config = ScenarioConfig(plrs=(0.2,))
        ctx = AggregationContext.build(config.channel(0.2), config.code("checksum"))
        trace = simulate_line_network(4, NodeStrategy.fixed(5), ctx)
        for row, rec in zip(rows, trace.records):
            assert float(row[1]) == pytest.approx(rec.efficiency, rel=1e-10)

    def test_mc_adds_error_columns(self, capsys):
        code, out, _ = run_cli(
            [
                "throughput",
                "--plr",
                "0.2",
                "--hops",
                "2",
                "--strategy",
                "fixed:4",
                "--integrity",
                "checksum",
                "--mc",
                "--trials",
                "2000",
                "--seed",
                "7",
            ],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[1].endswith("_checksum")
        assert header[2].endswith("_checksum_se")
        assert all(float(r[2]) >= 0.0 for r in rows)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            ["efficiency-curve", "--plr", "0.1", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("N,plr0.1\n")


class TestValidateAndConfig:
    def test_validate_passes_quick(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--trials", "20000", "--seed", "11"], capsys
        )
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("0 failure(s)")

    @pytest.mark.parametrize("trials", ("1", "2", "99"))
    def test_validate_rejects_too_few_trials(self, trials, capsys):
        # With a handful of trials every trial agrees, se = 0, and the Monte
        # Carlo lines would FAIL on working code.
        code, out, err = run_cli(["validate", "--trials", trials], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: validate needs --trials >= 100")

    def test_validate_at_an_mtu_with_only_n_1(self, capsys):
        # L = 400 fits one BNC packet; validate evaluates E at N = 4 anyway.
        argv = ["validate", "--trials", "2000", "--seed", "3"]
        code, out, _ = run_cli(argv + ["--mtu", "400"], capsys)
        assert code == 0
        _, default, _ = run_cli(argv, capsys)
        assert out == default
        assert "0 failure(s)" in out

    def test_config_file_overlay(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(
            "[code]\npayload = 110\n\n[run]\nplr = 0.1\n"
        )
        code, out, _ = run_cli(
            ["efficiency-curve", "--config", str(cfg)], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 76

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[code]\npayload = 110\n")
        code, out, _ = run_cli(
            ["efficiency-curve", "--config", str(cfg), "--payload", "256", "--plr", "0.1"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 33

    def test_missing_config_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["efficiency-curve", "--config", "/nonexistent.ini"], capsys
        )
        assert code == 2
        assert "error:" in err

    def test_bad_strategy_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["throughput", "--strategy", "bogus", "--hops", "2"], capsys
        )
        assert code == 2
        assert "error:" in err


class TestConfigBoundary:
    def test_ini_integrity_holds_for_throughput(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[code]\nintegrity = fec\n")
        code, out, _ = run_cli(
            ["throughput", "--config", str(cfg), "--hops", "2", "--plr", "0.1",
             "--strategy", "fixed:1"],
            capsys,
        )
        assert code == 0
        header, _ = parse_csv(out)
        assert header == ["hop", "plr0.1_fixed1_fec"]

    @pytest.mark.parametrize(
        "section,entry",
        [
            ("run", "hops = ten"),
            ("code", "payload = 2.5"),
            ("run", "plr = 0.1,ten"),
            ("run", "mc = perhaps"),
        ],
    )
    def test_bad_ini_value_is_usage_error(self, tmp_path, capsys, section, entry):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(f"[{section}]\n{entry}\n")
        code, _, err = run_cli(["efficiency-curve", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert entry.split(" = ")[0] in err

    def test_throughput_rejects_rank_dist(self, tmp_path, capsys):
        args = ["throughput", "--hops", "2", "--plr", "0.2", "--strategy", "fixed:1"]
        code, out, err = run_cli(args + ["--rank-dist", "binomial:0.3"], capsys)
        assert code == 2
        assert err.startswith("error: throughput does not take --rank-dist")
        assert out == ""
        # An INI rank_dist stays accepted: the file may serve efficiency-curve.
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[code]\nrank_dist = binomial:0.3\n")
        code, out, _ = run_cli(args + ["--config", str(cfg)], capsys)
        assert code == 0
        assert out == run_cli(args, capsys)[1]

    def test_negative_trials_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["throughput", "--mc", "--trials", "-5", "--hops", "2"], capsys
        )
        assert code == 2
        assert "trials must be >= 1" in err

    def test_too_few_batches_for_one_period(self, capsys, recwarn):
        code, _, err = run_cli(
            ["throughput", "--mc", "--trials", "1", "--hops", "2", "--plr", "0.1",
             "--strategy", "fixed:33", "--integrity", "checksum"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: hop 1:")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "args,message",
        [
            (["efficiency-curve", "--hops", "0"], "hops must be >= 1"),
            (["throughput", "--mc", "--seed", "-1", "--hops", "1", "--trials", "10"],
             "seed must be >= 0"),
            (["throughput", "--mc", "--strategy", "fixed:0", "--hops", "1", "--trials", "10"],
             "bad fixed strategy"),
        ],
        ids=["zero-hops", "negative-seed", "fixed-zero"],
    )
    def test_out_of_range_flag_is_usage_error(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert err.startswith(f"error: {message}")
        assert out == ""

    @pytest.mark.parametrize(
        "extra,hop", [([], 36), (["--mc", "--trials", "200"], 2)], ids=["exact", "mc"]
    )
    def test_extinct_population_is_usage_error(self, capsys, extra, hop):
        # At this PLR the delivered mass of the exact evolution underflows to
        # 0 at hop 36; the simulator's 200 periods die out at hop 1.
        args = ["throughput", "--plr", "0.9999999999", "--hops", "40",
                "--strategy", "optimal"]
        code, out, err = run_cli(args + extra, capsys)
        assert code == 2
        assert err == f"error: population extinct before hop {hop}\n"
        assert out == ""

    def test_empty_ini_strategy_list_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[run]\nstrategy = ,\n")
        code, out, err = run_cli(
            ["throughput", "--config", str(cfg), "--hops", "2"], capsys
        )
        assert code == 2
        assert err.startswith("error: strategies must name")
        assert out == ""

    def test_empty_plrs_is_rejected(self):
        # No INI or flag value parses to an empty PLR list (a blank `plr =`
        # is already a bad value), so this boundary is checked directly.
        with pytest.raises(ParameterError, match="plrs must name"):
            ScenarioConfig(plrs=())

    def test_throughput_rejects_malformed_ini_rank_dist(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[code]\nrank_dist = uniformish\n")
        code, out, err = run_cli(
            ["throughput", "--config", str(cfg), "--hops", "1"], capsys
        )
        assert code == 2
        assert err.startswith("error: unknown rank distribution")
        assert out == ""

    @pytest.mark.parametrize("masses", ["nan,0.5,0.5,0", "inf,1,1,1", "0.5,0.5,-inf,inf"])
    @pytest.mark.parametrize("command", ["efficiency-curve", "validate"])
    def test_non_finite_rank_masses_are_usage_errors(self, tmp_path, capsys, command, masses):
        # A NaN or infinite total would normalize every mass to NaN.
        rank_dist = f"explicit:{masses}"
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(f"[code]\nrank_dist = {rank_dist}\n")
        for args in (["--rank-dist", rank_dist], ["--config", str(cfg)]):
            code, out, err = run_cli([command] + args, capsys)
            assert code == 2
            assert err.startswith("error: rank masses must have a positive finite")
            assert out == ""

    def test_finite_masses_with_an_overflowing_sum_normalize(self, capsys):
        # Each mass is finite; only their plain sum overflows.
        code, out, err = run_cli(
            ["efficiency-curve", "--rank-dist", "explicit:1e308,1e308,0,0"], capsys
        )
        assert (code, err) == (0, "")
        halves = run_cli(
            ["efficiency-curve", "--rank-dist", "explicit:0.5,0.5,0,0"], capsys
        )
        assert out == halves[1]
        for masses in ("inf,1,1,1", "nan,0.5,0.5,0"):
            code, out, err = run_cli(
                ["efficiency-curve", "--rank-dist", f"explicit:{masses}"], capsys
            )
            assert code == 2
            assert err.startswith("error: rank masses must have a positive finite")
            assert out == ""

    @pytest.mark.parametrize(
        "masses", [(math.nan, 0.5, 0.5), (0.5, 0.5, math.nan), (math.inf, 0.0)]
    )
    def test_rank_distribution_rejects_non_finite_masses(self, masses):
        with pytest.raises(ParameterError, match="rank masses must be finite"):
            RankDistribution(masses)

    @pytest.mark.parametrize(
        "fields",
        [
            {"mtu": -1},
            {"dl_trailer": -4},
            {"payload": 0},
            {"bnc_header": -1},
            {"batch_size": 0},
            {"plrs": (0.1, 1.0)},
            {"plrs": (float("nan"),)},
            {"integrity": "crc"},
            {"integrity": "both", "fec_bytes": 0},
            {"batch_size": 3, "rank_dist": "explicit:0.5,0.5"},
        ],
    )
    def test_config_checks_its_fields_when_built(self, fields):
        with pytest.raises(ParameterError):
            ScenarioConfig(**fields)

    def test_config_is_checked_once_merged(self, tmp_path, capsys):
        # fec_bytes = 0 is invalid under throughput's default of both modes,
        # but the flag picks checksum before anything is checked.
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[code]\nfec_bytes = 0\n")
        args = ["throughput", "--config", str(cfg), "--hops", "1", "--plr", "0.1",
                "--strategy", "fixed:1"]
        code, out, _ = run_cli(args + ["--integrity", "checksum"], capsys)
        assert code == 0
        assert parse_csv(out)[0] == ["hop", "plr0.1_fixed1_checksum"]
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert err.startswith("error: fec mode requires")


# Flag and INI values for the fuzz test: for each key the values that are
# valid on their own, then junk and out-of-range ones.  All are small enough
# that any mix runs in milliseconds.
_VALUES = {
    "plr": (["0", "0.2", "0.5"], ["1", "-0.1", "nan", "x"]),
    "batch_size": (["1", "3", "4"], ["-1", "0", "x"]),
    "payload": (["64", "256"], ["-1", "0"]),
    "bnc_header": (["0", "6"], ["-1"]),
    "integrity": (["checksum", "fec", "both"], ["crc"]),
    "fec_bytes": (["1", "3"], ["-1", "0"]),
    "mtu": (["100", "1500"], ["-1", "0"]),
    "hops": (["1", "3"], ["-1", "0"]),
    "strategy": (["optimal", "largest", "fixed:1", "fixed:5"], ["fixed:0", "fixed:x", ","]),
    "rank_dist": (
        ["degenerate", "binomial:0.5"],
        ["binomial:2", "explicit:1", "explicit:nan", "explicit:inf", "uniform"],
    ),
    "seed": (["0", "7"], ["-1"]),
    "trials": (["1", "40"], ["-1", "0"]),
    "mc": (["true", "no"], ["perhaps"]),
}


def _value(key):
    good, bad = _VALUES[key]
    return st.sampled_from(good + good + bad)


@st.composite
def _cli_input(draw):
    """A random argv, and maybe the text of an INI file it names."""
    command = ["efficiency-curve", "throughput", "validate"]
    argv = [draw(st.sampled_from(command * 3 + ["plot"]))]
    for key in draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=4)):
        if key == "mc":
            argv.append("--mc")
        else:
            argv += [f"--{key.replace('_', '-')}", draw(_value(key))]
    # Bound the Monte Carlo work whatever else is drawn.
    argv += ["--trials", draw(_value("trials"))]
    if draw(st.booleans()):
        return argv, None
    lines = []
    sections = ["channel", "code", "run", "run", "nowhere"]
    for section in draw(st.lists(st.sampled_from(sections), max_size=2, unique=True)):
        lines.append(f"[{section}]")
        keys = sorted(_VALUES) + ["colour"]
        for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
            value = "red" if key == "colour" else draw(_value(key))
            lines.append(f"{key} = {value}")
    return argv, "\n".join(lines) + "\n"


class TestFuzzedArguments:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_cli_input())
    def test_exit_code_without_traceback(self, case):
        argv, ini = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if ini is not None:
                path = Path(tmp) / "scenario.ini"
                path.write_text(ini)
                argv = argv + ["--config", str(path)]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code
        assert code in (0, 1, 2), (argv, ini, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()


def _run_python(args, cwd) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with this checkout's src on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    args = ["efficiency-curve", "--plr", "0.1"]
    proc = _run_python(["-m", "bncagg", *args], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(args, capsys)[1]


PUBLIC_NAMES = [
    "AggregationContext",
    "ChannelParams",
    "CodeParams",
    "EfficiencyProfile",
    "EnumerationSizeError",
    "HopRecord",
    "HopTrace",
    "InfeasibleError",
    "NodeStrategy",
    "ParameterError",
    "PeriodEstimate",
    "PhaseError",
    "RankDistribution",
    "TrialConfig",
    "enumerate_period_exact",
    "expected_rank_increment",
    "frame_efficiency",
    "frame_size",
    "max_feasible_n",
    "optimize_n",
    "simulate_end_to_end",
    "simulate_line_network",
    "simulate_period",
]

SURFACE_SCRIPT = """
import importlib, sys
import bncagg
assert "bncagg.reference" not in sys.modules
try:
    importlib.import_module("bncagg.reference")
except ModuleNotFoundError:
    pass
else:
    sys.exit("bncagg.reference is importable")
for name in bncagg.__all__:
    getattr(bncagg, name)
print(" ".join(sorted(bncagg.__all__)))
"""


def test_package_surface(tmp_path):
    # The phase-average reference lives with the tests; the package root
    # exports exactly these names, and each of them resolves.
    proc = _run_python(["-c", SURFACE_SCRIPT], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == PUBLIC_NAMES
