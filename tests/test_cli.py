import argparse
import contextlib
import io
import json
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
    PeriodEstimate,
    RankDistribution,
    frame_efficiency,
    simulate_line_network,
)
from bncagg import cli
from bncagg.cli import main
from bncagg.scenario import ScenarioConfig, parse_rank_dist, parse_strategy
from bncagg.params import ParameterError
from capture_corpus import PIN_FUNCTIONS, PINS

PINNED = json.loads(PINS.read_text())


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

    def test_failed_command_keeps_the_output_file(self, tmp_path, capsys):
        # fixed:40 exceeds n_max = 33, an error found after --out is parsed.
        target = tmp_path / "out.csv"
        target.write_text("old content")
        argv = ["throughput", "--hops", "2", "--strategy", "fixed:40", "--plr", "0.2"]
        code, out, err = run_cli(argv + ["--out", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert target.read_text() == "old content"

    @pytest.mark.parametrize("where", ["directory", "missing-folder"])
    def test_unusable_output_path_is_refused_before_the_command(
        self, tmp_path, capsys, monkeypatch, where
    ):
        # Fails at the parent: the command ran, then the open failed.
        target = tmp_path if where == "directory" else tmp_path / "gone" / "x.csv"
        ran = []
        monkeypatch.setitem(cli._COMMANDS, "efficiency-curve", lambda *a: ran.append(a))
        code, out, err = run_cli(["efficiency-curve", "--out", str(target)], capsys)
        assert (code, out, ran) == (2, "", [])
        assert err == f"error: --out {str(target)!r} is not a file in an existing directory\n"
        assert sorted(tmp_path.iterdir()) == []


# The flags each subcommand takes: exactly the ones its command reads.
_LAYOUT_FLAGS = ["--config", "--out", "--plr", "--batch-size", "--payload", "--bnc-header",
                 "--integrity", "--fec-bytes"]
OPTIONS = {
    "efficiency-curve": _LAYOUT_FLAGS + ["--mtu", "--rank-dist"],
    "throughput": _LAYOUT_FLAGS + ["--mtu", "--hops", "--strategy", "--mc", "--seed", "--trials"],
    "validate": _LAYOUT_FLAGS + ["--rank-dist", "--seed", "--trials"],
}


class TestSubcommandFlags:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        taken = {
            command: [s for a in sub.choices[command]._actions for s in a.option_strings]
            for command in sub.choices
        }
        assert taken == {command: ["-h", "--help"] + flags for command, flags in OPTIONS.items()}

    @pytest.mark.parametrize(
        "argv",
        [
            ["efficiency-curve", "--hops", "5"],
            ["efficiency-curve", "--mc"],
            ["validate", "--mtu", "200"],
            ["validate", "--strategy", "optimal"],
            ["throughput", "--rank-dist", "degenerate"],
        ],
        ids=["curve-hops", "curve-mc", "validate-mtu", "validate-strategy", "throughput-rank-dist"],
    )
    def test_a_flag_the_command_ignores_is_a_usage_error(self, argv, capsys):
        # At the parent the first four exited 0, the flag read and then ignored;
        # throughput's --rank-dist had a hand-written check of its own.  The
        # usage line printed is the subcommand's, not the top-level one.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: bncagg {argv[0]} ")
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(argv[1:])}\n")


class TestParserReuse:
    """``main`` reuses one parser; no call may see what an earlier one parsed."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    @pytest.mark.parametrize(
        "flags", [["--plr", "0.1", "--plr", "0.2"], ["--plr", "0.3", "--payload", "110"]]
    )
    def test_flags_do_not_leak_into_later_calls(self, flags, capsys):
        code, first, _ = run_cli(["efficiency-curve"], capsys)
        assert code == 0
        assert run_cli(["efficiency-curve", *flags], capsys)[0] == 0
        assert run_cli(["efficiency-curve"], capsys) == (0, first, "")
        args = cli._parser().parse_args(["efficiency-curve"])
        assert (args.plrs, args.payload) == (None, None)

    def test_parse_error_then_good_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["efficiency-curve", "--plr", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(["efficiency-curve", "--plr", "0.1"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("N,plr0.1\n")

    def test_parser_built_once(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        for _ in range(3):
            assert run_cli(["efficiency-curve", "--plr", "0.1"], capsys)[0] == 0
        assert len(built) == 1


@pytest.fixture
def fresh_lines():
    """Clear ``validate``'s cached input-free lines before and after a test.

    A test that patches what they read must not see, or leave, a stale line.
    """
    cli._input_free_lines.cache_clear()
    yield
    cli._input_free_lines.cache_clear()


@pytest.mark.usefixtures("fresh_lines")
class TestPhaseGridCache:
    """``validate`` computes its two input-free lines, the phase grid's and
    the exhaustive oracle's, once per process."""

    @pytest.mark.parametrize(
        "bad, named",
        [
            # M before N: (5, 9) comes first, and it is an M <= N cell.
            ({(7, 3), (5, 9)}, "(5, 9)"),
            ({(30, 2), (7, 3)}, "(7, 3)"),
        ],
    )
    def test_fail_line_names_the_first_bad_cell(self, bad, named, capsys, monkeypatch):
        real = cli.phase_sequence

        def faulty(m, n):
            return real(m, n) + ([n] if (m, n) in bad else [])

        monkeypatch.setattr(cli, "phase_sequence", faulty)
        code, out, _ = run_cli(["validate", "--trials", "2000"], capsys)
        assert code == 1
        assert out.startswith(f"FAIL phase-structure: first mismatch at {named}\n")
        assert out.endswith("1 failure(s)\n")

    def test_grid_runs_once_per_process(self, capsys, monkeypatch):
        cells, exact = [], []
        real_phases, real_exact = cli.phase_sequence, cli.enumerate_period_exact

        def counting_phases(m, n):
            cells.append((m, n))
            return real_phases(m, n)

        def counting_exact(ctx, n):
            exact.append((ctx, n))
            return real_exact(ctx, n)

        monkeypatch.setattr(cli, "phase_sequence", counting_phases)
        monkeypatch.setattr(cli, "enumerate_period_exact", counting_exact)
        reports, calls = [], []
        for _ in range(2):
            reports.append(run_cli(["validate", "--trials", "2000"], capsys))
            calls.append((len(cells), len(set(cells)), len(exact)))
            cells.clear()
            exact.clear()
        assert calls == [(39 * 40, 39 * 40, 100), (0, 0, 0)]
        assert reports[0] == reports[1]
        assert reports[0][0] == 0
        assert reports[0][1].startswith("PASS phase-structure: ")

    def test_lines_read_no_scenario_input(self, tmp_path, capsys):
        # What lets the cache go without a key: under any scenario the two
        # lines are the ones the defaults give.  Each run starts cold.
        cfg = tmp_path / "layout.ini"
        cfg.write_text("[channel]\nproto_header = 40\ndl_header = 0\n")
        scenarios = [
            [],
            ["--payload", "110"],
            ["--integrity", "fec", "--fec-bytes", "7"],
            ["--batch-size", "8"],
            ["--rank-dist", "degenerate"],
            ["--config", str(cfg)],
        ]
        heads = []
        for flags in scenarios:
            cli._input_free_lines.cache_clear()
            code, out, _ = run_cli(["validate", "--trials", "2000", *flags], capsys)
            assert code == 0, flags
            heads.append(out.splitlines()[:2])
        assert heads[0][0].startswith("PASS phase-structure: ")
        assert heads[0][1].startswith("PASS exhaustive-oracle: ")
        assert heads == [heads[0]] * len(scenarios)


class TestValidateAndConfig:
    def test_validate_report_pinned(self):
        # The full default report, seeded: phase grid, exhaustive oracle
        # and both Monte Carlo modes at 100 000 trials.
        key = "bncagg validate --seed 20240901"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key

    def test_validate_report_pinned_held_out_seed(self):
        # The same report at a second seed, whose Monte Carlo lines read
        # other draws than the first seed's.
        key = "bncagg validate --seed 20250517"
        assert PIN_FUNCTIONS[key]() == PINNED[key], key

    @pytest.mark.usefixtures("fresh_lines")
    def test_failing_validate_report_is_written(self, tmp_path, capsys, monkeypatch):
        # A FAIL report is a result: exit 1 replaces the file with it.
        monkeypatch.setattr(cli, "expected_rank_increment", lambda n, ctx: -1.0)
        target = tmp_path / "report.txt"
        target.write_text("old content")
        argv = ["validate", "--trials", "2000", "--out", str(target)]
        assert run_cli(argv, capsys)[:2] == (1, "")
        report = target.read_text()
        assert "FAIL exhaustive-oracle" in report
        assert report.endswith("3 failure(s)\n")

    @pytest.mark.parametrize(
        "tied, named",
        [
            # M before N, N before (f, d), (f, d) before the rank law.
            ([(3, 1, 0.6, "binomial"), (2, 4, 1.0, "degenerate")], "(2, 4, 1.0, 1.0)"),
            ([(2, 5, 0.6, "degenerate"), (2, 4, 1.0, "binomial")], "(2, 4, 1.0, 1.0)"),
            ([(2, 4, 1.0, "degenerate"), (2, 4, 0.6, "binomial")], "(2, 4, 0.6, 0.85)"),
        ],
    )
    @pytest.mark.usefixtures("fresh_lines")
    def test_oracle_line_names_the_first_largest_delta(self, tied, named, capsys, monkeypatch):
        # The delta is 0.5 at the two tied cells and 0 elsewhere; the line
        # names the first of them in (M, N, (f, d), rank law) order.
        def law(ctx):
            m = ctx.code.batch_size
            return "degenerate" if ctx.rank_dist == RankDistribution.degenerate(m) else "binomial"

        def exact(ctx, n):
            return 0.5 if (ctx.code.batch_size, n, ctx.f, law(ctx)) in tied else 0.0

        monkeypatch.setattr(cli, "expected_rank_increment", lambda n, ctx: 0.0)
        monkeypatch.setattr(cli, "enumerate_period_exact", exact)
        code, out, _ = run_cli(["validate", "--trials", "2000"], capsys)
        assert code == 1
        line = f"FAIL exhaustive-oracle: max |analytical - exact| = 5.000e-01 at {named}\n"
        assert line in out

    def test_validate_passes_when_no_trial_receives_a_packet(self, capsys):
        # Fails at the parent: every trial reads 0, se = 0, and both Monte
        # Carlo lines FAILed working code.
        code, out, _ = run_cli(["validate", "--plr", "0.999999", "--trials", "100"], capsys)
        assert code == 0
        assert out.count("every trial read 0, which has chance <= 9.999e-01") == 2

    def test_all_zero_estimate_fails_where_zero_is_unlikely(self, capsys, monkeypatch):
        def all_zero(config, modes):
            hist = (1.0,) + (0.0,) * config.ctx.code.batch_size
            return tuple(PeriodEstimate(0.0, 0.0, config.trials, mode, hist) for mode in modes)

        monkeypatch.setattr(cli, "simulate_periods", all_zero)
        code, out, _ = run_cli(["validate", "--plr", "0.1", "--trials", "100000"], capsys)
        assert code == 1
        assert out.count("FAIL monte-carlo-") == 2
        assert "every trial read 0, which has chance <= 0.000e+00" in out

    def test_validate_passes_quick(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--trials", "20000", "--seed", "11"], capsys
        )
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("0 failure(s)")

    def test_validate_rejects_both_modes(self, capsys):
        # `both` must not quietly check checksum mode alone and print PASS.
        code, out, err = run_cli(["validate", "--integrity", "both"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: validate needs a single integrity mode\n"

    @pytest.mark.parametrize("trials", ("1", "2", "99"))
    def test_validate_rejects_too_few_trials(self, trials, capsys):
        # With a handful of trials every trial agrees, se = 0, and the Monte
        # Carlo lines would FAIL on working code.
        code, out, err = run_cli(["validate", "--trials", trials], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: validate needs --trials >= 100")

    def test_validate_at_an_mtu_with_only_n_1(self, tmp_path, capsys):
        # L = 400 fits one BNC packet and L = 200 none; validate sizes its own
        # channels, so it evaluates E at N = 4 anyway.  An INI file may serve
        # every command, so its mtu is accepted.
        argv = ["validate", "--trials", "2000", "--seed", "3"]
        _, default, _ = run_cli(argv, capsys)
        assert "0 failure(s)" in default
        for mtu in (400, 200):
            cfg = tmp_path / f"mtu{mtu}.ini"
            cfg.write_text(f"[channel]\nmtu = {mtu}\n")
            assert run_cli(argv + ["--config", str(cfg)], capsys)[:2] == (0, default), mtu
        # validate reads no MTU, so it takes no --mtu flag.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--mtu", "400"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

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
            ("run", "colour = red"),
        ],
    )
    def test_bad_ini_value_is_usage_error(self, tmp_path, capsys, section, entry):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(f"[{section}]\n{entry}\n")
        code, _, err = run_cli(["efficiency-curve", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert entry.split(" = ")[0] in err

    @pytest.mark.parametrize(
        "body",
        [
            b"plr = 0.1\n[run]\nhops = 2\n",
            b"[run]\nhops = 2\n[run]\nhops = 3\n",
            b"[run]\nhops = 2\nhops = 3\n",
            b"[code]\nrank_dist = 50%\n",
            b"\xff\xfe[run]\nhops = 2\n",
            # [DEFAULT] keys apply only if another section exists, so none is taken.
            b"[DEFAULT]\npayload = 110\n",
            b"[DEFAULT]\npayload = 110\n[run]\nhops = 3\n",
            b"[channel]\nmtu = 400\n[code]\nmtu = 9000\n",
        ],
        ids=["no-section", "repeated-section", "repeated-key", "bare-percent", "not-utf8",
             "default-only", "default-with-section", "key-in-two-sections"],
    )
    def test_malformed_ini_is_usage_error(self, tmp_path, capsys, body):
        # Not a traceback with exit 1, which a script reads as a failed check.
        cfg = tmp_path / "scenario.ini"
        cfg.write_bytes(body)
        code, out, err = run_cli(["throughput", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith(f"error: bad config file {str(cfg)!r}: ")
        assert err.count("\n") == 1
        assert out == ""

    def test_throughput_rejects_rank_dist(self, tmp_path, capsys):
        args = ["throughput", "--hops", "2", "--plr", "0.2", "--strategy", "fixed:1"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--rank-dist", "binomial:0.3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --rank-dist binomial:0.3\n")
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
        assert "trials must be a positive integer" in err

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate 7.28 TiB"),
            (MemoryError(), "out of memory"),
        ],
    )
    def test_out_of_memory_is_usage_error(self, exc, message, capsys, monkeypatch):
        # Exit 1 means a failed validation; a run too large for memory is
        # a configuration error.  The simulator is stubbed: nothing allocates.
        def too_large(*args):
            raise exc

        monkeypatch.setattr(cli, "simulate_end_to_end", too_large)
        args = ["throughput", "--mc", "--trials", "1000000000000", "--hops", "1"]
        assert run_cli(args, capsys) == (2, "", f"error: {message}\n")

    def test_validate_out_of_memory_prints_nothing(self, capsys, monkeypatch):
        # At the parent stdout kept the two PASS lines printed before the
        # Monte Carlo step raised, though exit 2 means there is no report.
        def too_large(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "simulate_periods", too_large)
        assert run_cli(["validate", "--trials", "2000"], capsys) == (2, "", "error: out of memory\n")

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
            (["throughput", "--hops", "0"], "hops must be a positive integer"),
            (["throughput", "--mc", "--seed", "-1", "--hops", "1", "--trials", "10"],
             "seed must be a nonnegative integer"),
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

    @pytest.mark.parametrize("extra", [[], ["--mc", "--trials", "200"]], ids=["exact", "mc"])
    def test_infeasible_fixed_n_is_usage_error(self, capsys, extra):
        # The strategy checks N as E, pi_N and the efficiency do.
        args = ["throughput", "--strategy", "fixed:40", "--plr", "0.1",
                "--integrity", "checksum", "--hops", "2"]
        code, out, err = run_cli(args + extra, capsys)
        assert (code, out, err) == (2, "", "error: N=40 outside 1..33\n")

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
            # Accepted at the parent, which compared without checking the type:
            {"trials": 1.5},
            {"hops": 2.5},
            {"seed": 1.5},
            {"rank_dist": "binomial:x"},
            {"batch_size": 2, "rank_dist": "explicit:1,x"},
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
    # 100 is validate's minimum; listed first, it is drawn often enough that
    # some validate examples reach the report.
    "trials": (["100", "1", "40"], ["-1", "0"]),
    "mc": (["true", "no"], ["perhaps"]),
}


def _value(key):
    good, bad = _VALUES[key]
    return st.sampled_from(good + good + bad)


def _flag(key):
    return f"--{key.replace('_', '-')}"


@st.composite
def _cli_input(draw):
    """A random argv, and maybe the text of an INI file it names."""
    command = draw(st.sampled_from(sorted(OPTIONS) * 3 + ["plot"]))
    argv = [command]
    # Flags come from the command's own set (any set for an unknown command);
    # the INI keys below stay free, since one file may serve every command.
    flags = OPTIONS.get(command, [_flag(key) for key in _VALUES])
    keys = [key for key in sorted(_VALUES) if _flag(key) in flags]
    for key in draw(st.lists(st.sampled_from(keys), max_size=4)):
        if key == "mc":
            argv.append("--mc")
        else:
            argv += [_flag(key), draw(_value(key))]
    if "--trials" in flags:  # bound the Monte Carlo work whatever else is drawn
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


def _run_python(args, cwd, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with this checkout's src on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    args = ["efficiency-curve", "--plr", "0.1"]
    proc = _run_python(["-m", "bncagg", *args], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(args, capsys)[1]


def test_closed_stdout_exits_141_quietly(tmp_path):
    # The reader is gone before the first write, as `| head -1` can leave it.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_python(["-m", "bncagg", "efficiency-curve", "--plr", "0.1"], tmp_path, write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize(
    "args, label",
    [
        (["efficiency-curve", "--plr", "0.1", "--plr", "0.1"], "plr0.1"),
        (
            ["throughput", "--hops", "1", "--plr", "0.2", "--integrity", "checksum",
             "--strategy", "fixed:1", "--strategy", "fixed:01"],
            "plr0.2_fixed1_checksum",
        ),
    ],
    ids=["efficiency-curve", "throughput"],
)
def test_repeated_column_label_is_an_error(args, label, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: two columns would both be labelled {label!r}\n"


def test_close_plrs_get_distinct_labels(capsys):
    code, out, _ = run_cli(["efficiency-curve", "--plr", "0.1", "--plr", "0.10000000001"], capsys)
    assert code == 0
    assert parse_csv(out)[0] == ["N", "plr0.1", "plr0.10000000001"]


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
