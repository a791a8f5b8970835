"""Tests for the ``python -m repro`` command-line entry point."""

from __future__ import annotations

import pytest

from repro.__main__ import (
    PRESETS,
    build_monitor_parser,
    build_parser,
    build_query_parser,
    build_scenario_parser,
    build_serve_parser,
    main,
    parse_endpoint,
)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.preset == "small"
        assert args.seed is None
        assert not args.quiet

    def test_presets_cover_all_configs(self):
        assert set(PRESETS) == {"tiny", "small", "default"}

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--preset", "galactic"])

    def test_monitor_parser_defaults(self):
        args = build_monitor_parser().parse_args([])
        assert args.preset == "small"
        assert args.step_blocks == 25
        assert args.watch == []
        assert not args.quiet

    def test_serve_parser_listen_endpoint(self):
        args = build_serve_parser().parse_args([])
        assert args.listen is None
        args = build_serve_parser().parse_args(["--listen", "0.0.0.0:7654"])
        assert args.listen == ("0.0.0.0", 7654)
        args = build_serve_parser().parse_args(["--listen", ":0"])
        assert args.listen == ("127.0.0.1", 0)

    def test_endpoint_parsing_rejects_garbage(self):
        import argparse

        for bogus in ("nocolon", "host:port", "host:70000", "host:-1"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_endpoint(bogus)

    def test_query_parser_requires_connect_and_verb(self):
        args = build_query_parser().parse_args(
            ["--connect", "localhost:9", "token-status", "0xabc", "5"]
        )
        assert args.connect == ("localhost", 9)
        assert args.verb == "token-status"
        assert args.contract == "0xabc" and args.token_id == 5
        with pytest.raises(SystemExit):
            build_query_parser().parse_args(["ping"])  # --connect missing
        with pytest.raises(SystemExit):
            build_query_parser().parse_args(["--connect", "h:1"])  # no verb

    def test_scenario_parser_defaults(self):
        args = build_scenario_parser().parse_args(["reorg-storm-rush"])
        assert args.name == "reorg-storm-rush"
        assert args.speed is None and args.seed is None
        assert not args.no_wire and not args.no_verify and not args.no_slo
        assert not args.list_scenarios and not args.as_json and not args.quiet

    def test_scenario_parser_flags(self):
        args = build_scenario_parser().parse_args(
            [
                "day-in-the-life",
                "--speed", "500000", "--seed", "9",
                "--no-wire", "--no-slo", "--json", "--quiet",
            ]
        )
        assert args.speed == 500000.0 and args.seed == 9
        assert args.no_wire and args.no_slo and args.as_json and args.quiet


    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        listed = out.split("commands (see 'repro COMMAND --help'):", 1)[1]
        for name in ("run", "monitor", "serve", "query", "probe", "top", "scenario"):
            assert f"\n  {name} " in listed

    @pytest.mark.parametrize("command", ["run", "monitor", "serve", "scenario"])
    def test_workers_flag_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "scenario"])
    def test_shards_flag_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--shards", "4"])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["monitor", "serve"])
    def test_bounded_memory_flag_is_rejected(self, command, capsys):
        """Scan-match retention is always bounded; the flag is gone."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--bounded-memory"])
        assert excinfo.value.code == 2
        assert "--bounded-memory" in capsys.readouterr().err


class TestScenarioCommand:
    def test_list_prints_catalogue(self, capsys):
        from repro.simulation.scenarios import scenario_names

        exit_code = main(["scenario", "--list"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in scenario_names():
            assert name in captured.out

    def test_unknown_scenario_exits_2(self, capsys):
        exit_code = main(["scenario", "no-such-scenario"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "registered:" in captured.err

    def test_missing_name_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario"])
        assert excinfo.value.code == 2

    def test_quiet_run_passes_and_prints_report(self, capsys):
        exit_code = main(
            ["scenario", "fee-regime-shift", "--quiet", "--no-wire"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "scenario fee-regime-shift: PASS" in captured.out
        assert "[PASS]" in captured.out

    def test_json_run_emits_one_object(self, capsys):
        import json as json_module

        exit_code = main(
            ["scenario", "fee-regime-shift", "--json", "--no-wire", "--quiet"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json_module.loads(captured.out)
        assert payload["scenario"] == "fee-regime-shift"
        assert payload["ok"] is True


class TestMain:
    def test_quiet_run_prints_summary(self, capsys):
        exit_code = main(["--preset", "tiny", "--quiet", "--seed", "5"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "confirmed wash trading activities" in captured.out
        assert "Table I" not in captured.out

    def test_full_run_writes_report_file(self, tmp_path, capsys):
        output = tmp_path / "report.txt"
        exit_code = main(["--preset", "tiny", "--seed", "5", "--output", str(output)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert output.exists()
        assert "Table II" in output.read_text()
        assert "Table II" in captured.out
        # Without --quiet the trailing summary still prints.
        assert "confirmed wash trading activities" in captured.out

    def test_run_subcommand_is_equivalent(self, capsys):
        exit_code = main(["run", "--preset", "tiny", "--quiet", "--seed", "5"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "confirmed wash trading activities" in captured.out

    def test_quiet_with_output_writes_file_only(self, tmp_path, capsys):
        output = tmp_path / "report.txt"
        exit_code = main(
            ["--preset", "tiny", "--quiet", "--seed", "5", "--output", str(output)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table II" in output.read_text()
        assert captured.out == ""


class TestMonitorCommand:
    def test_monitor_prints_alerts_and_summary(self, capsys):
        exit_code = main(["monitor", "--preset", "tiny", "--step-blocks", "50"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "FLAGGED" in captured.out
        assert "confirmed activities" in captured.out
        assert "blocks/s" in captured.out

    def test_monitor_quiet_prints_only_summary(self, capsys):
        exit_code = main(
            ["monitor", "--preset", "tiny", "--step-blocks", "100", "--quiet"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "FLAGGED" not in captured.out
        assert "confirmed activities" in captured.out

    def test_monitor_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(["monitor", "--preset", "galactic"])
