"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--workload", "nope", "--system", "baseline"]
            )

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--workload", "mail", "--system", "nope"]
            )

    def test_all_figures_registered(self):
        expected = {
            "fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
            "fig09", "fig10", "fig11", "fig12", "fig14", "fig15",
            "table1", "table2",
        }
        assert set(FIGURES) == expected


RUN = ["run", "--workload", "mail", "--system", "baseline"]
FLEET = ["fleet", "--workload", "mail", "--system", "mq-dvp"]
REPLICATE = ["replicate", "--workload", "mail", "--system", "mq-dvp"]


@pytest.mark.parametrize("argv", [
    RUN + ["--scale", "-1"],
    RUN + ["--scale", "0"],
    RUN + ["--scale", "nan"],
    RUN + ["--scale", "inf"],
    FLEET + ["--scale", "0"],
    FLEET + ["--jobs", "-3"],
    ["matrix", "--jobs", "-1"],
    RUN + ["--check", "--check-interval", "0"],
    REPLICATE + ["--seeds", "a,b"],
    ["kv", "--scale", "-1"],
    RUN + ["--pool", "-5"],
    ["matrix", "--queue-depth", "0"],
    RUN + ["--trim-every", "-1"],
    ["faults", "--workload", "mail", "--system", "baseline", "--recovery",
     "--window", "0"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_bad_numeric_flag_is_one_usage_error(argv, capsys):
    """A bad numeric value fails at parse time: exit 2 and one
    ``repro <cmd>: error: argument`` line, never a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [error] = [line for line in err.splitlines() if ": error: " in line]
    assert error.startswith(f"repro {argv[0]}: error: argument ")


class TestRunCommand:
    def test_run_prints_summary(self, capsys):
        code = main([
            "run", "--workload", "desktop", "--system", "baseline",
            "--scale", "0.02",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "flash_writes" in out
        assert "mean_latency_us" in out

    def test_run_json_output(self, capsys):
        code = main([
            "run", "--workload", "desktop", "--system", "baseline",
            "--scale", "0.02", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.api/v1"
        assert payload["kind"] == "run"
        assert payload["counters"]["host_writes"] > 0
        assert payload["digest"]
        # The unified record round-trips through the typed parser.
        from repro.api import parse_record

        record = parse_record(payload)
        assert record.to_dict() == payload


class TestCompareCommand:
    def test_compare_table(self, capsys):
        code = main([
            "compare", "--workload", "desktop", "--scale", "0.02",
            "--systems", "baseline,ideal",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline" in out and "ideal" in out

    def test_compare_unknown_system(self, capsys):
        code = main([
            "compare", "--workload", "desktop", "--systems", "baseline,nope",
        ])
        assert code == 2
        assert "unknown systems" in capsys.readouterr().err


class TestFigureCommand:
    def test_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "SSDConfig" in capsys.readouterr().out

    def test_fig02_small_scale(self, capsys):
        assert main(["figure", "fig02", "--scale", "0.02"]) == 0
        assert "fig02" in capsys.readouterr().out


class TestCharacterizeCommand:
    def test_characterize(self, capsys):
        code = main([
            "characterize", "--workload", "desktop", "--scale", "0.02",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "P(reuse)" in out


class TestReplicateCommand:
    def test_replicate(self, capsys):
        code = main([
            "replicate", "--workload", "desktop", "--system", "ideal",
            "--scale", "0.02", "--seeds", "1,2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "n=2" in out

    def test_unknown_metric_is_one_error_line(self, capsys):
        code = main([
            "replicate", "--workload", "desktop", "--system", "ideal",
            "--scale", "0.02", "--seeds", "1,2", "--metric", "mean_latency",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "mean_latency_us" in err and "flash_writes" in err


class TestReportCommand:
    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(["report", "--scale", "0.02", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "Figure 9" in text
        assert "Paper vs measured" in text
        assert "wrote" in capsys.readouterr().out


class TestKvCommand:
    def test_kv_table(self, capsys):
        code = main([
            "kv", "--workload", "ycsb-a", "--system", "mq-dvp",
            "--scale", "0.05",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "revival rate" in out
        assert "pack seals" in out

    def test_kv_json_record_round_trips(self, capsys):
        code = main([
            "kv", "--workload", "trim-heavy", "--scale", "0.05", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "kv.run"
        assert payload["counters"]["host_trims"] > 0
        assert payload["meta"]["kv"]["deletes"] > 0
        assert payload["meta"]["spec"]["workload"] == "trim-heavy"
        from repro.api import parse_record

        assert parse_record(payload).to_dict() == payload

    def test_kv_ablate_json_carries_both_legs(self, capsys):
        code = main([
            "kv", "--workload", "ycsb-a", "--scale", "0.05",
            "--ablate", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "kv.ablation"
        meta = payload["meta"]
        assert meta["off_system"] == "baseline"
        assert meta["revival_rate"] > meta["revival_rate_off"] == 0.0
        assert meta["flash_writes_saved"] > 0
        assert meta["digest_on"] != meta["digest_off"]

    def test_kv_ablate_table(self, capsys):
        code = main([
            "kv", "--workload", "ycsb-a", "--scale", "0.05", "--ablate",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pool off: baseline" in out
        assert "pool saves" in out

    def test_kv_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kv", "--workload", "nope"])


class TestCheckFlags:
    def test_check_flags_parse(self):
        args = build_parser().parse_args([
            "run", "--workload", "mail", "--system", "mq-dvp",
            "--check", "--check-interval", "250", "--trim-every", "5",
            "--program-failure-prob", "0.01", "--seed", "7",
        ])
        assert args.check
        assert args.check_interval == 250
        assert args.trim_every == 5
        assert args.program_failure_prob == 0.01

    def test_run_with_check_and_trims(self, capsys):
        assert main([
            "run", "--workload", "mail", "--system", "mq-dvp",
            "--scale", "0.004", "--check", "--trim-every", "9", "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["counters"]["host_writes"] > 0

    def test_faults_with_check(self, capsys):
        assert main([
            "faults", "--workload", "mail", "--system", "mq-dvp",
            "--scale", "0.004", "--check", "--trim-every", "9",
            "--program-failure-prob", "0.01", "--seed", "3", "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kind"] == "run"
        assert "program_failures" in summary["faults"]

    def test_compare_accepts_check(self, capsys):
        assert main([
            "compare", "--workload", "mail",
            "--systems", "baseline,mq-dvp",
            "--scale", "0.004", "--check",
        ]) == 0
        assert "mq-dvp" in capsys.readouterr().out

    def test_run_without_fault_flags_builds_no_fault_model(self, capsys):
        """A plain run must stay on the perfect device (no fault stats)."""
        assert main([
            "run", "--workload", "mail", "--system", "baseline",
            "--scale", "0.004", "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["faults"] is None
