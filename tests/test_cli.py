"""CLI smoke tests: every subcommand runs and prints what it promises."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr().out
    return code, output


class TestCli:
    def test_workloads(self, capsys):
        code, output = run_cli(capsys, "workloads")
        assert code == 0
        assert "compress" in output and "fpppp" in output

    def test_simulate(self, capsys):
        code, output = run_cli(capsys, "simulate", "li")
        assert code == 0
        assert "architectural check: passed" in output
        assert "IPC" in output

    def test_table1(self, capsys):
        code, output = run_cli(capsys, "table1", "--workloads", "compress",
                               "swim")
        assert code == 0
        assert "Table 1" in output and "(paper)" in output

    def test_table2_no_paper(self, capsys):
        code, output = run_cli(capsys, "table2", "--workloads", "compress",
                               "swim", "--no-paper")
        assert code == 0
        assert "Table 2" in output and "paper" not in output

    def test_table3(self, capsys):
        code, output = run_cli(capsys, "table3", "--workloads", "ijpeg",
                               "turb3d")
        assert code == 0
        assert "Table 3" in output

    def test_figure1(self, capsys):
        code, output = run_cli(capsys, "figure1")
        assert code == 0
        assert "57%" in output

    def test_figure4_synthetic(self, capsys):
        code, output = run_cli(capsys, "figure4", "ialu", "--synthetic",
                               "--cycles", "800")
        assert code == 0
        assert "lut-4" in output

    def test_multiplier(self, capsys):
        code, output = run_cli(capsys, "multiplier", "--workloads", "ijpeg")
        assert code == 0
        assert "swappable" in output

    def test_gates(self, capsys):
        code, output = run_cli(capsys, "gates", "--vector-bits", "4",
                               "--rs-entries", "8")
        assert code == 0
        assert "58 gates, 6 levels" in output

    def test_policies_lists_registered_families(self, capsys):
        code, output = run_cli(capsys, "policies")
        assert code == 0
        for family in ("original", "round-robin", "full-ham", "1bit-ham",
                       "lut-<bits>", "bdd-<bits>"):
            assert family in output
        assert "default CLI policies" in output
        assert "figure-4 grid" in output

    def test_policies_lists_np_kernel_for_every_family(self, capsys):
        code, output = run_cli(capsys, "policies")
        assert code == 0
        families = ("original", "round-robin", "full-ham", "1bit-ham",
                    "lut", "bdd")
        kernels = {}
        for line in output.splitlines():
            cells = line.split()
            if cells and cells[0] in families:
                kernels[cells[0]] = cells[4]  # the "kernels" column
        assert kernels == dict.fromkeys(families, "np")

    def test_retired_engines_rejected_at_parse_time(self, capsys):
        for engine in ("batch-np", "auto"):
            with pytest.raises(SystemExit) as excinfo:
                main(["figure4", "ialu", "--engine", engine])
            assert excinfo.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_figure4_job_count_checked_at_parse_time(self, capsys):
        for jobs in ("0", "-2"):
            with pytest.raises(SystemExit) as excinfo:
                main(["figure4", "ialu", "--jobs", jobs])
            assert excinfo.value.code == 2
            assert "must be at least 1" in capsys.readouterr().err

    def test_figure4_cache_limit_needs_cache_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure4", "ialu", "--cache-limit-mb", "5"])
        assert excinfo.value.code == 2
        assert "--cache-limit-mb needs --cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["nan", "inf", "-1"])
    def test_figure4_cache_limit_checked_at_parse_time(self, capsys,
                                                       tmp_path, limit):
        cache = tmp_path / "traces"
        with pytest.raises(SystemExit) as excinfo:
            main(["figure4", "ialu", "--scale", "1", "--workloads",
                  "compress", "--cache-dir", str(cache),
                  "--cache-limit-mb", limit])
        assert excinfo.value.code == 2
        assert "must be a finite size of at least 0" \
            in capsys.readouterr().err
        assert not cache.exists()  # nothing ran

    def test_figure4_zero_cache_limit_is_valid(self):
        args = build_parser().parse_args(
            ["figure4", "ialu", "--cache-dir", "d", "--cache-limit-mb", "0"])
        assert args.cache_limit_mb == 0.0

    def test_figure4_policies_override(self, capsys):
        code, output = run_cli(capsys, "figure4", "ialu", "--synthetic",
                               "--cycles", "2000",
                               "--policies", "original", "bdd-4")
        assert code == 0
        assert "bdd-4" in output
        assert "lut-8" not in output

    def test_unknown_policy_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "whatever.trace", "--policies", "nope"])
        assert excinfo.value.code == 2
        assert "registered kinds" in capsys.readouterr().err

    def test_trace_and_replay(self, capsys, tmp_path):
        trace = str(tmp_path / "t.gz")
        code, output = run_cli(capsys, "trace", "li", "-o", trace,
                               "--fu", "ialu")
        assert code == 0
        assert "issue groups" in output
        code, output = run_cli(capsys, "replay", trace,
                               "--policies", "original", "lut-4")
        assert code == 0
        assert "original" in output and "lut-4" in output

    def test_asm(self, capsys, tmp_path):
        source = tmp_path / "prog.s"
        source.write_text(".text\nli r1, 41\naddi r1, r1, 1\n"
                          "cvtif f1, r1\nhalt\n")
        code, output = run_cli(capsys, "asm", str(source))
        assert code == 0
        assert "r1  =           42" in output
        assert "42.0" in output

    def test_unknown_fu_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure4", "vpu"])

    def test_parser_help_lists_commands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in ("table1", "figure4", "replay", "gates"):
            assert command in help_text

    def test_verilog(self, capsys, tmp_path):
        out = tmp_path / "router.v"
        code, output = run_cli(capsys, "verilog", "--vector-bits", "4",
                               "-o", str(out))
        assert code == 0
        text = out.read_text()
        assert "module steer_lut (" in text
        assert text.count("endmodule") == 3

    def test_value_stats(self, capsys):
        code, output = run_cli(capsys, "value-stats", "--workloads",
                               "compress", "swim")
        assert code == 0
        assert "91.2%" in output  # paper reference column

    def test_sensitivity(self, capsys):
        code, output = run_cli(capsys, "sensitivity", "--workloads",
                               "cc1", "--test-scale", "2")
        assert code == 0
        assert "penalty" in output

    def test_figure4_per_workload(self, capsys):
        code, output = run_cli(capsys, "figure4", "ialu", "--scale", "1",
                               "--per-workload")
        assert code == 0
        assert "Per-workload energy reduction" in output
        assert "compress" in output

    def test_campaign_inline(self, capsys, tmp_path):
        out_dir = tmp_path / "camp"
        code, output = run_cli(capsys, "campaign", "--dir", str(out_dir),
                               "--workloads", "compress", "li",
                               "--policies", "original", "lut-4",
                               "--inline")
        assert code == 0
        assert "2 done, 0 failed" in output
        assert "compress@s1/default/r0" in output
        # every artifact is journaled next to the manifest
        assert (out_dir / "manifest.jsonl").exists()
        assert "Campaign results" in (out_dir / "report.txt").read_text()
        results = json.loads((out_dir / "results.json").read_text())
        assert set(results["tasks"]) == {"compress@s1/default/r0",
                                         "li@s1/default/r0"}

    def test_campaign_resume_skips_journaled_tasks(self, capsys, tmp_path):
        out_dir = tmp_path / "camp"
        argv = ["campaign", "--dir", str(out_dir), "--workloads", "li",
                "--policies", "original", "lut-4", "--inline"]
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        # same grid without --resume refuses to clobber the manifest
        code, _ = run_cli(capsys, *argv)
        assert code == 2
        code, output = run_cli(capsys, *argv, "--resume")
        assert code == 0
        assert "1 already journaled" in output

    def test_campaign_failed_task_sets_exit_code(self, capsys, tmp_path):
        out_dir = tmp_path / "camp"
        code, output = run_cli(capsys, "campaign", "--dir", str(out_dir),
                               "--workloads", "ijpeg",
                               "--policies", "original",
                               "--watchdog", "6", "--retries", "0",
                               "--inline")
        assert code == 1
        assert "FAILED" in output and "DeadlockDetected" in output

    def test_campaign_retry_failed_with_local_workers(self, capsys,
                                                      tmp_path,
                                                      monkeypatch):
        from repro.runner.pool import CRASH_ENV
        argv = ["campaign", "--dir", str(tmp_path / "camp"),
                "--workloads", "li", "--policies", "original",
                "--workers", "1", "--retries", "0"]
        monkeypatch.setenv(CRASH_ENV, "li@")
        code, output = run_cli(capsys, *argv)
        assert code == 1 and "WorkerCrashed" in output
        monkeypatch.delenv(CRASH_ENV)
        code, output = run_cli(capsys, *argv, "--resume", "--retry-failed")
        assert code == 0
        assert "1 done, 0 failed, 0 already journaled" in output

    def test_campaign_shard_size_applies_single_host(self, capsys,
                                                    tmp_path, monkeypatch):
        """A campaign published with --workers and --shard-size 2 resumes
        single-host with the same --shard-size (one two-cell shard:
        compress is skipped, li re-runs)."""
        from repro.runner.pool import CRASH_ENV
        argv = ["campaign", "--dir", str(tmp_path / "camp"),
                "--workloads", "compress", "li", "--policies", "original",
                "--retries", "0", "--shard-size", "2"]
        monkeypatch.setenv(CRASH_ENV, "li@")
        code, output = run_cli(capsys, *argv, "--workers", "1")
        assert code == 1 and "1/1 shards" in output
        monkeypatch.delenv(CRASH_ENV)
        code, output = run_cli(capsys, *argv, "--resume", "--retry-failed")
        assert code == 0
        assert "2 done, 0 failed, 1 already journaled" in output

    @pytest.mark.parametrize("mode", [["--workers", "1"], ["--join"]])
    def test_campaign_limit_is_single_host_only(self, capsys, tmp_path,
                                                mode):
        with pytest.raises(SystemExit) as exc_info:
            main(["campaign", "--dir", str(tmp_path / "camp"),
                  "--workloads", "li", "--limit", "1", *mode])
        assert exc_info.value.code == 2
        assert "--limit" in capsys.readouterr().err
        assert not (tmp_path / "camp").exists()

    def test_version(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_record_and_replay(self, capsys, tmp_path):
        trace = str(tmp_path / "compress.trace.gz")
        code, output = run_cli(capsys, "record", "compress", "-o", trace,
                               "--fu", "ialu")
        assert code == 0
        assert "issue groups" in output
        assert "trace v2" in output and "config" in output
        code, output = run_cli(capsys, "replay", trace,
                               "--policies", "original", "lut-4")
        assert code == 0
        assert "original" in output and "lut-4" in output

    def test_figure4_cache_dir_second_run_hits(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ("figure4", "ialu", "--scale", "1",
                "--workloads", "compress", "--cache-dir", cache)
        code = main(list(argv))
        first = capsys.readouterr()
        assert code == 0
        assert "misses" in first.err and "0 hits" in first.err

        code = main(list(argv))
        second = capsys.readouterr()
        assert code == 0
        # cache stats live on stderr; stdout is byte-identical
        assert "0 misses" in second.err and "0 simulations" in second.err
        assert second.out == first.out

    def test_campaign_no_trace_cache(self, capsys, tmp_path):
        out_dir = tmp_path / "camp"
        code, output = run_cli(capsys, "campaign", "--dir", str(out_dir),
                               "--workloads", "li",
                               "--policies", "original",
                               "--inline", "--no-trace-cache")
        assert code == 0
        assert not (out_dir / "trace-cache").exists()
        results = json.loads((out_dir / "results.json").read_text())
        record = results["tasks"]["li@s1/default/r0"]
        assert record["result"]["trace_cache"] == "off"

    def test_stats(self, capsys):
        code, output = run_cli(capsys, "stats", "--workload", "li",
                               "--interval", "200",
                               "--policies", "original", "lut-4")
        assert code == 0
        assert "retired" in output and "steer.ialu.original.ops" in output
        assert "samples" in output

    def test_stats_jsonl(self, capsys, tmp_path):
        series = tmp_path / "series.jsonl"
        code, output = run_cli(capsys, "stats", "--workload", "li",
                               "--interval", "100",
                               "--jsonl", str(series))
        assert code == 0
        rows = [json.loads(line) for line in
                series.read_text().strip().splitlines()]
        assert len(rows) >= 2
        assert rows[0]["cycle"] == 100
        assert all("ipc" in row for row in rows[1:])

    def test_trace_export(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code, output = run_cli(capsys, "trace-export", "--workload", "li",
                               "-o", str(out), "--interval", "100")
        assert code == 0
        assert "perfetto" in output.lower()
        from repro.telemetry import validate_chrome_trace
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"X", "M", "C"} <= phases

    def test_faultsweep(self, capsys, tmp_path):
        out = tmp_path / "curve.json"
        code, output = run_cli(capsys, "faultsweep", "li",
                               "--rates", "0.0", "0.1",
                               "-o", str(out))
        assert code == 0
        assert "fault rate" in output.lower()
        curve = json.loads(out.read_text())["curve"]
        assert set(curve) == {"0.0", "0.1"}
