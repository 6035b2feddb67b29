"""Single-host campaigns: grid expansion, crash isolation, resume.

A single-host ``run_campaign`` is the campaign fabric with one
in-process worker.  The failure-path tests drive the real process pool
through the chaos hooks (``REPRO_CAMPAIGN_TEST_*``) documented in
``docs/runner.md``: workers that crash, hang, or get killed
mid-campaign must each leave a resumable campaign and never take it
down with them.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.report import render_campaign
from repro.core.registry import REGISTRY
from repro.runner import (CampaignError, CampaignLayout, CampaignSpec,
                          DistCoordinator, execute_task, run_campaign)
from repro.runner.manifest import (CampaignManifest, merge_task_records,
                                   read_shard_records, write_merged_manifest)
from repro.runner.pool import CRASH_ENV, DELAY_ENV, HANG_ENV

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def small_spec(**overrides):
    base = dict(workloads=("compress", "li"),
                policies=("original", "lut-4"))
    base.update(overrides)
    return CampaignSpec(**base)


def done_ids(manifest_path):
    manifest = CampaignManifest.load(manifest_path)
    return {tid for tid, rec in manifest.tasks.items()
            if rec["status"] == "done"}


class TestSpec:
    def test_grid_expansion_is_deterministic(self):
        spec = small_spec(fault_rates=(0.0, 0.1),
                          configs={"default": {}, "narrow": {"rob_entries": 8}})
        ids = [t.task_id for t in spec.tasks()]
        assert ids == ["compress@s1/default/r0", "compress@s1/default/r0.1",
                       "compress@s1/narrow/r0", "compress@s1/narrow/r0.1",
                       "li@s1/default/r0", "li@s1/default/r0.1",
                       "li@s1/narrow/r0", "li@s1/narrow/r0.1"]
        assert ids == [t.task_id for t in spec.tasks()]

    def test_unknown_config_field_rejected(self):
        with pytest.raises(CampaignError, match="unknown MachineConfig"):
            small_spec(configs={"bad": {"rob_size": 16}})

    def test_empty_grid_rejected(self):
        with pytest.raises(CampaignError, match="workload"):
            CampaignSpec(workloads=())
        with pytest.raises(CampaignError, match="policy"):
            CampaignSpec(workloads=("li",), policies=())

    def test_unknown_policy_rejected_at_build_time(self):
        with pytest.raises(CampaignError, match="registered kinds"):
            small_spec(policies=("original", "lut4"))

    def test_malformed_policy_rejected_at_build_time(self):
        with pytest.raises(CampaignError, match="lut-<bits>"):
            small_spec(policies=("lut-abc",))

    def test_registry_kinds_accepted(self):
        spec = small_spec(policies=("original", "bdd-4", "lut-4"))
        assert spec.policies == ("original", "bdd-4", "lut-4")

    def test_fingerprint_tracks_the_grid(self):
        spec = small_spec()
        assert spec.fingerprint() == small_spec().fingerprint()
        assert spec.fingerprint() != small_spec(seed=1).fingerprint()
        assert spec.fingerprint() \
            != small_spec(fault_rates=(0.0, 0.1)).fingerprint()

    def test_dict_round_trip_preserves_fingerprint(self):
        spec = small_spec(fault_rates=(0.0, 0.05),
                          configs={"deep": {"rob_entries": 64}})
        clone = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone.fingerprint() == spec.fingerprint()

    def test_invalid_executor(self, tmp_path):
        with pytest.raises(CampaignError, match="executor"):
            run_campaign(small_spec(), tmp_path, executor="thread")


class TestSpecThatFailsEveryCell:
    """A spec whose every affected cell would fail is refused at build:
    the CLI exits 2 before writing ``--dir``, and a stored spec (what
    ``--join`` and ``--resume`` rebuild) is refused the same way."""

    @staticmethod
    def refused(capsys, tmp_path, spec_overrides, *flags):
        from repro.cli import main
        out = tmp_path / "bad"
        code = main(["campaign", "--dir", str(out), *flags])
        assert code == 2 and not out.exists()
        stderr = capsys.readouterr().err
        assert stderr.startswith("campaign error: ")
        stored = dict(small_spec().to_dict(), **spec_overrides)
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(stored)
        return stderr

    def test_unknown_workload(self, capsys, tmp_path):
        stderr = self.refused(capsys, tmp_path,
                              {"workloads": ["compress", "nosuch"]},
                              "--workloads", "compress", "nosuch",
                              "--policies", "original")
        assert "unknown workload 'nosuch'" in stderr

    def test_fu_without_paper_statistics(self, capsys, tmp_path):
        stderr = self.refused(capsys, tmp_path, {"fu": "imult"},
                              "--workloads", "li", "--fu", "imult",
                              "--policies", "original")
        assert "fu 'imult'" in stderr and "IALU and FPAU only" in stderr

    def test_config_machine_config_rejects(self, capsys, tmp_path):
        configs = tmp_path / "configs.json"
        configs.write_text(json.dumps({"zero": {"fetch_width": 0}}))
        stderr = self.refused(capsys, tmp_path,
                              {"configs": {"zero": {"fetch_width": 0}}},
                              "--workloads", "li", "--policies", "original",
                              "--configs-json", str(configs))
        assert "config 'zero'" in stderr and "at least 1" in stderr

    def test_scale_below_one(self, capsys, tmp_path):
        stderr = self.refused(capsys, tmp_path, {"scales": [0]},
                              "--workloads", "li", "--policies", "original",
                              "--scale", "0")
        assert "scales must be at least 1" in stderr

    def test_policy_the_module_count_cannot_build(self, capsys, tmp_path):
        # a 10-bit vector holds five slots; the IALU has four modules
        stderr = self.refused(capsys, tmp_path,
                              {"policies": ["original", "lut-10"]},
                              "--workloads", "li",
                              "--policies", "original", "lut-10")
        assert "policy 'lut-10'" in stderr and "4 ialu modules" in stderr


class TestExecuteTask:
    def test_result_shape_and_saving(self):
        task = small_spec().tasks()[0]
        result = execute_task(task)
        assert result["workload"] == "compress"
        assert result["cycles"] > 0 and result["retired"] > 0
        assert result["fault_flips"] == 0
        assert set(result["policies"]) == {"original", "lut-4"}
        assert result["policies"]["original"]["saving"] == 0.0
        assert 0.0 < result["policies"]["lut-4"]["saving"] < 1.0

    def test_faulted_task_reports_flips(self):
        spec = small_spec(workloads=("li",), fault_rates=(0.2,))
        result = execute_task(spec.tasks()[0])
        assert result["fault_flips"] > 0

    def test_cache_off_without_directory(self):
        result = execute_task(small_spec().tasks()[0])
        assert result["trace_cache"] == "off"

    def test_kernel_error_on_warm_hit_fails_the_task(self, tmp_path,
                                                     monkeypatch):
        # `original` runs (and flushes its totals) before `lut-4`'s
        # kernel raises; re-driving the object path would count the
        # baseline twice, so the error must fail the task instead
        task = dataclasses.replace(small_spec(workloads=("compress",))
                                   .tasks()[0],
                                   trace_cache_dir=str(tmp_path))
        assert execute_task(task)["trace_cache"] == "miss"

        def broken(ev, cols):
            def run():
                raise RuntimeError("kernel bug")
            return run

        monkeypatch.setitem(REGISTRY._kernels, ("lut", "np"), broken)
        with pytest.raises(RuntimeError, match="kernel bug"):
            execute_task(task)


class TestCampaignTraceCache:
    def test_cells_sharing_a_stream_hit_the_cache(self, tmp_path):
        # two fault rates over one (workload, config): policy-view
        # faults never alter the published stream, so one task replays
        # the other's recording.  The first cell in grid order records
        spec = small_spec(workloads=("li",), fault_rates=(0.0, 0.2))
        result = run_campaign(spec, tmp_path, executor="inline")
        states = {tid: entry["result"]["trace_cache"]
                  for tid, entry in result.tasks.items()}
        assert states == {"li@s1/default/r0": "miss",
                          "li@s1/default/r0.2": "hit"}
        entries = list((tmp_path / "trace-cache").iterdir())
        assert len(entries) == 1 and entries[0].suffix == ".pack"

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_warm_hit_is_one_lookup_and_one_hash(self, tmp_path,
                                                 store_calls, rate):
        task = dataclasses.replace(
            small_spec(workloads=("compress",), fault_rates=(rate,))
            .tasks()[0], trace_cache_dir=str(tmp_path))
        cold = execute_task(task)
        assert cold["trace_cache"] == "miss"
        store_calls.update(fingerprint=0, cached_source=0)
        warm = execute_task(task)
        assert warm["trace_cache"] == "hit"
        assert store_calls == {"fingerprint": 1, "cached_source": 1}
        # the entry's run summary stands in for the simulation
        for field in ("cycles", "retired", "ipc", "policies",
                      "fault_flips"):
            assert warm[field] == cold[field]
        assert warm["telemetry"]["metrics"]["counters"] \
            == cold["telemetry"]["metrics"]["counters"]

    def test_hit_and_miss_cells_report_identical_results(self, tmp_path):
        spec = small_spec(workloads=("compress",), fault_rates=(0.0, 0.0001))
        cached = run_campaign(spec, tmp_path / "cached", executor="inline")
        fresh = run_campaign(spec, tmp_path / "fresh", executor="inline",
                             trace_cache=False)

        for task_id, entry in fresh.tasks.items():
            want = dict(entry["result"])
            got = dict(cached.tasks[task_id]["result"])
            state = got.pop("trace_cache")
            want.pop("trace_cache")
            assert state in ("hit", "miss")
            # telemetry carries wall-clock-ish sampling metadata; the
            # physics (cycles, savings, counters) must be identical
            want_tel = want.pop("telemetry", None)
            got_tel = got.pop("telemetry", None)
            assert got == want
            if want_tel is not None:
                assert got_tel["metrics"]["counters"] \
                    == want_tel["metrics"]["counters"]

    def test_trace_cache_disabled_leaves_no_directory(self, tmp_path):
        spec = small_spec(workloads=("li",))
        result = run_campaign(spec, tmp_path, executor="inline",
                              trace_cache=False)
        for entry in result.tasks.values():
            assert entry["result"]["trace_cache"] == "off"
        assert not (tmp_path / "trace-cache").exists()

    def test_cache_toggle_does_not_change_spec_fingerprint(self, tmp_path):
        # the cache is an execution detail: disabling it on resume must
        # not invalidate the manifest
        spec = small_spec(workloads=("compress", "li"))
        run_campaign(spec, tmp_path, executor="inline", limit=1)
        result = run_campaign(spec, tmp_path, executor="inline",
                              resume=True, trace_cache=False)
        assert result.complete
        assert result.skipped == 1


class TestInlineRunner:
    def test_full_run_completes(self, tmp_path):
        result = run_campaign(small_spec(), tmp_path, executor="inline")
        assert result.complete
        assert (result.done, result.failed, result.skipped) == (2, 0, 0)
        assert done_ids(tmp_path / "manifest.jsonl") \
            == {"compress@s1/default/r0", "li@s1/default/r0"}

    def test_existing_manifest_needs_resume_flag(self, tmp_path):
        run_campaign(small_spec(), tmp_path, executor="inline")
        with pytest.raises(CampaignError, match="resume"):
            run_campaign(small_spec(), tmp_path, executor="inline")

    def test_resume_rejects_different_grid(self, tmp_path):
        run_campaign(small_spec(), tmp_path, executor="inline")
        with pytest.raises(CampaignError, match="fingerprint"):
            run_campaign(small_spec(seed=5), tmp_path, executor="inline",
                         resume=True)

    def test_limit_then_resume_restores_exact_pending_set(self, tmp_path):
        """Deterministic half of the kill-and-resume acceptance: stop
        after N tasks, resume, and the second run must execute exactly
        the complement."""
        spec = small_spec(fault_rates=(0.0, 0.1))  # 4 tasks
        all_ids = {t.task_id for t in spec.tasks()}

        first = run_campaign(spec, tmp_path, executor="inline", limit=1)
        assert not first.complete
        assert first.done == 1 and first.remaining == 3
        done_before = done_ids(tmp_path / "manifest.jsonl")
        assert len(done_before) == 1

        second = run_campaign(spec, tmp_path, executor="inline", resume=True)
        assert second.complete
        assert second.skipped == 1 and second.done == 4
        assert done_ids(tmp_path / "manifest.jsonl") == all_ids
        # the resumed run executed exactly the complement of the first:
        # one lease journal per cell, none re-run
        journals = list(CampaignLayout(tmp_path).results_dir.iterdir())
        assert len(journals) == len(all_ids)


class TestSimulatorAbortsAreContained:
    def test_deadlock_watchdog_failure_is_journaled(self, tmp_path):
        """A hanging workload trips the retirement watchdog; the task
        fails with the diagnostic snapshot in the manifest and the
        campaign carries on."""
        spec = CampaignSpec(workloads=("ijpeg",),
                            policies=("original", "lut-4"),
                            configs={"default": {},
                                     "tight": {"watchdog_cycles": 6}})
        result = run_campaign(spec, tmp_path, executor="inline", retries=0)
        assert result.complete
        assert result.failed == 1 and result.done == 1
        assert result.tasks["ijpeg@s1/default/r0"]["status"] == "done"

        record = result.tasks["ijpeg@s1/tight/r0"]
        assert record["status"] == "failed"
        error = record["error"]
        assert error["type"] == "DeadlockDetected"
        assert "watchdog" in error["message"]
        snapshot = error["snapshot"]
        assert snapshot["cycles_since_retire"] >= 6
        assert snapshot["rob_occupancy"] > 0
        assert snapshot["oldest_op"]

    def test_cycle_limit_failure_carries_snapshot(self, tmp_path):
        spec = CampaignSpec(workloads=("compress",),
                            policies=("original",),
                            configs={"cap": {"max_cycles": 100}})
        result = run_campaign(spec, tmp_path, executor="inline", retries=0)
        assert result.failed == 1
        error = result.tasks["compress@s1/cap/r0"]["error"]
        assert error["type"] == "CycleLimitExceeded"
        assert error["snapshot"]["cycle"] == 100


class TestProcessPool:
    def test_pool_runs_grid(self, tmp_path):
        result = run_campaign(small_spec(), tmp_path, max_workers=2,
                              task_timeout=120.0)
        assert result.complete
        assert result.done == 2 and result.failed == 0
        lut = result.tasks["compress@s1/default/r0"]["result"]["policies"]
        assert 0.0 < lut["lut-4"]["saving"] < 1.0

    def test_worker_crash_is_isolated(self, tmp_path, monkeypatch):
        """ISSUE acceptance: an injected crash marks one task failed —
        with the exit code — and never kills the campaign."""
        monkeypatch.setenv(CRASH_ENV, "compress@")
        result = run_campaign(small_spec(), tmp_path, max_workers=2,
                              task_timeout=120.0, retries=0)
        assert result.complete
        assert result.failed == 1 and result.done == 1
        error = result.tasks["compress@s1/default/r0"]["error"]
        assert error["type"] == "WorkerCrashed"
        assert str(-signal.SIGKILL) in error["message"]
        assert result.tasks["li@s1/default/r0"]["status"] == "done"

    def test_hanging_task_times_out_retries_then_fails(self, tmp_path,
                                                       monkeypatch):
        """ISSUE acceptance: a task exceeding its timeout is SIGKILLed,
        retried with backoff, and finally marked failed."""
        monkeypatch.setenv(HANG_ENV, "li@")
        spec = small_spec(workloads=("li",))
        start = time.monotonic()
        result = run_campaign(spec, tmp_path, max_workers=1,
                              task_timeout=0.4, retries=1, backoff=0.1)
        elapsed = time.monotonic() - start
        assert result.complete
        assert result.failed == 1 and result.done == 0
        record = result.tasks["li@s1/default/r0"]
        assert record["attempts"] == 2  # first attempt + one retry
        assert record["error"]["type"] == "TaskTimeout"
        assert "timeout" in record["error"]["message"]
        assert elapsed >= 0.8  # two full timeouts actually elapsed

    def test_retry_failed_reruns_and_succeeds(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "li@")
        run_campaign(small_spec(workloads=("li",)), tmp_path,
                     task_timeout=120.0, retries=0)
        monkeypatch.delenv(CRASH_ENV)
        result = run_campaign(small_spec(workloads=("li",)), tmp_path,
                              executor="inline", resume=True,
                              retry_failed=True)
        assert result.complete and result.done == 1 and result.failed == 0
        assert done_ids(tmp_path / "manifest.jsonl") == {"li@s1/default/r0"}


class TestKillAndResume:
    def test_sigkill_mid_campaign_then_resume(self, tmp_path):
        """SIGKILL the whole campaign process mid-run; the journals left
        behind resume to exactly the pending set, at once."""
        spec = small_spec(fault_rates=(0.0, 0.05))  # 4 tasks
        all_ids = {t.task_id for t in spec.tasks()}
        out_dir = tmp_path / "campaign"
        driver = ("import json, sys\n"
                  "from repro.runner import CampaignSpec, run_campaign\n"
                  "spec = CampaignSpec.from_dict(json.loads(sys.argv[1]))\n"
                  "run_campaign(spec, sys.argv[2], max_workers=1,"
                  " task_timeout=60.0, retries=0)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        env[DELAY_ENV] = "0.6"  # slow each worker so the kill lands mid-grid
        proc = subprocess.Popen(
            [sys.executable, "-c", driver,
             json.dumps(spec.to_dict()), str(out_dir)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        manifest_path = out_dir / "manifest.jsonl"
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if manifest_path.exists() and done_ids(manifest_path):
                    break
                time.sleep(0.05)
        finally:
            proc.kill()  # SIGKILL: no cleanup handlers run
            proc.wait(timeout=30)
        # the journals survived the kill with at least one task
        # recorded, and the campaign clearly did not finish; the
        # manifest never shows a cell the journals lack
        journaled = merge_task_records(read_shard_records(
            CampaignLayout(out_dir).results_dir))
        done_before = {rec["id"] for rec in journaled.values()
                       if rec["status"] == "done"}
        assert done_before and done_before < all_ids
        assert done_ids(manifest_path) <= done_before

        # the dead run's lease names a pid that no longer exists, so
        # the resume claims it at once despite the 600 s ttl
        start = time.monotonic()
        result = run_campaign(spec, out_dir, executor="inline", resume=True,
                              lease_ttl=600.0)
        assert time.monotonic() - start < 120.0
        assert result.complete
        assert result.skipped == len(done_before)
        assert result.done == len(all_ids)
        assert done_ids(manifest_path) == all_ids
        # and ran exactly the pending set: across every journal each
        # cell is done once, even one journaled before the kill landed
        # but not yet acked
        done_records = [rec["id"] for rec in read_shard_records(
            CampaignLayout(out_dir).results_dir) if rec["status"] == "done"]
        assert sorted(done_records) == sorted(all_ids)

    def test_cell_journaled_but_not_acked_is_not_rerun(self, tmp_path,
                                                       monkeypatch):
        """A run killed between journaling a cell and acking its shard
        leaves a journal without a footer: the resume claims the shard,
        skips the cell and acks it without running it again."""
        spec = small_spec(workloads=("li",))
        run_campaign(spec, tmp_path, executor="inline")
        layout = CampaignLayout(tmp_path)
        layout.ack_path("shard-0000").unlink()
        (journal,) = layout.results_dir.iterdir()
        lines = journal.read_text().splitlines(keepends=True)
        assert json.loads(lines[-1])["event"] == "shard-done"
        journal.write_text("".join(lines[:-1]))

        from repro.runner import dist as dist_mod

        def rerun(task):
            raise AssertionError(f"{task.task_id} ran again")

        monkeypatch.setattr(dist_mod, "execute_task", rerun)
        result = run_campaign(spec, tmp_path, executor="inline",
                              resume=True, retries=0)
        assert result.complete
        assert (result.done, result.failed, result.skipped) == (1, 0, 1)
        assert [rec["status"] for rec in read_shard_records(
            layout.results_dir)] == ["done"]
        assert json.loads(layout.ack_path("shard-0000").read_text()
                          )["epoch"] == 2


class TestInterrupts:
    @pytest.fixture
    def raising(self, monkeypatch):
        """Make one task id raise ``exc`` in the in-process worker."""
        from repro.runner import dist as dist_mod
        real = dist_mod.execute_task

        def install(task_id, exc):
            def execute(task):
                if task.task_id == task_id:
                    raise exc
                return real(task)
            monkeypatch.setattr(dist_mod, "execute_task", execute)
        return install

    def test_interrupts_never_quarantine_a_cell(self, tmp_path, raising,
                                                monkeypatch):
        """Three ^Cs on one task, each followed by a resume, hand its
        lease back each time; none counts toward max_shard_attempts."""
        spec = small_spec()
        raising("li@s1/default/r0", KeyboardInterrupt)
        for run in range(3):
            with pytest.raises(KeyboardInterrupt):
                run_campaign(spec, tmp_path, executor="inline",
                             resume=run > 0, max_shard_attempts=3)
        layout = CampaignLayout(tmp_path)
        footers = [json.loads(path.read_text().splitlines()[-1])["event"]
                   for path in layout.results_dir.glob("shard-0001.*")]
        assert footers == ["shard-released"] * 3
        assert not list(layout.lease_dir.iterdir())

        monkeypatch.undo()
        result = run_campaign(spec, tmp_path, executor="inline",
                              resume=True, max_shard_attempts=3)
        assert result.complete and result.shards_quarantined == 0
        assert (result.done, result.failed, result.skipped) == (2, 0, 1)

    def test_system_exit_ends_the_run(self, tmp_path, raising):
        """An inline task raising SystemExit is not a task failure: the
        run ends, the shard stays unacked and its lease is released."""
        raising("li@s1/default/r0", SystemExit(3))
        with pytest.raises(SystemExit):
            run_campaign(small_spec(workloads=("li",)), tmp_path,
                         executor="inline")
        layout = CampaignLayout(tmp_path)
        assert not layout.ack_path("shard-0000").exists()
        assert not layout.lease_path("shard-0000").exists()
        (journal,) = layout.results_dir.iterdir()
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        assert [rec["event"] for rec in records] \
            == ["shard", "shard-released"]

    @pytest.mark.parametrize("join", [False, True])
    def test_sigterm_hands_the_lease_back(self, tmp_path, join):
        """SIGTERM to a single-host run or a ``--join`` worker (a batch
        scheduler pre-empting the job, say) releases the lease like
        ^C: with max_shard_attempts=1 the resume still quarantines
        nothing."""
        spec = small_spec(workloads=("li",))
        argv = [sys.executable, "-m", "repro", "campaign",
                "--dir", str(tmp_path), "--max-workers", "1",
                "--max-shard-attempts", "1"]
        if join:
            DistCoordinator(spec, tmp_path, max_workers=1,
                            max_shard_attempts=1).publish()
            argv.append("--join")
        else:
            argv += ["--workloads", "li", "--policies", "original", "lut-4"]
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        env[DELAY_ENV] = "60"  # the task is in flight when SIGTERM lands
        layout = CampaignLayout(tmp_path)
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while not layout.lease_path("shard-0000").exists() \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.5)  # let the claim finish and the task launch
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 130
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert not layout.lease_path("shard-0000").exists()
        (journal,) = layout.results_dir.iterdir()
        assert json.loads(journal.read_text().splitlines()[-1])["event"] \
            == "shard-released"

        result = run_campaign(spec, tmp_path, executor="inline",
                              resume=True, max_shard_attempts=1)
        assert result.complete and result.shards_quarantined == 0
        assert (result.done, result.failed, result.skipped) == (1, 0, 0)

    @pytest.mark.parametrize("resume", [False, True])
    def test_old_runner_directory_is_refused(self, tmp_path, resume):
        """A manifest.jsonl without campaign.json came from the retired
        single-host runner; resuming onto it would overwrite it."""
        spec = small_spec(workloads=("li",))
        path = tmp_path / "manifest.jsonl"
        write_merged_manifest(path, spec.fingerprint(), spec.to_dict(), {})
        before = path.read_bytes()
        with pytest.raises(CampaignError, match="campaign.json"):
            run_campaign(spec, tmp_path, executor="inline", resume=resume)
        assert path.read_bytes() == before


class TestReportDegradesGracefully:
    def test_failed_and_pending_cells_render_as_gaps(self):
        tasks = {
            "a": {"status": "done", "attempts": 1,
                  "result": {"cycles": 500, "fault_flips": 3,
                             "policies": {"original": {"saving": 0.0},
                                          "lut-4": {"saving": 0.31}}}},
            "b": {"status": "failed", "attempts": 2,
                  "error": {"type": "TaskTimeout",
                            "message": "exceeded 0.4s task timeout"}},
        }
        text = render_campaign(["original", "lut-4"], tasks, pending=["c"])
        assert "31.0" in text and "faults=3" in text
        assert "FAILED" in text and "TaskTimeout" in text
        assert "not yet run" in text
        assert "2 recorded (1 failed), 1 pending" in text

    def test_empty_campaign_renders(self):
        text = render_campaign(["original"], {}, pending=[])
        assert "0 recorded (0 failed), 0 pending" in text
