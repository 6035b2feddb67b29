"""Campaign runner: grid expansion, crash isolation, resume semantics.

The failure-path tests drive the real process pool through the chaos
hooks (``REPRO_CAMPAIGN_TEST_*``) documented in ``docs/runner.md``:
workers that crash, hang, or get killed mid-campaign must each leave a
resumable manifest and never take the campaign down with them.
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
from repro.runner.campaign import (CRASH_ENV, DELAY_ENV, HANG_ENV,
                                   CampaignError, CampaignRunner,
                                   CampaignSpec, execute_task, run_campaign)
from repro.runner.manifest import CampaignManifest

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def small_spec(**overrides):
    base = dict(workloads=("compress", "li"),
                policies=("original", "lut-4"))
    base.update(overrides)
    return CampaignSpec(**base)


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
            CampaignRunner(small_spec(), tmp_path, executor="thread")


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
        # faults never alter the published stream, so the second task
        # replays the first task's recording
        spec = small_spec(workloads=("li",), fault_rates=(0.0, 0.2))
        run_campaign(spec, tmp_path, executor="inline")
        manifest = CampaignManifest.load(tmp_path / "manifest.jsonl")
        states = {entry["id"]: entry["result"]["trace_cache"]
                  for entry in manifest.tasks.values()}
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
        run_campaign(spec, tmp_path, executor="inline")
        cached = CampaignManifest.load(tmp_path / "manifest.jsonl")

        fresh_dir = tmp_path / "fresh"
        run_campaign(spec, fresh_dir, executor="inline", trace_cache=False)
        fresh = CampaignManifest.load(fresh_dir / "manifest.jsonl")

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
        run_campaign(spec, tmp_path, executor="inline", trace_cache=False)
        manifest = CampaignManifest.load(tmp_path / "manifest.jsonl")
        for entry in manifest.tasks.values():
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
        manifest = CampaignManifest.load(tmp_path / "manifest.jsonl")
        assert sorted(manifest.completed_ids()) \
            == ["compress@s1/default/r0", "li@s1/default/r0"]

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
        done_before = set(
            CampaignManifest.load(tmp_path / "manifest.jsonl")
            .completed_ids())
        assert len(done_before) == 1

        second = run_campaign(spec, tmp_path, executor="inline", resume=True)
        assert second.complete
        assert second.skipped == 1 and second.done == 3
        manifest = CampaignManifest.load(tmp_path / "manifest.jsonl")
        assert set(manifest.completed_ids()) == all_ids
        # the resumed run recorded exactly the complement of the first
        assert {tid for tid in manifest.tasks
                if tid not in done_before} == all_ids - done_before


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
        manifest = CampaignManifest.load(tmp_path / "manifest.jsonl")
        assert manifest.status_of("li@s1/default/r0") == "done"


class TestKillAndResume:
    def test_sigkill_mid_campaign_then_resume(self, tmp_path):
        """ISSUE acceptance: SIGKILL the whole campaign process mid-run;
        the manifest left behind resumes to exactly the pending set."""
        spec = small_spec(fault_rates=(0.0, 0.05))  # 4 tasks
        all_ids = {t.task_id for t in spec.tasks()}
        out_dir = tmp_path / "campaign"
        driver = ("import json, sys\n"
                  "from repro.runner.campaign import CampaignSpec,"
                  " run_campaign\n"
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
            done_before = set()
            while time.monotonic() < deadline:
                if manifest_path.exists():
                    done_before = set(CampaignManifest.load(manifest_path)
                                      .completed_ids())
                    if done_before:
                        break
                time.sleep(0.05)
        finally:
            proc.kill()  # SIGKILL: no cleanup handlers run
            proc.wait(timeout=30)
        # the journal survived the kill with at least one task recorded,
        # and the campaign clearly did not finish
        done_before = set(
            CampaignManifest.load(manifest_path).completed_ids())
        assert done_before and done_before < all_ids

        result = run_campaign(spec, out_dir, executor="inline", resume=True)
        assert result.complete
        assert result.skipped == len(done_before)
        assert result.done == len(all_ids) - len(done_before)
        manifest = CampaignManifest.load(manifest_path)
        assert set(manifest.completed_ids()) == all_ids


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
