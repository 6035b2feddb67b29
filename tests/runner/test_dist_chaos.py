"""Chaos harness for the distributed campaign fabric.

The acceptance bar (ISSUE 7): killing any single worker — and the
coordinator — mid-campaign, then resuming, must produce a merged
manifest **bit-identical** to an uninterrupted single-host run, with
every shard executed under exactly one surviving lease.

Worker loss is injected deterministically at chosen task boundaries via
``REPRO_DIST_TEST_KILL`` (the worker SIGKILLs itself — no cleanup
handlers run, exactly like losing the host), and enumerated across the
grid rather than sampled, so every kill point is exercised on every
run.  Coordinator loss SIGKILLs the whole process group of a real
driver subprocess mid-campaign.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import CampaignSpec, run_campaign
from repro.runner.dist import (KILL_ENV, CampaignError, CampaignLayout,
                               run_distributed, shard_ids)
from repro.runner.manifest import CampaignManifest
from repro.runner.pool import DELAY_ENV

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def chaos_spec():
    # 2 workloads x 2 fault rates = 4 tasks -> 4 single-task shards;
    # the pairs sharing a (workload, config) stream also exercise the
    # fleet-wide trace cache on every run
    return CampaignSpec(workloads=("compress", "li"),
                        policies=("original", "lut-4"),
                        fault_rates=(0.0, 0.01))


TASK_IDS = [t.task_id for t in chaos_spec().tasks()]


@pytest.fixture(scope="module")
def reference_manifest(tmp_path_factory):
    """The uninterrupted single-host run every chaos run must match."""
    root = tmp_path_factory.mktemp("reference")
    result = run_distributed(chaos_spec(), root, workers=1, shard_size=1,
                             executor="inline", lease_ttl=30)
    assert result.complete and result.failed == 0
    return result.manifest_path.read_bytes()


def assert_exactly_one_surviving_lease(root):
    """Every shard: one terminal ack, whose (epoch, nonce) journal ran
    to completion (shard-done footer), and no lease left behind."""
    layout = CampaignLayout(root)
    assert not list(layout.lease_dir.iterdir())
    shards = sorted(p.stem for p in layout.queue_dir.glob("*.json"))
    assert shards
    for sid in shards:
        ack = json.loads(layout.ack_path(sid).read_text())
        assert ack["status"] in ("done", "quarantined")
        if ack["status"] != "done":
            continue
        journal = layout.result_path(sid, ack["epoch"], ack["nonce"])
        footer = json.loads(journal.read_text().splitlines()[-1])
        assert footer["event"] == "shard-done"
        assert footer["worker"] == ack["worker"]
        assert footer["epoch"] == ack["epoch"]


def assert_no_temp_droppings(root):
    assert not list(Path(root).rglob("*.tmp"))


class TestWorkerLoss:
    @pytest.mark.parametrize("kill_task", TASK_IDS)
    def test_any_single_worker_killed_mid_shard(self, tmp_path,
                                                monkeypatch, kill_task,
                                                reference_manifest):
        """SIGKILL whichever worker picks up ``kill_task`` (first lease
        epoch only); the survivor steals the shard and the merged
        manifest matches the single-host bytes."""
        monkeypatch.setenv(KILL_ENV, kill_task)
        result = run_distributed(chaos_spec(), tmp_path, workers=2,
                                 shard_size=1, executor="inline",
                                 lease_ttl=2.0, backoff=0.05)
        assert result.complete
        assert result.done == 4 and result.failed == 0
        assert result.counters["dist.shards.stolen"] >= 1
        assert result.manifest_path.read_bytes() == reference_manifest
        assert_exactly_one_surviving_lease(tmp_path)
        assert_no_temp_droppings(tmp_path)

    def test_poison_shard_quarantine_then_resume(self, tmp_path,
                                                 monkeypatch):
        """A shard that kills its host on every lease burns through
        ``max_shard_attempts``; after the fleet dies, --resume
        quarantines it and the campaign still completes with the
        failure explicit."""
        target = TASK_IDS[1]
        monkeypatch.setenv(KILL_ENV, f"{target}#99")  # kill every epoch
        with pytest.raises(CampaignError, match="resume"):
            run_distributed(chaos_spec(), tmp_path, workers=2,
                            shard_size=1, executor="inline",
                            lease_ttl=2.0, max_shard_attempts=2,
                            backoff=0.05)
        monkeypatch.delenv(KILL_ENV)
        result = run_distributed(chaos_spec(), tmp_path, workers=2,
                                 shard_size=1, executor="inline",
                                 lease_ttl=2.0, max_shard_attempts=2,
                                 backoff=0.05, resume=True)
        assert result.complete
        assert result.shards_quarantined == 1
        assert result.done == 3 and result.failed == 1
        record = result.tasks[target]
        assert record["status"] == "failed"
        assert record["error"]["type"] == "ShardQuarantined"
        assert_exactly_one_surviving_lease(tmp_path)


class TestCoordinatorLoss:
    def test_sigkill_coordinator_process_group_then_resume(
            self, tmp_path, reference_manifest):
        """SIGKILL the whole driver process group (coordinator + its
        local worker) mid-campaign; resuming completes the grid and the
        merged manifest is bit-identical to the single-host bytes."""
        driver = ("import json, sys\n"
                  "from repro.runner.campaign import CampaignSpec\n"
                  "from repro.runner.dist import run_distributed\n"
                  "spec = CampaignSpec.from_dict(json.loads(sys.argv[1]))\n"
                  "run_distributed(spec, sys.argv[2], workers=1,"
                  " shard_size=1, executor='process', max_workers=1,"
                  " lease_ttl=3.0, task_timeout=60.0)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        env[DELAY_ENV] = "0.8"  # slow each task so the kill lands mid-grid
        layout = CampaignLayout(tmp_path)
        proc = subprocess.Popen(
            [sys.executable, "-c", driver,
             json.dumps(chaos_spec().to_dict()), str(tmp_path)],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if list(layout.acks_dir.glob("*.json")) if \
                        layout.acks_dir.is_dir() else False:
                    break
                time.sleep(0.05)
        finally:
            # SIGKILL the session: coordinator, worker, and any pool
            # children die together — no cleanup handlers run
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        acked = {p.stem for p in layout.acks_dir.glob("*.json")}
        assert acked and acked < set(shard_ids(4))

        result = run_distributed(chaos_spec(), tmp_path, workers=1,
                                 shard_size=1, executor="inline",
                                 lease_ttl=3.0, resume=True)
        assert result.complete
        assert result.done == 4 and result.failed == 0
        assert result.manifest_path.read_bytes() == reference_manifest
        assert_exactly_one_surviving_lease(tmp_path)
        assert_no_temp_droppings(tmp_path)


class TestInterruptFinalizesShardManifest:
    def test_keyboard_interrupt_mid_shard_flushes_and_releases(
            self, tmp_path, monkeypatch):
        """Satellite: ^C mid-shard must leave the partial shard journal
        finalized on disk (flushed + renamed, no stale temp file) and
        the lease released so a peer can take over immediately."""
        from repro.runner import dist as dist_mod
        spec = chaos_spec()
        real_execute = dist_mod.execute_task
        interrupt_at = TASK_IDS[1]

        def interrupting(task):
            if task.task_id == interrupt_at:
                raise KeyboardInterrupt
            return real_execute(task)

        monkeypatch.setattr(dist_mod, "execute_task", interrupting)
        coordinator = dist_mod.DistCoordinator(
            spec, tmp_path, shard_size=2, executor="inline", lease_ttl=30)
        coordinator.publish()
        with pytest.raises(KeyboardInterrupt):
            dist_mod.DistWorker(tmp_path, worker_id="w0",
                                poll_interval=0.05).run()

        layout = CampaignLayout(tmp_path)
        # the journal for the interrupted shard is a complete, renamed
        # JSONL file holding everything finished before the interrupt
        journals = list(layout.results_dir.glob("shard-0000.e1.*.jsonl"))
        assert len(journals) == 1
        lines = [json.loads(line) for line in
                 journals[0].read_text().splitlines()]
        assert lines[0]["event"] == "shard"
        done_ids = [rec["id"] for rec in lines
                    if rec.get("event") == "task"]
        assert done_ids == [TASK_IDS[0]]
        assert_no_temp_droppings(tmp_path)
        # no ack (the shard is incomplete), and the lease was released
        assert not layout.ack_path("shard-0000").exists()
        assert not layout.lease_path("shard-0000").exists()

        # a surviving peer (or a restart) finishes the shard and the
        # merge keeps the journaled first task from the dead lease's
        # file only if nothing better exists — here the epoch-2 rerun
        # supersedes it, identically
        monkeypatch.setattr(dist_mod, "execute_task", real_execute)
        result = run_distributed(spec, tmp_path, workers=1, shard_size=2,
                                 executor="inline", lease_ttl=2.0,
                                 resume=True)
        assert result.complete and result.done == 4
        assert_exactly_one_surviving_lease(tmp_path)


class TestSingleHostIsTheFabric:
    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_single_host_run_writes_the_reference_bytes(
            self, tmp_path, executor, reference_manifest):
        """A single-host campaign is the fabric with one in-process
        worker: same merged manifest bytes, same lease invariants."""
        result = run_campaign(chaos_spec(), tmp_path, executor=executor,
                              max_workers=2, task_timeout=120.0)
        assert result.complete and result.done == 4
        assert result.manifest_path.read_bytes() == reference_manifest
        assert_exactly_one_surviving_lease(tmp_path)
        assert_no_temp_droppings(tmp_path)


class TestMergedManifestIsCanonical:
    def test_merged_manifest_resumable_by_single_host_runner(
            self, tmp_path):
        """The merged manifest is a valid CampaignManifest: the classic
        single-host runner can load it and sees nothing left to do."""
        spec = chaos_spec()
        result = run_distributed(spec, tmp_path, workers=2, shard_size=1,
                                 executor="inline", lease_ttl=20)
        assert result.complete
        manifest = CampaignManifest.load(result.manifest_path)
        assert manifest.header["fingerprint"] == spec.fingerprint()
        assert {tid: rec["status"] for tid, rec in manifest.tasks.items()} \
            == dict.fromkeys(TASK_IDS, "done")
        assert manifest.dropped_lines == 0
