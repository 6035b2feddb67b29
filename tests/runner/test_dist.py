"""Distributed campaign fabric: leases, sharding, workers, recovery.

Unit- and integration-level coverage for ``repro.runner.dist`` — the
lease protocol primitives, the shard plan, worker execution, steal and
quarantine paths, resume — plus the full-jitter backoff satellite.  The
host-loss chaos scenarios (SIGKILL mid-shard, coordinator death,
byte-identity against a single-host reference) live in
``test_dist_chaos.py``.
"""

import json
import os
import random
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner.campaign import CampaignError, CampaignSpec, task_fingerprint
from repro.runner.dist import (CampaignLayout, DistCoordinator, DistWorker,
                               _LeaseKeeper, lease_expired, read_lease,
                               release_lease, renew_lease, run_distributed,
                               shard_ids, shard_tasks, try_claim_lease)
from repro.runner.manifest import CampaignManifest
from repro.runner.pool import full_jitter_delay


def small_spec(**overrides):
    base = dict(workloads=("compress", "li"),
                policies=("original", "lut-4"))
    base.update(overrides)
    return CampaignSpec(**base)


class TestFullJitterDelay:
    def test_no_jitter_returns_exact_exponential_ceiling(self):
        assert full_jitter_delay(0.5, 1, jitter=False) == 0.5
        assert full_jitter_delay(0.5, 2, jitter=False) == 1.0
        assert full_jitter_delay(0.5, 4, jitter=False) == 4.0

    def test_jitter_is_bounded_by_the_ceiling(self):
        rng = random.Random(7)
        for attempt in (1, 2, 3, 5):
            ceiling = 0.5 * 2 ** (attempt - 1)
            for _ in range(200):
                delay = full_jitter_delay(0.5, attempt, rng=rng)
                assert 0.0 <= delay <= ceiling

    def test_jitter_actually_varies(self):
        rng = random.Random(7)
        draws = {full_jitter_delay(1.0, 3, rng=rng) for _ in range(50)}
        assert len(draws) > 40  # uniform draws, not a constant

    def test_attempt_floor(self):
        # attempt 0 (defensive) behaves like attempt 1
        assert full_jitter_delay(0.5, 0, jitter=False) == 0.5


class TestShardPlan:
    def test_shard_ids_are_stable_and_sorted(self):
        ids = shard_ids(11)
        assert ids[0] == "shard-0000" and ids[-1] == "shard-0010"
        assert ids == sorted(ids)

    def test_sharding_is_deterministic_and_complete(self):
        spec = small_spec(fault_rates=(0.0, 0.1, 0.2))  # 6 tasks
        plan = shard_tasks(spec, 2)
        assert [len(s) for s in plan] == [2, 2, 2]
        flat = [t.task_id for shard in plan for t in shard]
        assert flat == [t.task_id for t in spec.tasks()]
        assert flat == [t.task_id
                        for shard in shard_tasks(spec, 2) for t in shard]

    def test_ragged_tail_shard(self):
        spec = small_spec(fault_rates=(0.0, 0.1, 0.2))  # 6 tasks
        plan = shard_tasks(spec, 4)
        assert [len(s) for s in plan] == [4, 2]

    def test_shard_size_floor(self):
        assert [len(s) for s in shard_tasks(small_spec(), 0)] == [1, 1]


class TestLeaseProtocol:
    def test_exactly_one_claim_wins(self, tmp_path):
        path = tmp_path / "s.lease"
        assert try_claim_lease(path, "s", "w1", "n1", 1, ttl=30)
        assert not try_claim_lease(path, "s", "w2", "n2", 1, ttl=30)
        lease = read_lease(path)
        assert lease["worker"] == "w1" and lease["nonce"] == "n1"
        assert not lease_expired(lease)

    def test_expired_and_torn_leases_are_claimable(self, tmp_path):
        path = tmp_path / "s.lease"
        assert lease_expired(None)
        try_claim_lease(path, "s", "w1", "n1", 1, ttl=-1.0)
        assert lease_expired(read_lease(path))
        path.write_text("{ not json")
        assert lease_expired(read_lease(path))

    def test_renew_extends_only_our_own_lease(self, tmp_path):
        path = tmp_path / "s.lease"
        try_claim_lease(path, "s", "w1", "n1", 1, ttl=0.2)
        before = read_lease(path)["deadline"]
        assert renew_lease(path, "n1", ttl=30)
        assert read_lease(path)["deadline"] > before
        # a stolen lease (different nonce) must refuse to renew
        assert not renew_lease(path, "n-somebody-else", ttl=30)
        path.unlink()
        assert not renew_lease(path, "n1", ttl=30)

    def test_release_checks_the_nonce(self, tmp_path):
        path = tmp_path / "s.lease"
        try_claim_lease(path, "s", "w1", "n1", 1, ttl=30)
        release_lease(path, "wrong-nonce")
        assert path.exists()
        release_lease(path, "n1")
        assert not path.exists()

    def test_keeper_heartbeats_until_stopped(self, tmp_path):
        path = tmp_path / "s.lease"
        try_claim_lease(path, "s", "w1", "n1", 1, ttl=0.5)
        keeper = _LeaseKeeper(path, "n1", ttl=0.5, interval=0.05)
        keeper.start()
        try:
            time.sleep(0.7)  # past the original deadline
            assert not lease_expired(read_lease(path))
            assert not keeper.lost.is_set()
        finally:
            keeper.stop()
            keeper.join(timeout=5)

    def test_keeper_flags_a_stolen_lease(self, tmp_path):
        path = tmp_path / "s.lease"
        try_claim_lease(path, "s", "w1", "n1", 1, ttl=30)
        keeper = _LeaseKeeper(path, "n1", ttl=30, interval=0.05)
        keeper.start()
        try:
            path.unlink()
            try_claim_lease(path, "s", "w2", "n2", 2, ttl=30)
            assert keeper.lost.wait(timeout=5)
        finally:
            keeper.stop()
            keeper.join(timeout=5)


class TestCoordinatorPublish:
    def test_publish_writes_queue_then_campaign_file(self, tmp_path):
        spec = small_spec()
        DistCoordinator(spec, tmp_path, shard_size=1).publish()
        layout = CampaignLayout(tmp_path)
        campaign = json.loads(layout.campaign_file.read_text())
        assert campaign["fingerprint"] == spec.fingerprint()
        assert campaign["shards"] == 2
        shard0 = json.loads(layout.shard_path("shard-0000").read_text())
        assert shard0["tasks"] == ["compress@s1/default/r0"]

    def test_existing_campaign_needs_resume(self, tmp_path):
        DistCoordinator(small_spec(), tmp_path).publish()
        with pytest.raises(CampaignError, match="resume"):
            DistCoordinator(small_spec(), tmp_path).publish()
        DistCoordinator(small_spec(), tmp_path, resume=True).publish()

    def test_resume_rejects_a_different_grid(self, tmp_path):
        DistCoordinator(small_spec(), tmp_path).publish()
        with pytest.raises(CampaignError, match="fingerprint"):
            DistCoordinator(small_spec(seed=9), tmp_path,
                            resume=True).publish()

    def test_invalid_executor(self, tmp_path):
        with pytest.raises(CampaignError, match="executor"):
            DistCoordinator(small_spec(), tmp_path, executor="thread")

    def test_resume_refuses_a_different_shard_size(self, tmp_path):
        # re-sharding would leave acked shards' cells out of the new
        # plan's shards: the resume would report complete with cells
        # never run
        spec = small_spec(fault_rates=(0.0, 0.1))  # 4 tasks
        DistCoordinator(spec, tmp_path, shard_size=1).publish()
        with pytest.raises(CampaignError, match="shard size 1"):
            DistCoordinator(spec, tmp_path, shard_size=2,
                            resume=True).publish()


class TestWorker:
    def test_worker_times_out_without_a_published_campaign(self, tmp_path):
        worker = DistWorker(tmp_path, worker_id="w", join_timeout=0.2)
        with pytest.raises(CampaignError, match="no campaign published"):
            worker.run()

    def test_single_worker_drains_the_queue(self, tmp_path):
        spec = small_spec()
        coordinator = DistCoordinator(spec, tmp_path, shard_size=1,
                                      executor="inline")
        coordinator.publish()
        outcome = DistWorker(tmp_path, worker_id="w0",
                             poll_interval=0.05).run()
        assert outcome.shards_done == 2
        assert outcome.tasks_done == 2 and outcome.tasks_failed == 0
        assert outcome.shards_stolen == 0

        result = coordinator.merge()
        assert result.complete
        assert result.done == 2 and result.failed == 0
        assert result.counters["dist.tasks.done"] == 2
        assert result.gauges["dist.worker.w0.shards_done"] == 2
        # leases are all released once the queue is drained
        assert not list(CampaignLayout(tmp_path).lease_dir.iterdir())

    def test_merged_manifest_loads_as_campaign_manifest(self, tmp_path):
        spec = small_spec(workloads=("li",))
        result = run_distributed(spec, tmp_path, workers=1, shard_size=1,
                                 executor="inline")
        manifest = CampaignManifest.load(result.manifest_path)
        assert manifest.header["fingerprint"] == spec.fingerprint()
        assert {tid: rec["status"] for tid, rec in manifest.tasks.items()} \
            == {"li@s1/default/r0": "done"}

    def test_worker_steals_an_expired_lease(self, tmp_path):
        spec = small_spec(workloads=("li",))
        coordinator = DistCoordinator(spec, tmp_path, shard_size=1,
                                      executor="inline", lease_ttl=20)
        coordinator.publish()
        layout = CampaignLayout(tmp_path)
        # a dead host left an expired lease behind (deadline in the past)
        path = layout.lease_path("shard-0000")
        try_claim_lease(path, "shard-0000", "dead-host", "gone", 1,
                        ttl=-1.0)
        outcome = DistWorker(tmp_path, worker_id="thief",
                             poll_interval=0.05).run()
        assert outcome.shards_stolen == 1
        assert outcome.shards_requeued == 1  # epoch 2 claim
        assert outcome.shards_done == 1
        result = coordinator.merge()
        assert result.complete and result.done == 1
        # the winning record ran under the thief's epoch-2 lease
        ack = json.loads(layout.ack_path("shard-0000").read_text())
        assert ack["worker"] == "thief" and ack["epoch"] == 2

    @staticmethod
    def _dead_lease(path, ttl, **fields):
        """Write the lease of a process that has exited, as it wrote it
        (plus ``fields``)."""
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait(timeout=30)
        try_claim_lease(path, "shard-0000", "killed", "gone", 1, ttl=ttl)
        lease = dict(read_lease(path), pid=dead.pid, **fields)
        path.write_text(json.dumps(lease))
        return lease

    @pytest.mark.skipif(not Path("/proc/self/ns/pid").exists(),
                        reason="needs /proc to name the PID namespace")
    def test_lease_of_a_dead_process_is_claimed_at_once(self, tmp_path):
        """A lease naming a pid that no longer exists in this PID
        namespace is expired whatever its deadline, so a resume never
        waits out the ttl of its own killed predecessor."""
        spec = small_spec(workloads=("li",))
        DistCoordinator(spec, tmp_path, shard_size=1, executor="inline",
                        lease_ttl=600).publish()
        path = CampaignLayout(tmp_path).lease_path("shard-0000")
        lease = self._dead_lease(path, ttl=600)
        assert lease["host"] == socket.gethostname()
        assert lease_expired(lease)
        assert not lease_expired(dict(lease, pid=os.getpid()))
        assert not lease_expired(dict(lease, host="another-host"))

        start = time.monotonic()
        outcome = DistWorker(tmp_path, worker_id="w0",
                             poll_interval=0.05).run()
        assert time.monotonic() - start < 60
        assert outcome.shards_stolen == 1 and outcome.shards_done == 1

    def test_dead_pid_in_another_pid_namespace_waits_for_the_ttl(
            self, tmp_path, monkeypatch):
        """Containers (and hosts on one share) can have this hostname
        but their own pids: such a lease's pid says nothing here, so
        only its deadline frees it."""
        from repro.runner import dist as dist_mod
        claims = []

        def timed_claim(*args, **kwargs):
            claims.append(time.time())
            return try_claim_lease(*args, **kwargs)

        monkeypatch.setattr(dist_mod, "try_claim_lease", timed_claim)
        spec = small_spec(workloads=("li",))
        DistCoordinator(spec, tmp_path, shard_size=1, executor="inline",
                        lease_ttl=600).publish()
        path = CampaignLayout(tmp_path).lease_path("shard-0000")
        lease = self._dead_lease(path, ttl=1.0,
                                 pid_namespace="another-boot/4026531836")
        assert lease["host"] == socket.gethostname()
        assert not lease_expired(lease)
        unnamed = {key: value for key, value in lease.items()
                   if key != "pid_namespace"}
        assert not lease_expired(unnamed)

        outcome = DistWorker(tmp_path, worker_id="w0",
                             poll_interval=0.05).run()
        assert claims and min(claims) >= lease["deadline"]
        assert outcome.shards_stolen == 1 and outcome.shards_done == 1

    def test_worker_keeps_max_workers_shards_in_flight(self, tmp_path,
                                                       monkeypatch):
        from repro.runner import dist as dist_mod
        stamps = tmp_path / "stamps"
        stamps.mkdir()

        def timed(task):  # runs in a forked pool child
            start = time.time()
            time.sleep(0.5)
            (stamps / task.workload).write_text(f"{start} {time.time()}")
            return {"policies": {}}

        monkeypatch.setattr(dist_mod, "execute_task", timed)
        root = tmp_path / "campaign"
        DistCoordinator(small_spec(), root, shard_size=1, max_workers=2,
                        lease_ttl=30).publish()
        outcome = DistWorker(root, worker_id="w0", poll_interval=0.05).run()
        assert outcome.shards_done == 2 and outcome.tasks_done == 2
        (a_start, a_end), (b_start, b_end) = [
            map(float, path.read_text().split())
            for path in stamps.iterdir()]
        assert max(a_start, b_start) < min(a_end, b_end)

    def test_poison_shard_is_quarantined(self, tmp_path):
        spec = small_spec(workloads=("li",))
        coordinator = DistCoordinator(spec, tmp_path, shard_size=1,
                                      executor="inline", lease_ttl=20,
                                      max_shard_attempts=2, backoff=0.01)
        coordinator.publish()
        layout = CampaignLayout(tmp_path)
        # two prior lease epochs already burned (result journals without
        # completion), so the next claimant must quarantine, not re-run
        for epoch, nonce in ((1, "aaaa"), (2, "bbbb")):
            layout.result_path("shard-0000", epoch, nonce).write_text(
                json.dumps({"event": "shard", "version": 1,
                            "shard": "shard-0000", "worker": "dead",
                            "epoch": epoch}) + "\n")
        outcome = DistWorker(tmp_path, worker_id="w0",
                             poll_interval=0.05).run()
        assert outcome.shards_quarantined == 1
        assert outcome.tasks_done == 0

        result = coordinator.merge()
        assert result.complete
        assert result.shards_quarantined == 1
        assert result.failed == 1 and result.done == 0
        record = result.tasks["li@s1/default/r0"]
        assert record["status"] == "failed"
        assert record["error"]["type"] == "ShardQuarantined"

    def test_quarantine_loses_to_a_real_completion(self, tmp_path):
        """A cell journaled 'done' under some earlier lease outranks the
        synthesized quarantine failure in the merge."""
        spec = small_spec(workloads=("li",))
        coordinator = DistCoordinator(spec, tmp_path, shard_size=1,
                                      executor="inline",
                                      max_shard_attempts=1)
        coordinator.publish()
        layout = CampaignLayout(tmp_path)
        task = spec.tasks()[0]
        done_record = {"event": "task", "id": task.task_id,
                       "cell": task_fingerprint(task), "status": "done",
                       "attempts": 1, "worker": "dead", "epoch": 1,
                       "result": {"cycles": 42}}
        layout.result_path("shard-0000", 1, "aaaa").write_text(
            "\n".join(json.dumps(rec) for rec in (
                {"event": "shard", "version": 1, "shard": "shard-0000",
                 "worker": "dead", "epoch": 1}, done_record)) + "\n")
        DistWorker(tmp_path, worker_id="w0", poll_interval=0.05).run()
        result = coordinator.merge()
        assert result.shards_quarantined == 1
        assert result.tasks[task.task_id]["status"] == "done"

    def test_resume_after_partial_run_completes_the_grid(self, tmp_path):
        spec = small_spec(fault_rates=(0.0, 0.1))  # 4 tasks
        coordinator = DistCoordinator(spec, tmp_path, shard_size=1,
                                      executor="inline")
        coordinator.publish()
        layout = CampaignLayout(tmp_path)
        # simulate a dead fleet: one shard fully acked, rest untouched
        plan = shard_tasks(spec, 1)
        worker = DistWorker(tmp_path, worker_id="first",
                            poll_interval=0.05)
        # run just shard-0000 by pre-acking the others, then un-acking
        for sid in ("shard-0001", "shard-0002", "shard-0003"):
            layout.ack_path(sid).write_text(
                json.dumps({"shard": sid, "status": "done"}))
        worker.run()
        for sid in ("shard-0001", "shard-0002", "shard-0003"):
            layout.ack_path(sid).unlink()
        partial = coordinator.merge()
        assert not partial.complete and partial.done == 1

        # "--resume": republish validates the fingerprint, a fresh
        # worker picks up exactly the outstanding shards
        result = run_distributed(spec, tmp_path, workers=1, shard_size=1,
                                 executor="inline", resume=True)
        assert result.complete
        assert result.done == 4 and result.failed == 0
        assert len(result.tasks) == 4

    def test_worker_rejects_mismatched_campaign_version(self, tmp_path):
        DistCoordinator(small_spec(), tmp_path).publish()
        layout = CampaignLayout(tmp_path)
        campaign = json.loads(layout.campaign_file.read_text())
        campaign["version"] = 99
        layout.campaign_file.write_text(json.dumps(campaign))
        with pytest.raises(CampaignError, match="version"):
            DistWorker(tmp_path, worker_id="w", join_timeout=0.2).run()


class TestRunDistributed:
    def test_two_local_workers_complete_the_grid(self, tmp_path):
        spec = small_spec(fault_rates=(0.0, 0.01))  # 4 tasks
        result = run_distributed(spec, tmp_path, workers=2, shard_size=1,
                                 executor="inline", lease_ttl=20)
        assert result.complete
        assert result.done == 4 and result.failed == 0
        assert result.shards_done == 4
        assert result.counters["dist.shards.completed"] == 4
        # every shard journal carries its completion footer
        layout = CampaignLayout(tmp_path)
        acked_epochs = {}
        for sid in shard_ids(4):
            ack = json.loads(layout.ack_path(sid).read_text())
            acked_epochs[sid] = ack["epoch"]
        for sid, epoch in acked_epochs.items():
            journals = list(layout.results_dir.glob(f"{sid}.e{epoch}.*"))
            assert len(journals) == 1
            assert '"event": "shard-done"' in \
                journals[0].read_text().splitlines()[-1]

    def test_more_workers_than_cores_run_each_cell_once(self, tmp_path):
        """Four workers (more than this machine's cores) race lazy
        claims over eight one-task shards: every claim but one per shard
        loses, so each cell runs exactly once and no lease survives."""
        spec = small_spec(fault_rates=(0.0, 0.01, 0.02, 0.03))  # 8 tasks
        start = time.monotonic()
        result = run_distributed(spec, tmp_path, workers=4, shard_size=1,
                                 executor="inline", lease_ttl=20,
                                 timeout=120)
        assert time.monotonic() - start < 120
        assert result.complete and result.done == 8
        assert result.counters["dist.tasks.done"] == 8
        assert result.counters.get("dist.shards.stolen", 0) == 0
        assert not list(CampaignLayout(tmp_path).lease_dir.iterdir())
