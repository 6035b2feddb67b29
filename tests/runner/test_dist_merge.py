"""Property tests for the distributed-manifest merge.

The merge is the correctness keystone of the fabric: workers journal
at-least-once (stolen shards can complete twice), and the coordinator
must fold any pile of per-shard JSONL manifests into one byte-stable
campaign manifest.  Hypothesis drives the two load-bearing properties:

* **permutation invariance** — any ordering of any interleaving of the
  shard files (including duplicated records from a
  stolen-then-completed shard) merges to the byte-identical output;
* **last-write-wins by cell fingerprint** — ``done`` beats ``failed``,
  then the higher lease epoch wins, and the winner never depends on
  which file it arrived in.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.runner.manifest import (ShardManifest, canonical_task_record,
                                   merge_task_records, read_shard_records,
                                   write_merged_manifest)

# a small universe of cells so generated records collide on purpose
CELLS = [f"cell-{i:02d}" for i in range(6)]


def record_strategy():
    status = st.sampled_from(["done", "failed"])
    return st.builds(
        lambda cell, stat, epoch, attempts, value: {
            "event": "task",
            "id": f"task/{cell}",
            "cell": cell,
            "status": stat,
            "epoch": epoch,
            "attempts": attempts,
            "worker": f"w{epoch}",
            "elapsed": value / 7.0,          # volatile, must not matter
            **({"result": {"cycles": value,
                           "trace_cache": "hit" if value % 2 else "miss"}}
               if stat == "done" else
               {"error": {"type": "Boom", "message": f"m{value}",
                          "traceback": "tb"}}),
        },
        st.sampled_from(CELLS), status, st.integers(1, 4),
        st.integers(1, 3), st.integers(0, 20))


records_lists = st.lists(record_strategy(), min_size=0, max_size=24)


def merged_bytes(records):
    merged = merge_task_records(records)
    return "".join(json.dumps(rec, sort_keys=True) + "\n"
                   for rec in sorted(merged.values(),
                                     key=lambda r: r["id"]))


class TestMergeProperties:
    @given(records_lists, st.randoms(use_true_random=False))
    def test_any_permutation_merges_identically(self, records, rnd):
        baseline = merged_bytes(records)
        shuffled = list(records)
        rnd.shuffle(shuffled)
        assert merged_bytes(shuffled) == baseline

    @given(records_lists, st.data())
    def test_duplicates_from_stolen_shards_change_nothing(self, records,
                                                          data):
        baseline = merged_bytes(records)
        if records:
            dupes = data.draw(st.lists(st.sampled_from(records),
                                       min_size=1, max_size=8))
            assert merged_bytes(records + dupes) == baseline

    @given(records_lists)
    def test_done_beats_failed_for_a_cell(self, records):
        merged = merge_task_records(records)
        for cell, winner in merged.items():
            statuses = {r["status"] for r in records
                        if r.get("cell") == cell}
            if "done" in statuses:
                assert winner["status"] == "done"

    @given(records_lists)
    def test_among_done_records_the_highest_epoch_wins(self, records):
        merged = merge_task_records(records)
        for cell, winner in merged.items():
            if winner["status"] != "done":
                continue
            best_epoch = max(r["epoch"] for r in records
                             if r.get("cell") == cell
                             and r["status"] == "done")
            candidates = [canonical_task_record(r) for r in records
                          if r.get("cell") == cell
                          and r["status"] == "done"
                          and r["epoch"] == best_epoch]
            assert winner in candidates

    @given(records_lists)
    def test_canonical_records_carry_no_volatile_fields(self, records):
        for record in merge_task_records(records).values():
            assert set(record) <= {"event", "id", "cell", "status",
                                   "result", "error"}
            if record["status"] == "done":
                assert "trace_cache" not in record["result"]

    @given(records_lists)
    def test_every_cell_surfaces_exactly_once(self, records):
        merged = merge_task_records(records)
        assert set(merged) == {r["cell"] for r in records}


class TestMergeThroughFiles:
    """The same invariants via real shard-manifest files on disk."""

    def _write_shards(self, directory, assignment):
        """assignment: list of (worker, epoch, [records])."""
        for index, (worker, epoch, records) in enumerate(assignment):
            manifest = ShardManifest.create(
                directory / f"shard-{index:04d}.e{epoch}.n{index}.jsonl",
                shard=f"shard-{index:04d}", fingerprint="fp",
                worker=worker, epoch=epoch)
            for rec in records:
                if rec["status"] == "done":
                    manifest.record_done(rec["id"], rec["cell"],
                                         rec["attempts"], rec["elapsed"],
                                         rec["result"])
                else:
                    manifest.record_failed(rec["id"], rec["cell"],
                                           rec["attempts"], rec["elapsed"],
                                           rec["error"])
            manifest.finalize()

    @settings(deadline=None)  # fsyncs a file per record
    @given(records=records_lists, rnd=st.randoms(use_true_random=False))
    def test_file_partitioning_never_changes_the_output(self,
                                                        tmp_path_factory,
                                                        records, rnd):
        # a record's epoch is fixed by the lease that produced it, and
        # one (shard, epoch) journal holds each task id at most once —
        # so the on-disk model is one file per epoch, unique (id,
        # epoch) pairs.  Write the same record set twice with different
        # within-file orderings; the merged manifest bytes must match.
        unique = {}
        for rec in records:
            unique.setdefault((rec["id"], rec["epoch"]), rec)
        by_epoch = {}
        for rec in unique.values():
            by_epoch.setdefault(rec["epoch"], []).append(rec)
        outputs = []
        for round_index in range(2):
            directory = tmp_path_factory.mktemp(f"round{round_index}")
            assignment = []
            for epoch in rnd.sample(sorted(by_epoch), len(by_epoch)):
                bucket = list(by_epoch[epoch])
                rnd.shuffle(bucket)
                assignment.append((f"w{round_index}-{epoch}", epoch,
                                   bucket))
            self._write_shards(directory, assignment)
            merged = merge_task_records(read_shard_records(directory))
            out = directory / "manifest.jsonl"
            write_merged_manifest(out, "fp", {"spec": True}, merged)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_reader_skips_garbage_and_foreign_events(self, tmp_path):
        good = {"event": "task", "id": "a", "cell": "c", "status": "done",
                "attempts": 1, "epoch": 1, "result": {}}
        (tmp_path / "ok.jsonl").write_text(
            json.dumps({"event": "shard"}) + "\n"
            + json.dumps(good) + "\n"
            + "{torn line\n"
            + json.dumps({"event": "shard-done"}) + "\n"
            + json.dumps(["not", "a", "dict"]) + "\n")
        (tmp_path / "empty.jsonl").write_text("")
        records = list(read_shard_records(tmp_path))
        assert records == [good]

    def test_missing_results_dir_yields_nothing(self, tmp_path):
        assert list(read_shard_records(tmp_path / "nope")) == []
