"""Atomic-write helpers and the merged campaign manifest."""

import json
import os

import pytest

from repro.runner.atomic import (atomic_append_jsonl, atomic_write_json,
                                 atomic_write_text)
from repro.runner.manifest import (CampaignManifest, ManifestError,
                                   RecordMerge, merge_task_records,
                                   write_merged_manifest)


class TestAtomicWrites:
    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "report.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        assert json.loads(path.read_text()) == {"v": 2}

    def test_no_temp_droppings(self, tmp_path):
        path = tmp_path / "data.json"
        atomic_write_json(path, {"rows": list(range(100))})
        atomic_write_text(path, "replaced")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.json"]

    def test_failure_cleans_temp(self, tmp_path):
        class Unserialisable:
            pass

        path = tmp_path / "bad.json"
        with pytest.raises(TypeError):
            atomic_write_json(path, {"x": Unserialisable()})
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_jsonl_rewrites_whole_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        atomic_append_jsonl(path, [{"a": 1}, {"b": 2}])
        atomic_append_jsonl(path, [{"a": 1}])
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"a": 1}


def task(task_id, status="done", **fields):
    record = {"event": "task", "id": task_id, "cell": task_id,
              "status": status, "attempts": 1, "epoch": 1, "elapsed": 0.1}
    if status == "done":
        record["result"] = fields.get("result", {})
    else:
        record["error"] = fields.get("error", {"type": "X", "message": ""})
    return record


def write_manifest(path, fingerprint, spec, records):
    write_merged_manifest(path, fingerprint, spec,
                          merge_task_records(records))


class TestManifest:
    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        write_manifest(path, "f" * 16, {"workloads": []}, [
            task("a", result={"cycles": 10}),
            task("b", "failed", error={"type": "TaskTimeout",
                                       "message": "too slow"})])

        loaded = CampaignManifest.load(path)
        assert loaded.header["fingerprint"] == "f" * 16
        assert loaded.dropped_lines == 0
        assert {tid: rec["status"] for tid, rec in loaded.tasks.items()} \
            == {"a": "done", "b": "failed"}
        assert loaded.tasks["a"]["result"]["cycles"] == 10
        assert loaded.tasks["b"]["error"]["type"] == "TaskTimeout"

    def test_every_flush_is_a_complete_journal(self, tmp_path):
        """A single-host run rewrites the manifest whole after each task
        (folding into a RecordMerge) — the file on disk is always
        parseable in its entirety."""
        path = tmp_path / "manifest.jsonl"
        merge = RecordMerge()
        for n in range(5):
            assert merge.fold(task(f"t{n}"))
            write_merged_manifest(path, "abcd", {}, merge.canonical)
            records = [json.loads(line)
                       for line in path.read_text().splitlines()]
            assert records[0]["event"] == "campaign"
            assert len(records) == n + 2
            assert len(CampaignManifest.load(path).tasks) == n + 1

    def test_load_drops_corrupt_trailing_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        write_manifest(path, "abcd", {}, [task("a")])
        with open(path, "a") as handle:
            handle.write('{"event": "task", "id": "b", "stat')  # torn write
        loaded = CampaignManifest.load(path)
        assert loaded.dropped_lines == 1
        assert list(loaded.tasks) == ["a"]

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "notamanifest.jsonl"
        path.write_text('{"event": "task", "id": "a", "status": "done"}\n')
        with pytest.raises(ManifestError, match="header"):
            CampaignManifest.load(path)

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"event": "campaign", "version": 99,
                                    "fingerprint": "x", "spec": {}}) + "\n")
        with pytest.raises(ManifestError, match="version"):
            CampaignManifest.load(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read"):
            CampaignManifest.load(tmp_path / "absent.jsonl")

    def test_no_temp_files_next_to_manifest(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        for n in range(3):
            write_manifest(path, "abcd", {}, [task(f"t{m}")
                                              for m in range(n + 1)])
        assert os.listdir(tmp_path) == ["manifest.jsonl"]
