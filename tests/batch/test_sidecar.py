"""Pack-file persistence: refusal, degradation, round-trip.

Mirrors the trace reader's contract: unknown *future* pack versions
are refused outright, truncation and corruption raise
:class:`PackFormatError` (never crash with anything else), and the
trace cache counts every such failure as a miss: it re-records the
entry once and carries on.
"""

import struct

import pytest
from hypothesis import given, settings

import repro.streams as streams_module
from repro.batch import (MAGIC, PACK_VERSION, PackFormatError, batch_drive,
                         load_sidecar, pack_stream, write_sidecar)
from repro.batch.sidecar import _PREFIX
from repro.cpu.config import MachineConfig
from repro.cpu.simulator import Simulator
from repro.streams import (LiveSource, cache_entry_path, cached_or_record,
                           capture, trace_cache_key)
from repro.workloads import workload
from tests.batch.test_pack_roundtrip import (_assert_streams_equal,
                                             random_streams)


def _packed_compress():
    memory = capture(LiveSource(workload("compress").build(1)))
    return list(memory.groups())


@pytest.fixture(scope="module")
def compress_groups():
    return _packed_compress()


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(random_streams())
    def test_disk_round_trip_every_field(self, tmp_path_factory, groups):
        path = tmp_path_factory.mktemp("packs") / "stream.pack"
        write_sidecar(path, pack_stream(groups), config_fingerprint="cfg")
        loaded = load_sidecar(path, expected_config="cfg")
        _assert_streams_equal(groups, list(loaded.iter_groups()))

    def test_mmap_and_copy_loads_agree(self, tmp_path, compress_groups):
        path = tmp_path / "compress.pack"
        write_sidecar(path, pack_stream(compress_groups))
        mapped = load_sidecar(path, use_mmap=True)
        copied = load_sidecar(path, use_mmap=False)
        _assert_streams_equal(list(mapped.iter_groups()),
                              list(copied.iter_groups()))


class TestRefusal:
    def _write(self, path, groups):
        write_sidecar(path, pack_stream(groups), config_fingerprint="cfg")
        return path.read_bytes()

    def test_future_version_refused(self, tmp_path, compress_groups):
        path = tmp_path / "future.pack"
        raw = self._write(path, compress_groups)
        _, _, header_len = _PREFIX.unpack(raw[:_PREFIX.size])
        path.write_bytes(_PREFIX.pack(MAGIC, PACK_VERSION + 1, header_len)
                         + raw[_PREFIX.size:])
        with pytest.raises(PackFormatError, match="unsupported pack version"):
            load_sidecar(path)

    def test_bad_magic_refused(self, tmp_path, compress_groups):
        path = tmp_path / "foreign.pack"
        raw = self._write(path, compress_groups)
        path.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(PackFormatError, match="bad magic"):
            load_sidecar(path)

    def test_truncations_always_packformaterror(self, tmp_path,
                                               compress_groups):
        path = tmp_path / "trunc.pack"
        raw = self._write(path, compress_groups)
        # every prefix of the file must fail loudly but cleanly
        for cut in (0, 3, _PREFIX.size, _PREFIX.size + 10,
                    len(raw) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(PackFormatError):
                load_sidecar(path)

    def test_corrupt_header_refused(self, tmp_path, compress_groups):
        path = tmp_path / "corrupt.pack"
        raw = self._write(path, compress_groups)
        body = bytearray(raw)
        body[_PREFIX.size] ^= 0xFF  # first header byte
        path.write_bytes(bytes(body))
        with pytest.raises(PackFormatError):
            load_sidecar(path)

    def test_stale_config_refused(self, tmp_path, compress_groups):
        path = tmp_path / "stale.pack"
        self._write(path, compress_groups)
        with pytest.raises(PackFormatError, match="stale sidecar"):
            load_sidecar(path, expected_config="other-config")

    def test_missing_file_is_oserror_or_packformaterror(self, tmp_path):
        with pytest.raises((PackFormatError, OSError)):
            load_sidecar(tmp_path / "never-written.pack")


class TestEngineDegradation:
    """A damaged entry must never sink an experiment: the trace cache
    counts it a miss, simulates once, and rewrites the entry."""

    @pytest.fixture
    def runs(self, monkeypatch):
        runs = []

        class CountingSimulator(Simulator):
            def run(self):
                runs.append(self.program.name)
                return super().run()

        monkeypatch.setattr(streams_module, "Simulator", CountingSimulator)
        return runs

    def _seed_cache(self, cache_dir):
        program = workload("compress").build(1)
        config = MachineConfig()
        packed, state = cached_or_record(program, config, cache_dir)
        assert state == "miss"
        entry = cache_entry_path(cache_dir,
                                 trace_cache_key(program, config))
        assert list(cache_dir.iterdir()) == [entry]
        return program, config, packed, entry

    def test_hit_loads_the_entry(self, tmp_path, runs):
        program, config, first, _ = self._seed_cache(tmp_path)
        packed, state = cached_or_record(program, config, tmp_path)
        assert state == "hit"
        assert runs == ["compress"]  # the seeding run only
        assert packed.result.to_dict() == first.result.to_dict()
        _assert_streams_equal(list(first.iter_groups()),
                              list(packed.iter_groups()))

    @pytest.mark.parametrize("damage", ["truncate", "corrupt", "future",
                                        "stale", "delete"])
    def test_damaged_entry_is_a_miss(self, tmp_path, runs, damage):
        program, config, first, entry = self._seed_cache(tmp_path)
        raw = entry.read_bytes()
        if damage == "truncate":
            entry.write_bytes(raw[:len(raw) // 2])
        elif damage == "corrupt":
            body = bytearray(raw)
            body[_PREFIX.size + 2] ^= 0xFF
            entry.write_bytes(bytes(body))
        elif damage == "future":
            _, _, header_len = _PREFIX.unpack(raw[:_PREFIX.size])
            entry.write_bytes(
                _PREFIX.pack(MAGIC, PACK_VERSION + 7, header_len)
                + raw[_PREFIX.size:])
        elif damage == "stale":
            write_sidecar(entry, first, config_fingerprint="other-config")
        else:
            entry.unlink()
        del runs[:]
        packed, state = cached_or_record(program, config, tmp_path)
        assert state == "miss"
        assert runs == ["compress"]  # exactly one re-simulation
        _assert_streams_equal(list(first.iter_groups()),
                              list(packed.iter_groups()))
        # and the rewritten entry loads for the next run
        healed = load_sidecar(entry, expected_config=config.fingerprint())
        assert healed.result.to_dict() == first.result.to_dict()
        _assert_streams_equal(list(first.iter_groups()),
                              list(healed.iter_groups()))
