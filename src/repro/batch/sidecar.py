"""Pack files: a :class:`~repro.batch.columns.PackedTrace` on disk.

A pack file stores the columns as raw bytes, so reading one
memory-maps them instead of decoding anything.  It is the trace
cache's one on-disk format: each entry is a single ``<key>.pack`` file
(named by :func:`repro.streams.cache_entry_path`) whose header carries
the config fingerprint the cache key covers and the recording run's
:class:`~repro.cpu.trace.SimulationResult`, so a hit still reports
cycles, IPC and the telemetry counters without re-simulating.

Format::

    b"RPAK"  | u32 version | u32 header_len | header JSON | payload

The header describes every column (typecode, item size, byte offset,
byte length) plus the opcode-name table, the global group order and
the run summary; the payload is the concatenated column bytes, each
8-byte aligned.

Refuse, don't guess: an unsupported version (older or newer), a
truncated payload, a corrupt header, a byte-order mismatch, or an
unresolvable opcode name all raise :class:`PackFormatError`, which
the trace cache treats as a miss.  Writes are atomic
(temp-then-rename), so a killed writer never leaves a half-written
entry under a cache key.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import tempfile
from array import array
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..cpu.trace import SimulationResult
from ..isa.instructions import FUClass, opcode as _opcode
from .columns import ALL_COLUMNS, PackedColumns, PackedTrace

PathLike = Union[str, Path]

MAGIC = b"RPAK"
PACK_VERSION = 2  # 2: the header carries the run summary
SUPPORTED_PACK_VERSIONS = (2,)
_PREFIX = struct.Struct("<4sII")  # magic, version, header length
_ALIGN = 8


class PackFormatError(ValueError):
    """A pack file is truncated, corrupt, foreign, or of another
    version.  Mirrors :class:`~repro.cpu.tracefile.TraceFormatError`:
    carries the path and a reason; the trace cache counts it a miss."""

    def __init__(self, path: PathLike, reason: str):
        self.path = str(path)
        super().__init__(f"bad pack file ({self.path}): {reason}")


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def write_sidecar(path: PathLike, packed: PackedTrace,
                  config_fingerprint: Optional[str] = None) -> int:
    """Write ``packed`` to the pack file ``path`` atomically, run
    summary (``packed.result``) included; returns bytes written."""
    target = Path(path)
    chunks = []  # (bytes, descriptor-dict to fill with offset)
    offset = 0

    def _add(arr: array) -> Dict[str, Any]:
        nonlocal offset
        raw = arr.tobytes()
        offset = _aligned(offset)
        desc = {"typecode": arr.typecode, "itemsize": arr.itemsize,
                "offset": offset, "bytes": len(raw)}
        chunks.append((offset, raw))
        offset += len(raw)
        return desc

    order_desc = _add(packed.order)
    class_entries = []
    for fu_class in packed.class_list:
        cols = packed.classes[fu_class]
        entry: Dict[str, Any] = {
            "fu": fu_class.value,
            "n_groups": cols.n_groups,
            "n_ops": cols.n_ops,
            "conventional": cols.conventional,
            "columns": {name: _add(array(code, cols.column(name)))
                        for name, code in ALL_COLUMNS},
        }
        class_entries.append(entry)

    header = {
        "pack_version": PACK_VERSION,
        "byteorder": sys.byteorder,
        "name": packed.name,
        "config": config_fingerprint,
        "opcodes": list(packed.opcode_names),
        "n_groups": packed.n_groups,
        "order": order_desc,
        "classes": class_entries,
        "result": (packed.result.to_dict()
                   if packed.result is not None else None),
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")

    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=str(target.parent))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_PREFIX.pack(MAGIC, PACK_VERSION, len(header_bytes)))
            handle.write(header_bytes)
            base = handle.tell()
            end = base
            for chunk_offset, raw in chunks:
                want = base + chunk_offset
                if want > end:
                    handle.write(b"\0" * (want - end))
                handle.write(raw)
                end = want + len(raw)
            total = handle.tell()
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return total


def _check_desc(path: PathLike, name: str, desc: Any, payload_len: int,
                expect_code: str) -> None:
    if not isinstance(desc, dict):
        raise PackFormatError(path, f"column '{name}' descriptor malformed")
    code = desc.get("typecode")
    if code != expect_code:
        raise PackFormatError(
            path, f"column '{name}' has typecode {code!r},"
            f" expected {expect_code!r}")
    itemsize = array(expect_code).itemsize
    if desc.get("itemsize") != itemsize:
        raise PackFormatError(
            path, f"column '{name}' item size {desc.get('itemsize')!r}"
            f" does not match this platform's {itemsize}")
    offset, nbytes = desc.get("offset"), desc.get("bytes")
    if (not isinstance(offset, int) or not isinstance(nbytes, int)
            or offset < 0 or nbytes < 0 or offset + nbytes > payload_len):
        raise PackFormatError(
            path, f"column '{name}' ({offset!r}+{nbytes!r} bytes) falls"
            f" outside the {payload_len}-byte payload (truncated file?)")
    if nbytes % itemsize:
        raise PackFormatError(
            path, f"column '{name}' byte length {nbytes} is not a multiple"
            f" of item size {itemsize}")


def _result(path: PathLike, payload: Any) -> Optional[SimulationResult]:
    """The run summary stored in a pack header, if any."""
    if payload is None:
        return None
    try:
        return SimulationResult.from_dict(payload)
    except (AttributeError, TypeError, ValueError) as exc:
        raise PackFormatError(path, f"malformed run summary: {exc}") \
            from exc


def load_sidecar(path: PathLike,
                 expected_config: Optional[str] = None,
                 use_mmap: bool = True) -> PackedTrace:
    """Load a pack file; columns are memory-mapped views when possible.

    Raises :class:`PackFormatError` for anything suspicious.
    ``expected_config`` refuses a pack recorded under another machine
    config.  The returned trace's ``result`` is the stored run summary,
    or ``None`` when the writer had none.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        handle = open(path, "rb")
    except OSError as exc:
        raise PackFormatError(path, f"unreadable: {exc}") from exc
    try:
        prefix = handle.read(_PREFIX.size)
        if len(prefix) != _PREFIX.size:
            raise PackFormatError(path, "truncated before the header")
        magic, version, header_len = _PREFIX.unpack(prefix)
        if magic != MAGIC:
            raise PackFormatError(path, f"bad magic {magic!r}")
        if version not in SUPPORTED_PACK_VERSIONS:
            raise PackFormatError(
                path, f"unsupported pack version {version!r} (supported:"
                f" {', '.join(map(str, SUPPORTED_PACK_VERSIONS))})")
        header_bytes = handle.read(header_len)
        if len(header_bytes) != header_len:
            raise PackFormatError(path, "truncated inside the header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise PackFormatError(path, f"corrupt header: {exc}") from exc
        if not isinstance(header, dict):
            raise PackFormatError(path, "header is not a JSON object")
        if header.get("byteorder") != sys.byteorder:
            raise PackFormatError(
                path, f"byte order {header.get('byteorder')!r} does not"
                f" match this platform ({sys.byteorder})")
        if expected_config is not None \
                and header.get("config") != expected_config:
            raise PackFormatError(
                path, "config fingerprint mismatch (stale sidecar)")

        base = _PREFIX.size + header_len
        payload_len = size - base
        mapped = None
        if use_mmap and payload_len > 0:
            try:
                mapped = mmap.mmap(handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
            except (OSError, ValueError):  # pragma: no cover - platform
                mapped = None
        if mapped is not None:
            view = memoryview(mapped)
        else:
            handle.seek(base)
            view = memoryview(handle.read())
            base = 0

        def _column(name: str, desc: Any, expect_code: str):
            _check_desc(path, name, desc, payload_len, expect_code)
            start = base + desc["offset"]
            chunk = view[start:start + desc["bytes"]]
            try:
                return chunk.cast(expect_code)
            except TypeError:
                # unaligned cast (should not happen: writer aligns) —
                # fall back to a copy
                return array(expect_code, chunk.tobytes())

        packed = PackedTrace(name=str(header.get("name", path.stem)),
                             result=_result(path, header.get("result")))
        packed._mmap = mapped
        opcodes = header.get("opcodes")
        if not isinstance(opcodes, list) \
                or not all(isinstance(n, str) for n in opcodes):
            raise PackFormatError(path, "malformed opcode table")
        for name in opcodes:
            try:
                _opcode(name)
            except (KeyError, ValueError) as exc:
                raise PackFormatError(
                    path, f"unknown opcode {name!r} in table") from exc
            packed._intern_opcode(name)

        order = _column("order", header.get("order"), "B")
        n_groups = header.get("n_groups")
        if len(order) != n_groups:
            raise PackFormatError(
                path, f"group order length {len(order)} != header"
                f" n_groups {n_groups!r}")
        packed.order = order

        classes = header.get("classes")
        if not isinstance(classes, list):
            raise PackFormatError(path, "malformed class list")
        for entry in classes:
            if not isinstance(entry, dict):
                raise PackFormatError(path, "malformed class entry")
            try:
                fu_class = FUClass(entry.get("fu"))
            except ValueError as exc:
                raise PackFormatError(
                    path, f"unknown FU class {entry.get('fu')!r}") from exc
            cols = PackedColumns(fu_class)
            cols.conventional = bool(entry.get("conventional", True))
            columns = entry.get("columns")
            if not isinstance(columns, dict):
                raise PackFormatError(
                    path, f"class {fu_class.value}: malformed columns")
            for name, code in ALL_COLUMNS:
                loaded = _column(f"{fu_class.value}.{name}",
                                 columns.get(name), code)
                setattr(cols, name, loaded)
            cn_groups = entry.get("n_groups")
            cn_ops = entry.get("n_ops")
            if len(cols.cycles) != cn_groups \
                    or len(cols.offsets) != (cn_groups or 0) + 1 \
                    or len(cols.op1) != cn_ops:
                raise PackFormatError(
                    path, f"class {fu_class.value}: column lengths do not"
                    f" match the recorded group/op counts")
            if cols.offsets[0] != 0 or cols.offsets[len(cols.offsets) - 1] \
                    != cn_ops:
                raise PackFormatError(
                    path, f"class {fu_class.value}: offsets column is"
                    f" inconsistent with the op count")
            for other in ("op2", "opcode", "flags", "case", "pop1", "pop2",
                          "static"):
                if len(cols.column(other)) != cn_ops:
                    raise PackFormatError(
                        path, f"class {fu_class.value}: column '{other}'"
                        f" length mismatch")
            packed.classes[fu_class] = cols
            packed.class_list.append(fu_class)
        for class_index in packed.order:
            if class_index >= len(packed.class_list):
                raise PackFormatError(
                    path, f"group order references class #{class_index}"
                    f" but only {len(packed.class_list)} classes exist")
        return packed
    finally:
        # the mmap (when taken) stays valid after the descriptor closes
        handle.close()
