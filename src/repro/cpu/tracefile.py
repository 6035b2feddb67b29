"""Trace files: the gzip export format of an issue-group stream.

Simulating a workload is far more expensive than evaluating a steering
policy on its operand stream, so experiments that sweep many policies
benefit from capturing the stream once.  Traces are stored as
gzip-compressed JSON lines — one line of metadata, then one line per
issue group:

    [cycle, fu_class,
     [[op, op1, op2, has_two, static, spec, swap, critical], ...]]

Operand images are serialised as hex strings to stay compact and
byte-exact.  A trace is written once, after the run, by
:func:`write_trace` (through :func:`repro.streams.record`), so every
file carries final wrong-path flags; it is read back by
:func:`load_trace` (through :class:`repro.streams.ReplaySource`).

Reading is hardened against the failure modes long campaigns actually
hit — truncated gzip streams (a killed writer), corrupt JSON lines,
and missing or malformed headers — all of which raise
:class:`TraceFormatError` naming the file and line instead of a raw
``EOFError`` / ``json.JSONDecodeError`` deep in the stack.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Union

from ..isa.instructions import FUClass, opcode
from .trace import IssueGroup, MicroOp, SimulationResult

# Version 2 headers carry the machine-config fingerprint and source
# kind used by the content-addressed trace cache, plus (for complete
# post-run writes) the run's SimulationResult summary.  Version 1
# traces lack those keys but the group lines are identical, so they
# still replay; unknown *future* versions are refused.
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """A trace file is truncated, corrupt, or not a trace at all.

    ``path`` and ``line`` (1-based; 0 when the failure is not tied to a
    specific line, e.g. a bad gzip container) locate the damage.
    """

    def __init__(self, path: PathLike, line: int, reason: str):
        self.path = str(path)
        self.line = line
        where = f"{self.path}, line {line}" if line else self.path
        super().__init__(f"bad trace file ({where}): {reason}")


def _encode_group(group: IssueGroup) -> str:
    ops = [[op.op.name, format(op.op1, "x"), format(op.op2, "x"),
            int(op.has_two), op.static_index, int(op.speculative),
            int(op.swapped), int(op.critical)]
           for op in group.ops]
    return json.dumps([group.cycle, group.fu_class.value, ops],
                      separators=(",", ":"))


def _decode_group(line: str) -> IssueGroup:
    cycle, fu_value, raw_ops = json.loads(line)
    ops = [MicroOp(opcode(name), int(op1, 16), int(op2, 16),
                   has_two=bool(has_two), static_index=static,
                   speculative=bool(spec), swapped=bool(swap),
                   critical=bool(critical))
           for name, op1, op2, has_two, static, spec, swap, critical
           in raw_ops]
    return IssueGroup(cycle, FUClass(fu_value), ops)


def write_trace(path: PathLike, groups: Iterable[IssueGroup],
                name: str = "trace",
                fu_classes: Optional[Iterable[FUClass]] = None,
                config_fingerprint: Optional[str] = None,
                source_kind: str = "live",
                result: Optional[SimulationResult] = None) -> int:
    """Write a *complete* trace atomically; returns the group count.

    Takes an already-final group list — speculative flags included —
    and writes temp-then-rename, so a killed writer can never leave a
    truncated file behind.  ``result`` (the run's
    :class:`~repro.cpu.trace.SimulationResult`) is stored in the header
    so replay can report cycles/IPC without re-simulating.
    """
    target = Path(path)
    wanted = set(fu_classes) if fu_classes is not None else None
    header: Dict[str, Any] = {
        "version": FORMAT_VERSION, "name": name,
        "fu_classes": sorted(fu.value for fu in wanted)
        if wanted is not None else None,
        "config": config_fingerprint,
        "source": source_kind,
    }
    if result is not None:
        header["result"] = result.to_dict()
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=str(target.parent))
    count = 0
    try:
        with gzip.open(os.fdopen(fd, "wb"), "wt",
                       encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for group in groups:
                if wanted is not None and group.fu_class not in wanted:
                    continue
                handle.write(_encode_group(group) + "\n")
                count += 1
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return count


def header_result(header: Dict[str, Any]) -> Optional[SimulationResult]:
    """Reconstruct the stored run summary from a v2 header, if any."""
    payload = header.get("result")
    if payload is None:
        return None
    return SimulationResult.from_dict(payload)


def _parse_header(path: PathLike, line: str) -> dict:
    """Decode and validate the metadata line."""
    if not line:
        raise TraceFormatError(path, 1, "empty file, expected a JSON header")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(path, 1, f"corrupt header: {exc}") from exc
    if not isinstance(header, dict) or "version" not in header:
        raise TraceFormatError(
            path, 1, "missing header (first line must be a JSON object"
            " with a 'version' key)")
    if header.get("version") not in SUPPORTED_VERSIONS:
        raise TraceFormatError(
            path, 1, f"unsupported trace version {header.get('version')!r}"
            f" (supported: {', '.join(map(str, SUPPORTED_VERSIONS))})")
    return header


def read_trace_header(path: PathLike) -> dict:
    """Read a trace file's metadata line."""
    with gzip.open(Path(path), "rt", encoding="utf-8") as handle:
        try:
            line = handle.readline()
        except (EOFError, OSError, gzip.BadGzipFile) as exc:
            raise TraceFormatError(path, 0, str(exc)) from exc
    return _parse_header(path, line)


def load_trace(path: PathLike) -> Iterator[IssueGroup]:
    """Stream issue groups back from a trace file.

    Raises :class:`TraceFormatError` for a truncated gzip stream, a
    corrupt JSON line, or a bad/missing header, identifying the file
    and the (1-based) line the damage starts at.
    """
    with gzip.open(Path(path), "rt", encoding="utf-8") as handle:
        try:
            first = handle.readline()
        except (EOFError, OSError, gzip.BadGzipFile) as exc:
            raise TraceFormatError(path, 0, str(exc)) from exc
        _parse_header(path, first)
        lineno = 1
        while True:
            lineno += 1
            try:
                line = handle.readline()
            except (EOFError, OSError, gzip.BadGzipFile) as exc:
                # a writer killed mid-file leaves a truncated gzip member;
                # everything up to here replayed fine, but the tail is
                # unrecoverable and silently dropping it would corrupt
                # statistics
                raise TraceFormatError(
                    path, lineno, f"truncated gzip stream: {exc}") from exc
            if not line:
                return
            line = line.strip()
            if not line:
                continue
            try:
                yield _decode_group(line)
            except (json.JSONDecodeError, ValueError, KeyError, TypeError,
                    IndexError) as exc:
                raise TraceFormatError(
                    path, lineno, f"corrupt issue group: {exc}") from exc

