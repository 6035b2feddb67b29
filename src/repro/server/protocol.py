"""Request schema for the evaluation service.

A request names an evaluation the repository can already perform from
the CLI — one Figure-4 panel: an FU class, a workload list (or a
calibrated synthetic stream), a policy grid, swap regimes, and optional
:class:`~repro.cpu.config.MachineConfig` overrides.  The server's whole
caching story rides on :func:`request_key`, which reduces a parsed
request to the *content* fingerprints the trace cache already uses —
program instruction/data hashes and the machine-config hash — so two
requests that would replay the same streams and build the same
evaluators share one key whatever their JSON spelling, workload
labelling, or policy ordering.

Deliberately excluded from the key (mirroring how
``MachineConfig.fingerprint`` excludes telemetry): the evaluation
``engine``, because every engine is property-tested bit-identical, and
the test-only ``delay_ms`` knob.  The ETag served for a response is
just the key in quotes, so a client holding a response can revalidate
with ``If-None-Match`` and the server can answer ``304`` from the
fingerprint alone — no simulation, no replay, no cache lookup.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..analysis.energy import SWAP_MODES
from ..batch import ENGINES
from ..core.registry import PolicyNameError, REGISTRY
from ..cpu.config import CONFIG_FIELDS, MachineConfig
from ..isa.instructions import FUClass
from ..workloads import all_workloads

MAX_WORKLOADS = 32
MAX_POLICIES = 32


class ProtocolError(ValueError):
    """A malformed or unsupported request (HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


@dataclasses.dataclass(frozen=True)
class EvalRequest:
    """One normalised evaluation request.

    Instances are produced by :func:`parse_request` only; every field is
    already validated and canonically ordered, so equality between two
    instances means "same evaluation".
    """

    fu: str
    workloads: Tuple[str, ...]
    policies: Tuple[str, ...]
    swap_modes: Tuple[str, ...]
    scale: Optional[int]
    stats: str
    synthetic: bool
    cycles: int
    seed: int
    config_overrides: Tuple[Tuple[str, Any], ...]
    engine: str
    delay_ms: int

    @property
    def fu_class(self) -> FUClass:
        return FUClass(self.fu)

    def machine_config(self) -> MachineConfig:
        return MachineConfig(**dict(self.config_overrides))

    def to_payload(self) -> Dict[str, Any]:
        """Picklable plain-dict form for the worker pool."""
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "EvalRequest":
        data = dict(payload)
        data["workloads"] = tuple(data["workloads"])
        data["policies"] = tuple(data["policies"])
        data["swap_modes"] = tuple(data["swap_modes"])
        data["config_overrides"] = tuple(
            (name, value) for name, value in data["config_overrides"])
        return cls(**data)


def _parse_policies(raw: Any) -> Tuple[str, ...]:
    if raw is None:
        return tuple(REGISTRY.grid_kinds())
    _require(isinstance(raw, (list, tuple)) and raw,
             "'policies' must be a non-empty list of policy kinds")
    _require(len(raw) <= MAX_POLICIES,
             f"at most {MAX_POLICIES} policies per request")
    seen = []
    for kind in raw:
        _require(isinstance(kind, str), "policy kinds must be strings")
        try:
            REGISTRY.resolve(kind)
        except PolicyNameError as exc:
            raise ProtocolError(str(exc)) from None
        if kind not in seen:
            seen.append(kind)
    if "original" not in seen:
        # the baseline cell anchors every reduction (and baseline_bits)
        seen.append("original")
    # canonical order: the registry's grid order (which is also how the
    # report renders rows), so permutations of one grid share a key
    seen.sort(key=REGISTRY.grid_sort_key)
    return tuple(seen)


def _parse_swap_modes(raw: Any, synthetic: bool) -> Tuple[str, ...]:
    if raw is None:
        modes = ["none", "hw"]
    else:
        _require(isinstance(raw, (list, tuple)) and raw,
                 "'swap_modes' must be a non-empty list")
        for mode in raw:
            _require(mode in SWAP_MODES,
                     f"unknown swap mode '{mode}'"
                     f" (choose from {', '.join(SWAP_MODES)})")
        modes = [mode for mode in SWAP_MODES if mode in raw]  # dedupe+order
    if synthetic:
        _require(not any("compiler" in mode for mode in modes),
                 "compiler swap modes need real programs, not synthetic"
                 " streams")
    return tuple(modes)


def _parse_config_overrides(raw: Any) -> Tuple[Tuple[str, Any], ...]:
    if raw is None:
        return ()
    _require(isinstance(raw, dict), "'config' must be an object")
    overrides = []
    for name in sorted(raw):
        _require(name in CONFIG_FIELDS,
                 f"unknown config override '{name}' (allowed:"
                 f" {', '.join(sorted(CONFIG_FIELDS))})")
        value = raw[name]
        if name == "branch_predictor":
            _require(isinstance(value, str),
                     "config override 'branch_predictor' must be a string")
        else:
            _require(isinstance(value, int)
                     and not isinstance(value, bool),
                     f"config override '{name}' must be an int")
        overrides.append((name, value))
    try:  # surface bad values (e.g. rob_entries=0) as a 400, not a 500
        MachineConfig(**dict(overrides))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid machine config: {exc}") from None
    return tuple(overrides)


def parse_request(payload: Any) -> EvalRequest:
    """Validate and normalise one decoded JSON request body."""
    _require(isinstance(payload, dict), "request body must be a JSON object")
    known = {"fu", "workloads", "policies", "swap_modes", "scale", "stats",
             "synthetic", "cycles", "seed", "config", "engine", "delay_ms"}
    unknown = sorted(set(payload) - known)
    _require(not unknown, f"unknown request field(s): {', '.join(unknown)}")

    fu = payload.get("fu", "ialu")
    _require(fu in ("ialu", "fpau"), "'fu' must be 'ialu' or 'fpau'")

    synthetic = payload.get("synthetic", False)
    _require(isinstance(synthetic, bool), "'synthetic' must be a boolean")

    cycles = payload.get("cycles", 15_000)
    _require(isinstance(cycles, int) and not isinstance(cycles, bool)
             and 0 < cycles <= 10_000_000,
             "'cycles' must be an int in (0, 10_000_000]")

    seed = payload.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             "'seed' must be an int")

    scale = payload.get("scale")
    if scale is not None:
        _require(isinstance(scale, int) and not isinstance(scale, bool)
                 and 1 <= scale <= 64, "'scale' must be an int in [1, 64]")

    stats = payload.get("stats", "measured")
    _require(stats in ("measured", "paper"),
             "'stats' must be 'measured' or 'paper'")

    engine = payload.get("engine", "batch")
    _require(engine in ENGINES,
             f"'engine' must be one of {', '.join(ENGINES)}")

    delay_ms = payload.get("delay_ms", 0)
    _require(isinstance(delay_ms, int) and not isinstance(delay_ms, bool)
             and 0 <= delay_ms <= 60_000,
             "'delay_ms' must be an int in [0, 60000]")

    raw_workloads = payload.get("workloads")
    if synthetic:
        _require(raw_workloads in (None, []),
                 "synthetic requests take no 'workloads'")
        workloads: Tuple[str, ...] = ()
    else:
        suite = {load.name for load in all_workloads()}
        if raw_workloads is None:
            kind = "int" if fu == "ialu" else "fp"
            workloads = tuple(load.name for load in all_workloads(kind))
        else:
            _require(isinstance(raw_workloads, (list, tuple))
                     and raw_workloads,
                     "'workloads' must be a non-empty list of names")
            _require(len(raw_workloads) <= MAX_WORKLOADS,
                     f"at most {MAX_WORKLOADS} workloads per request")
            for name in raw_workloads:
                _require(isinstance(name, str) and name in suite,
                         f"unknown workload '{name}' (see 'repro"
                         f" workloads')")
            # canonical order: a suite is a set; dedupe and sort so
            # ["li","compress"] and ["compress","li"] share a key
            workloads = tuple(sorted(set(raw_workloads)))

    return EvalRequest(
        fu=fu,
        workloads=workloads,
        policies=_parse_policies(payload.get("policies")),
        swap_modes=_parse_swap_modes(payload.get("swap_modes"), synthetic),
        scale=scale,
        stats=stats,
        synthetic=synthetic,
        cycles=cycles,
        seed=seed,
        config_overrides=_parse_config_overrides(payload.get("config")),
        engine=engine,
        delay_ms=delay_ms,
    )


def request_key(request: EvalRequest,
                program_fingerprints: Sequence[str]) -> str:
    """Content-addressed identity of one evaluation.

    Built from the *existing* fingerprints — the assembled programs'
    content hashes and ``MachineConfig.fingerprint()`` — plus the
    normalised evaluation grid.  Engine and ``delay_ms`` are excluded:
    neither changes a single response byte.
    """
    canon = json.dumps([
        "eval-v1", request.fu, list(program_fingerprints),
        request.machine_config().fingerprint(),
        list(request.policies), list(request.swap_modes), request.stats,
        ["synthetic", request.cycles, request.seed] if request.synthetic
        else ["programs", list(request.workloads), request.scale],
    ], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:32]


def etag_for(key: str) -> str:
    """The HTTP ETag a response under ``key`` carries."""
    return f'"{key}"'


__all__ = ["EvalRequest", "MAX_POLICIES", "MAX_WORKLOADS", "ProtocolError",
           "SWAP_MODES", "etag_for", "parse_request", "request_key"]
