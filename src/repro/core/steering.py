"""Steering policies and the stream evaluator (sections 4.1-4.3).

A *policy* decides, for the operations one cycle issues to an FU class,
which module each operation drives and whether its operands are swapped
by the router.  The paper's candidates, in decreasing implementation
cost:

* :class:`FullHammingPolicy` — the optimal assignment of section 4.1
  ("Full Ham" in Figure 4): full-width Hamming cost matrix against each
  module's latched inputs, exact matching.
* :class:`OneBitHammingPolicy` — the same matrix computed only on the
  information bits ("1-bit Ham"): the upper bound of any scheme that
  sees one bit per operand.
* :class:`LUTPolicy` — the actual proposal (section 4.3): a stateless
  lookup keyed by the concatenated cases of the first few operations.
* :class:`OriginalPolicy` — first-come-first-serve, how existing
  superscalars route ("Original").

:class:`PolicyEvaluator` subscribes to a simulator's issue stream and
accumulates each policy's switched-bit count through a
:class:`~repro.core.power.FUPowerModel`, so arbitrarily many policies
can be scored in a single simulation pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from ..cpu.trace import IssueGroup, MicroOp
from ..isa import encoding
from ..isa.encoding import bit_count as _bit_count
from ..isa.instructions import FUClass
from ..telemetry.session import TelemetrySession
from .assignment import Assignment, optimal_assignment
from .info_bits import InfoBitScheme, case_of, scheme_for
from .lut import SteeringLUT, build_lut
from .power import FUPowerModel, operand_width
from .registry import (PolicyFamily, PolicyRequest, REGISTRY, exact_name,
                       int_suffix)
from .statistics import CaseStatistics
from .swapping import HardwareSwapper


class SteeringPolicy(Protocol):
    """Maps one cycle's operations onto distinct modules.

    When a cycle's issue group is wider than the module count the
    policy assigns only the first ``power.num_modules`` operations — a
    router with M ports physically sees at most M operations — and the
    returned :class:`~repro.core.assignment.Assignment` is
    correspondingly shorter than ``ops``.  Consumers pair operations
    and modules positionally (``zip`` truncates at the assignment).
    """

    name: str

    def assign(self, ops: Sequence[MicroOp],
               power: FUPowerModel) -> Assignment:
        """Choose modules (and router swaps) for this cycle's ops."""
        ...


@dataclass
class OriginalPolicy:
    """First-come-first-serve: operation k drives module k.

    This is how a conventional superscalar fills its functional units
    and is the baseline all reductions in Figure 4 are measured against.
    """

    name: str = "original"

    def __post_init__(self) -> None:
        # the assignment depends only on the width, so the (frozen)
        # Assignment objects can be reused across cycles
        self._memo: Dict[int, Assignment] = {}

    def assign(self, ops: Sequence[MicroOp], power: FUPowerModel) -> Assignment:
        count = min(len(ops), power.num_modules)
        cached = self._memo.get(count)
        if cached is None:
            cached = Assignment(modules=tuple(range(count)),
                                swapped=(False,) * count, total_cost=0.0)
            self._memo[count] = cached
        return cached


@dataclass
class RoundRobinPolicy:
    """Ablation baseline: rotate the starting module every cycle."""

    name: str = "round-robin"
    _next: int = 0

    def assign(self, ops: Sequence[MicroOp], power: FUPowerModel) -> Assignment:
        count = power.num_modules
        take = min(len(ops), count)
        modules = tuple((self._next + k) % count for k in range(take))
        self._next = (self._next + take) % count
        return Assignment(modules=modules, swapped=(False,) * take,
                          total_cost=0.0)


@dataclass
class FullHammingPolicy:
    """Optimal full-width Hamming assignment (cost-prohibitive bound)."""

    allow_swap: bool = False
    name: str = "full-ham"

    def __post_init__(self) -> None:
        if self.allow_swap:
            self.name = "full-ham+swap"
        # the operand mask and cost closure are per-FU-class constants;
        # build them on first use instead of once per cycle
        self._cost_fn = None
        self._cost_class: Optional[FUClass] = None

    def _cost_for(self, fu_class: FUClass):
        if self._cost_class is not fu_class:
            mask = (1 << operand_width(fu_class)) - 1

            def cost(op1: int, op2: int, prev1: int, prev2: int,
                     _bc=_bit_count, _mask=mask) -> int:
                return (_bc((op1 ^ prev1) & _mask)
                        + _bc((op2 ^ prev2) & _mask))

            self._cost_fn = cost
            self._cost_class = fu_class
        return self._cost_fn

    def assign(self, ops: Sequence[MicroOp], power: FUPowerModel) -> Assignment:
        if len(ops) > power.num_modules:
            ops = ops[:power.num_modules]
        return optimal_assignment(ops, power.all_module_inputs(),
                                  self._cost_for(power.fu_class),
                                  allow_swap=self.allow_swap)


@dataclass
class OneBitHammingPolicy:
    """Optimal assignment seeing only information bits (section 4.2)."""

    scheme: InfoBitScheme
    allow_swap: bool = False
    name: str = "1bit-ham"

    def __post_init__(self) -> None:
        if self.allow_swap:
            self.name = "1bit-ham+swap"
        extract = self.scheme.extract

        def cost(op1: int, op2: int, prev1: int, prev2: int) -> int:
            return (abs(extract(op1) - extract(prev1))
                    + abs(extract(op2) - extract(prev2)))

        self._cost_fn = cost

    def assign(self, ops: Sequence[MicroOp], power: FUPowerModel) -> Assignment:
        if len(ops) > power.num_modules:
            ops = ops[:power.num_modules]
        return optimal_assignment(ops, power.all_module_inputs(),
                                  self._cost_fn,
                                  allow_swap=self.allow_swap)


@dataclass
class LUTPolicy:
    """The paper's proposal: stateless LUT steering (section 4.3).

    The first ``lut.vector_ops`` operations are steered by the table;
    any additional operations (issue wider than the vector) fall back to
    the remaining modules first-come-first-serve, mirroring a router
    whose vector simply does not see them.
    """

    lut: SteeringLUT
    scheme: InfoBitScheme
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"lut-{self.lut.vector_bits}bit"
        # the table is stateless: identical (cases, width, module count)
        # always steers identically, so the frozen Assignment objects
        # can be memoised — the case alphabet is tiny (4^vector_ops keys)
        self._memo: Dict[Tuple[Tuple[int, ...], int, int], Assignment] = {}
        self._case_fn = self.scheme.pair_case or self.scheme.case_of
        self._vector_ops = self.lut.vector_ops

    def assign(self, ops: Sequence[MicroOp], power: FUPowerModel) -> Assignment:
        case = self._case_fn
        cases = tuple([case(op.op1, op.op2 if op.has_two else 0)
                       for op in ops[:self._vector_ops]])
        return self._assign_cases(cases, len(ops), power.num_modules)

    def _assign_cases(self, cases: Tuple[int, ...], length: int,
                      count: int) -> Assignment:
        """Steer from precomputed cases (the columnar kernels call this
        directly, so table semantics live in exactly one place)."""
        key = (cases, length, count)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        steered = list(self.lut.lookup(cases))[:count]
        # a table built for a wider machine can emit module indices this
        # power model does not have; remap those onto unused modules,
        # exactly like overflow operations
        valid = {m for m in steered if m < count}
        spare = iter(m for m in range(count) if m not in valid)
        steered = [m if m < count else next(spare) for m in steered]
        free = [m for m in range(count) if m not in steered]
        modules = tuple((steered + free)[:length])
        assignment = Assignment(modules=modules,
                                swapped=(False,) * len(modules),
                                total_cost=0.0)
        self._memo[key] = assignment
        return assignment


@dataclass
class EvaluationTotals:
    """What one policy accumulated over a stream."""

    policy: str
    fu_class: FUClass
    switched_bits: int
    operations: int
    cycles_seen: int
    hardware_swaps: int

    @property
    def bits_per_operation(self) -> float:
        if not self.operations:
            return 0.0
        return self.switched_bits / self.operations

    def reduction_vs(self, baseline: "EvaluationTotals") -> float:
        """Fractional energy reduction relative to a baseline run.

        A zero-bit baseline is only meaningful when this run also saw
        zero switched bits (an empty stream: 0% reduction).  A baseline
        that switched nothing while this policy switched something means
        the two totals do not describe the same stream — silently
        returning 0.0 here used to mask exactly that mistake.
        """
        if not baseline.switched_bits:
            if not self.switched_bits:
                return 0.0
            raise ValueError(
                f"baseline '{baseline.policy}' saw zero switched bits but"
                f" '{self.policy}' saw {self.switched_bits}; the totals"
                " were not accumulated over the same stream")
        return 1.0 - self.switched_bits / baseline.switched_bits


class PolicyEvaluator:
    """Issue-stream listener scoring one (policy, swapper) combination.

    Wrong-path accounting: the simulator marks a ``MicroOp`` as
    ``speculative`` only retroactively, when the mispredicted branch
    resolves and the flush squashes it — at issue time every op looks
    correct-path.  An evaluator with ``include_speculative=False``
    therefore cannot filter the live stream; it *defers* accounting,
    buffering groups and charging them once the flags are final (any
    time after the run completes — :meth:`totals` drains the buffer
    automatically, or call :meth:`finalize` explicitly).  Inclusive
    evaluators stay fully streaming, which is also the correct hardware
    model: the router really drives wrong-path operations.
    """

    def __init__(self, fu_class: FUClass, num_modules: int,
                 policy: SteeringPolicy,
                 scheme: Optional[InfoBitScheme] = None,
                 pre_swapper: Optional[HardwareSwapper] = None,
                 include_speculative: bool = True,
                 fault_injector=None,
                 telemetry: Optional[TelemetrySession] = None):
        self.fu_class = fu_class
        self.policy = policy
        self.scheme = scheme or scheme_for(fu_class)
        self.pre_swapper = pre_swapper
        self.include_speculative = include_speculative
        # optional transient-upset model (repro.runner.faults): corrupts
        # only the *policy's view* of the operands; the power model
        # still charges the true bit images, so what degrades is the
        # steering decision, not the accounting
        self.fault_injector = fault_injector
        self.power = FUPowerModel(fu_class, num_modules)
        self.cycles_seen = 0
        # deferred groups awaiting final wrong-path flags; None for
        # inclusive (streaming) evaluators
        self._deferred: Optional[List[IssueGroup]] = (
            None if include_speculative else [])
        self.telemetry: Optional[TelemetrySession] = None
        if telemetry is not None and telemetry.enabled:
            self._init_telemetry(telemetry)

    def _init_telemetry(self, telemetry: TelemetrySession) -> None:
        """Prebind the per-evaluator tallies and the session collector.

        The hot per-cycle path touches only plain ints and one flat
        list (``_case_counts``) — no registry objects, no method
        dispatch per operation.  Everything the registry or sampler
        wants (case mix, swaps, per-module switched-bit breakdown) is
        *read* lazily through a session collector at sample points and
        at summary time.
        """
        self.telemetry = telemetry
        prefix = f"steer.{self.fu_class.value}.{self.label}"
        self._case_fn = self.scheme.pair_case or self.scheme.case_of
        self._case_counts = [0, 0, 0, 0]
        self._ops_seen = 0
        self._swaps_seen = 0
        self._trace = telemetry.tracer
        power = self.power
        power.enable_module_tracking()

        def collect(prefix=prefix, power=power) -> Dict[str, int]:
            counts = self._case_counts
            counters = {
                f"{prefix}.ops": self._ops_seen,
                f"{prefix}.swaps": self._swaps_seen,
                f"{prefix}.case00": counts[0],
                f"{prefix}.case01": counts[1],
                f"{prefix}.case10": counts[2],
                f"{prefix}.case11": counts[3],
                f"{prefix}.bits": power.switched_bits,
            }
            for index, bits in enumerate(power.module_switched_bits):
                counters[f"{prefix}.module.{index}.bits"] = bits
                counters[f"{prefix}.module.{index}.ops"] = \
                    power.module_operations[index]
            return counters

        telemetry.add_collector(collect)

    def _telemetry_record(self, ops: Sequence[MicroOp],
                          assignment: Assignment, cycle: int) -> None:
        """Per-cycle steering telemetry: case mix, swaps, trace event."""
        modules = assignment.modules
        if len(ops) > len(modules):
            ops = ops[:len(modules)]
        case = self._case_fn
        counts = self._case_counts
        for op in ops:
            counts[case(op.op1, op.op2 if op.has_two else 0)] += 1
        self._ops_seen += len(ops)
        swapped = assignment.swapped
        if True in swapped:
            self._swaps_seen += swapped.count(True)
        if self._trace is not None:
            self._trace.module_assigned(cycle, self.fu_class.value,
                                        self.label, modules,
                                        assignment.swapped)

    def __call__(self, group: IssueGroup) -> None:
        if group.fu_class is not self.fu_class:
            return
        if self._deferred is not None:
            self._deferred.append(group)
            return
        self._account_ops(group.ops, group.cycle)

    def _account_ops(self, ops: Sequence[MicroOp],
                     cycle: int = 0) -> None:
        """Clamp, pre-swap, assign, and charge one cycle's operations."""
        if not ops:
            return
        if len(ops) > self.power.num_modules:
            # a router with M ports sees at most M operations per cycle
            ops = ops[:self.power.num_modules]
        if self.pre_swapper is not None:
            ops = [self.pre_swapper(op) for op in ops]
        view = ops
        if self.fault_injector is not None:
            view = self.fault_injector.corrupt_view(ops, self.fu_class)
        assignment = self.policy.assign(view, self.power)
        self.cycles_seen += 1
        self.power.account_group(ops, assignment.modules,
                                 assignment.swapped)
        if self.telemetry is not None:
            self._telemetry_record(ops, assignment, cycle)

    def finalize(self) -> None:
        """Account any deferred groups using their final wrong-path
        flags.  Safe to call more than once; a no-op for inclusive
        evaluators."""
        if not self._deferred:
            return
        pending, self._deferred = self._deferred, []
        for group in pending:
            self._account_ops(
                [op for op in group.ops if not op.speculative],
                group.cycle)

    @property
    def label(self) -> str:
        suffix = "+hwswap" if self.pre_swapper is not None else ""
        return f"{self.policy.name}{suffix}"

    def totals(self) -> EvaluationTotals:
        self.finalize()
        swaps = (self.pre_swapper.swaps_performed
                 if self.pre_swapper is not None else 0)
        return EvaluationTotals(policy=self.label, fu_class=self.fu_class,
                                switched_bits=self.power.switched_bits,
                                operations=self.power.operations,
                                cycles_seen=self.cycles_seen,
                                hardware_swaps=swaps)


def make_policy(kind: str, fu_class: FUClass, num_modules: int,
                stats: Optional[CaseStatistics] = None,
                scheme: Optional[InfoBitScheme] = None,
                allow_swap: bool = False) -> SteeringPolicy:
    """Factory covering every registered policy family.

    ``kind`` is any kind the :data:`~repro.core.registry.REGISTRY`
    resolves — the paper's menu (``original``, ``round-robin``,
    ``full-ham``, ``1bit-ham``, ``lut-<bits>``) plus any family
    registered since (e.g. ``bdd-<bits>``).  Unknown or malformed
    kinds raise a :class:`~repro.core.registry.PolicyNameError`
    (a ``ValueError``) naming every registered kind.
    """
    scheme = scheme or scheme_for(fu_class)
    return REGISTRY.build(kind, fu_class, num_modules, stats=stats,
                          scheme=scheme, allow_swap=allow_swap)


# ----- family registrations ---------------------------------------------------
# The paper's menu, registered in-module: make_policy resolves through
# the registry, so these builders must reproduce the pre-registry
# factory byte for byte (tests/core/test_registry.py holds them to a
# hand-written reference).  Fused batch kernels are attached by
# repro.batch.kernels at its import.


def _build_original(req: PolicyRequest) -> SteeringPolicy:
    return OriginalPolicy()


def _build_round_robin(req: PolicyRequest) -> SteeringPolicy:
    return RoundRobinPolicy()


def _build_full_ham(req: PolicyRequest) -> SteeringPolicy:
    return FullHammingPolicy(allow_swap=req.allow_swap)


def _build_one_bit_ham(req: PolicyRequest) -> SteeringPolicy:
    return OneBitHammingPolicy(scheme=req.scheme, allow_swap=req.allow_swap)


def _build_lut(req: PolicyRequest) -> SteeringPolicy:
    lut = build_lut(req.stats, req.num_modules, req.params["bits"])
    return LUTPolicy(lut=lut, scheme=req.scheme)


REGISTRY.register(PolicyFamily(
    name="original", syntax="original",
    description="first-come-first-serve routing (the paper's baseline)",
    parse=exact_name("original"), build=_build_original,
    policy_types=(OriginalPolicy,),
    grid_kinds=("original",), grid_order=90.0,
    cli_defaults=((0, "original"),)))

REGISTRY.register(PolicyFamily(
    name="round-robin", syntax="round-robin",
    description="rotate the starting module every cycle (ablation)",
    parse=exact_name("round-robin"), build=_build_round_robin,
    policy_types=(RoundRobinPolicy,)))

REGISTRY.register(PolicyFamily(
    name="full-ham", syntax="full-ham",
    description="optimal full-width Hamming matching (section 4.1 bound)",
    parse=exact_name("full-ham"), build=_build_full_ham,
    policy_types=(FullHammingPolicy,), supports_swap=True,
    grid_kinds=("full-ham",), grid_order=10.0,
    cli_defaults=((20, "full-ham"),)))

REGISTRY.register(PolicyFamily(
    name="1bit-ham", syntax="1bit-ham",
    description="optimal matching on information bits only (section 4.2)",
    parse=exact_name("1bit-ham"), build=_build_one_bit_ham,
    policy_types=(OneBitHammingPolicy,), supports_swap=True,
    grid_kinds=("1bit-ham",), grid_order=20.0))

REGISTRY.register(PolicyFamily(
    name="lut", syntax="lut-<bits>",
    description="greedy stateless LUT steering (section 4.3, the"
                " paper's proposal); <bits> is the case-vector width",
    parse=int_suffix("lut-"), build=_build_lut,
    policy_types=(LUTPolicy,), needs_stats=True,
    grid_kinds=("lut-8", "lut-4", "lut-2"), grid_order=30.0,
    cli_defaults=((10, "lut-4"),)))
