"""Transient-fault injection on the steering path.

The paper's routing logic steers on one-bit operand summaries (the
*information bits*), which makes the scheme's savings a statistical
claim about those bits being right.  :class:`FaultInjector` measures
how fragile that claim is: it flips info bits (or arbitrary operand
bits) at a configurable per-operand rate, modelling transient upsets
on the issue/routing path — the architectural computation is never
touched, only what the steering and power-accounting layers observe.

Two hook points:

* **simulator stream** — pass the injector as ``Simulator(...,
  fault_injector=injector)``: every published :class:`MicroOp` is
  corrupted in place, so *all* listeners see the upset, as real routing
  hardware downstream of a flipped latch would.
* **policy view** — pass it as ``PolicyEvaluator(...,
  fault_injector=injector)``: only the steering policy's view is
  corrupted while the power model charges the true operand images.
  This isolates the *steering decision* degradation, which is what
  :func:`fault_sweep` and the campaign's fault grid chart.  The object
  path draws through :meth:`FaultInjector.corrupt_view` group by
  group; the batch kernels (:func:`repro.batch.batch_drive`) draw
  through its columnar twin :meth:`FaultInjector.corrupt_columns` in
  the same order, so both engines see the same upsets and leave the
  injector in the same state.

At ``rate == 0.0`` both hooks are exact no-ops (the same objects pass
through untouched), so a zero-rate run is bit-identical to a clean run.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from ..cpu.trace import MicroOp
from ..isa.instructions import FUClass
from ..core.info_bits import FLOAT_CLASSES

INT_SIGN_BIT = 1 << 31
FP_LOW_NIBBLE = 0xF

FAULT_MODES = ("info", "operand")


class FaultInjector:
    """Flip info bits / operand bits at a per-operand rate.

    ``mode``:

    * ``"info"`` — flip exactly the information bit the steering logic
      reads: the sign bit for integer classes; for floating point, the
      low mantissa nibble is toggled between zero and non-zero so the
      OR-of-low-4 summary inverts.
    * ``"operand"`` — flip one uniformly random bit of the operand
      image (32-bit integer, 64-bit float), the classic single-event
      upset model.

    Deterministic for a given ``seed``; ``flips`` counts bits actually
    flipped so sweeps can report observed fault pressure.
    """

    def __init__(self, rate: float, mode: str = "info", seed: int = 0,
                 fu_classes: Optional[Iterable[FUClass]] = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        if mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {FAULT_MODES}")
        self.rate = rate
        self.mode = mode
        self.seed = seed
        self._filter = frozenset(fu_classes) if fu_classes is not None \
            else None
        self._rng = random.Random(seed)
        self.flips = 0
        self.operands_seen = 0

    def reset(self) -> None:
        """Restore the seeded RNG state and counters."""
        self._rng = random.Random(self.seed)
        self.flips = 0
        self.operands_seen = 0

    # ----- bit flipping ---------------------------------------------------

    def _corrupt_image(self, bits: int, is_float: bool) -> int:
        if self.mode == "info":
            if is_float:
                # toggle the OR-of-low-4 info bit: zero nibble becomes
                # non-zero, non-zero nibble is cleared
                if bits & FP_LOW_NIBBLE:
                    return bits & ~FP_LOW_NIBBLE
                return bits | 1
            return bits ^ INT_SIGN_BIT
        width = 64 if is_float else 32
        return bits ^ (1 << self._rng.randrange(width))

    def __call__(self, micro: MicroOp, fu_class: FUClass) -> None:
        """Simulator hook: corrupt a published MicroOp in place."""
        rate = self.rate
        if not rate:
            return
        if self._filter is not None and fu_class not in self._filter:
            return
        rng_random = self._rng.random
        is_float = fu_class in FLOAT_CLASSES
        self.operands_seen += 1
        if rng_random() < rate:
            micro.op1 = self._corrupt_image(micro.op1, is_float)
            self.flips += 1
        if micro.has_two:
            self.operands_seen += 1
            if rng_random() < rate:
                micro.op2 = self._corrupt_image(micro.op2, is_float)
                self.flips += 1

    def corrupt_view(self, ops: Sequence[MicroOp],
                     fu_class: FUClass) -> Sequence[MicroOp]:
        """Evaluator hook: return the ops as the faulted policy sees them.

        Untouched operations are shared, corrupted ones are copies —
        the caller's list is never mutated, so the power model can
        still charge the true images.
        """
        rate = self.rate
        if not rate:
            return ops
        if self._filter is not None and fu_class not in self._filter:
            return ops
        rng_random = self._rng.random
        is_float = fu_class in FLOAT_CLASSES
        out: Optional[List[MicroOp]] = None
        for index, op in enumerate(ops):
            op1, op2 = op.op1, op.op2
            hit = False
            self.operands_seen += 1
            if rng_random() < rate:
                op1 = self._corrupt_image(op1, is_float)
                self.flips += 1
                hit = True
            if op.has_two:
                self.operands_seen += 1
                if rng_random() < rate:
                    op2 = self._corrupt_image(op2, is_float)
                    self.flips += 1
                    hit = True
            if hit:
                if out is None:
                    out = list(ops)
                out[index] = MicroOp(op.op, op1, op2, has_two=op.has_two,
                                     static_index=op.static_index,
                                     speculative=op.speculative,
                                     swapped=op.swapped,
                                     critical=op.critical)
        return ops if out is None else out

    def corrupt_columns(self, op1, op2, has_two, fu_class: FUClass):
        """Columnar twin of :meth:`corrupt_view` for the batch kernels.

        ``op1``/``op2`` are one evaluator's selected operand images (a
        NumPy ``uint64`` column each, in stream order) and ``has_two``
        their boolean column.  The ops are walked in that order drawing
        exactly as successive :meth:`corrupt_view` calls over the same
        groups would — one ``random()`` for op1, one more for op2 of a
        two-operand op, the ``operand`` mode's ``randrange`` right after
        its hit — so ``flips``, ``operands_seen`` and the RNG advance
        identically.  Returns the view's ``(op1, op2)``: the inputs
        themselves when nothing can flip (rate 0, filtered FU class),
        else copies with the upsets applied.
        """
        rate = self.rate
        if not rate:
            return op1, op2
        if self._filter is not None and fu_class not in self._filter:
            return op1, op2
        rng_random = self._rng.random
        corrupt = self._corrupt_image
        is_float = fu_class in FLOAT_CLASSES
        view1 = op1.copy()
        view2 = op2.copy()
        flips = 0
        for index, two in enumerate(has_two.tolist()):
            if rng_random() < rate:
                view1[index] = corrupt(int(op1[index]), is_float)
                flips += 1
            if two and rng_random() < rate:
                view2[index] = corrupt(int(op2[index]), is_float)
                flips += 1
        self.flips += flips
        self.operands_seen += len(has_two) + int(has_two.sum())
        return view1, view2


def fault_sweep(workload_name: str, rates: Sequence[float],
                fu_class: FUClass = FUClass.IALU,
                policy_kind: str = "lut-4",
                scale: Optional[int] = None,
                mode: str = "info",
                seed: int = 0,
                config=None) -> Dict[float, float]:
    """Steering savings of one policy as a function of fault rate.

    Simulates the workload once, packs its issue stream, then scores
    the same stream with one faulted evaluator per rate (plus an
    unfaulted ``original`` baseline) on the batch kernels, so every
    point of the curve sees identical traffic.  Returns ``{rate:
    fractional saving}`` — under rising fault pressure the steering
    decisions degrade toward random and the curve falls toward zero.
    """
    from ..batch import batch_drive
    from ..core.statistics import paper_statistics
    from ..core.steering import PolicyEvaluator, make_policy
    from ..cpu.config import MachineConfig
    from ..streams import capture_packed
    from ..workloads import workload

    config = config if config is not None else MachineConfig()
    packed = capture_packed(workload(workload_name).build(scale), config,
                            (fu_class,))

    stats = paper_statistics(fu_class)
    num_modules = config.modules(fu_class)
    baseline = PolicyEvaluator(fu_class, num_modules,
                               make_policy("original", fu_class,
                                           num_modules, stats=stats))
    evaluators = {}
    for rate in rates:
        injector = FaultInjector(rate, mode=mode, seed=seed)
        policy = make_policy(policy_kind, fu_class, num_modules,
                             stats=stats)
        evaluators[rate] = PolicyEvaluator(fu_class, num_modules, policy,
                                           fault_injector=injector)
    batch_drive(packed, [baseline, *evaluators.values()])
    base_bits = baseline.totals().switched_bits
    curve = {}
    for rate, evaluator in evaluators.items():
        bits = evaluator.totals().switched_bits
        curve[rate] = (1.0 - bits / base_bits) if base_bits else 0.0
    return curve
