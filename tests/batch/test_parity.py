"""Bit-identity between the object and batch evaluation engines.

The object path (:func:`repro.streams.drive` over reconstructed
``IssueGroup`` objects) is the reference oracle; the fused columnar
kernels must accumulate *exactly* the same ``EvaluationTotals`` and
telemetry counters for every steering scheme, both hardware-swap
regimes, and both speculative settings, on random programs — with and
without a fault view on the policy's operands.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import ENGINES, batch_drive, pack_stream
from repro.core.info_bits import scheme_for
from repro.core.registry import REGISTRY
from repro.core.statistics import paper_statistics
from repro.core.steering import PolicyEvaluator, make_policy
from repro.core.swapping import HardwareSwapper, choose_swap_case
from repro.analysis.bit_patterns import BitPatternCollector
from repro.analysis.module_usage import ModuleUsageCollector
from repro.isa.assembler import assemble
from repro.isa.instructions import FUClass
from repro.runner.faults import FAULT_MODES, FaultInjector
from repro.streams import LiveSource, capture, drive
from repro.telemetry import TelemetryConfig, TelemetrySession
from repro.workloads import workload
from tests.cpu.test_simulator import loopy_programs

SCHEME_KINDS = ("original", "round-robin", "full-ham", "1bit-ham",
                "lut-4", "lut-2", "bdd-4")
NUM_MODULES = 4


def _evaluator_set(telemetry=None, fu_class=FUClass.IALU,
                   num_modules=NUM_MODULES):
    stats = paper_statistics(fu_class)
    scheme = scheme_for(fu_class)
    swap_case = choose_swap_case(stats)
    evaluators = {}
    for kind in SCHEME_KINDS:
        policy = make_policy(kind, fu_class, num_modules, stats=stats)
        evaluators[kind] = PolicyEvaluator(fu_class, num_modules, policy,
                                           telemetry=telemetry)
    # hardware swapping, in both of the paper's forms: integrated into
    # the cost matrix for the Hamming matchers, case-triggered pre-swap
    # for everything else
    for kind in SCHEME_KINDS:
        if kind in ("full-ham", "1bit-ham"):
            policy = make_policy(kind, fu_class, num_modules, stats=stats,
                                 allow_swap=True)
            pre_swapper = None
        else:
            policy = make_policy(kind, fu_class, num_modules, stats=stats)
            pre_swapper = HardwareSwapper(scheme, swap_case)
        evaluators[f"{kind}/hw"] = PolicyEvaluator(
            fu_class, num_modules, policy, pre_swapper=pre_swapper,
            telemetry=telemetry)
    # deferred wrong-path accounting (include_speculative=False)
    for kind in ("original", "lut-4", "full-ham"):
        policy = make_policy(kind, fu_class, num_modules, stats=stats)
        evaluators[f"{kind}/no-spec"] = PolicyEvaluator(
            fu_class, num_modules, policy, include_speculative=False)
    return evaluators


def _assert_identical(reference, batch):
    assert set(reference) == set(batch)
    for kind in reference:
        assert batch[kind].totals() == reference[kind].totals(), kind


def _run_both(memory, fu_class=FUClass.IALU, num_modules=NUM_MODULES):
    reference = _evaluator_set(fu_class=fu_class, num_modules=num_modules)
    drive(memory, list(reference.values()))
    batch = _evaluator_set(fu_class=fu_class, num_modules=num_modules)
    batch_drive(pack_stream(memory.groups()), list(batch.values()))
    _assert_identical(reference, batch)


class TestEngineParity:
    @settings(max_examples=8, deadline=None)
    @given(loopy_programs())
    def test_random_programs_all_schemes(self, source):
        _run_both(capture(LiveSource(assemble(source))))

    @settings(max_examples=4, deadline=None)
    @given(loopy_programs())
    def test_random_programs_two_modules(self, source):
        # a narrower machine exercises the clamp in every kernel
        _run_both(capture(LiveSource(assemble(source))), num_modules=2)

    def test_integer_workload(self):
        _run_both(capture(LiveSource(workload("compress").build(1))))

    def test_float_workload(self):
        # the FP scheme and 52-bit mantissa mask go down different
        # kernel constants than the integer path
        memory = capture(LiveSource(workload("swim").build(1)))
        _run_both(memory, fu_class=FUClass.FPAU)

    def test_round_robin_state_carries_across_streams(self):
        # the rotation pointer must advance identically when one policy
        # instance sees two streams back to back
        first = capture(LiveSource(workload("compress").build(1)))
        second = capture(LiveSource(workload("li").build(1)))
        stats = paper_statistics(FUClass.IALU)

        def one_path(runner):
            policy = make_policy("round-robin", FUClass.IALU, NUM_MODULES,
                                 stats=stats)
            ev = PolicyEvaluator(FUClass.IALU, NUM_MODULES, policy)
            runner(first, ev)
            runner(second, ev)
            return ev.totals(), policy._next

        ref = one_path(lambda mem, ev: drive(mem, [ev]))
        batch = one_path(
            lambda mem, ev: batch_drive(pack_stream(mem.groups()), [ev]))
        assert batch == ref


class TestTelemetryParity:
    def test_counters_match_object_session(self):
        memory = capture(LiveSource(workload("compress").build(1)))

        ref_session = TelemetrySession(TelemetryConfig(metrics=True))
        reference = _evaluator_set(telemetry=ref_session)
        drive(memory, list(reference.values()))

        batch_session = TelemetrySession(TelemetryConfig(metrics=True))
        batch = _evaluator_set(telemetry=batch_session)
        batch_drive(pack_stream(memory.groups()), list(batch.values()))

        _assert_identical(reference, batch)
        ref_counters = ref_session.collect_counters()
        batch_counters = batch_session.collect_counters()
        assert set(ref_counters) == set(batch_counters)
        for name, value in ref_counters.items():
            assert batch_counters[name] == value, name


class TestCollectorParity:
    def test_statistics_collectors_match(self):
        memory = capture(LiveSource(workload("compress").build(1)))
        packed = pack_stream(memory.groups())
        for include_spec in (True, False):
            ref_patterns = BitPatternCollector(
                FUClass.IALU, include_speculative=include_spec)
            ref_usage = ModuleUsageCollector()
            drive(memory, [ref_patterns, ref_usage])

            batch_patterns = BitPatternCollector(
                FUClass.IALU, include_speculative=include_spec)
            batch_usage = ModuleUsageCollector()
            batch_drive(packed, [batch_patterns, batch_usage])

            assert batch_patterns.total_ops == ref_patterns.total_ops
            for key, row in ref_patterns.rows.items():
                mine = batch_patterns.rows[key]
                assert (mine.count, mine.ones_op1, mine.ones_op2) == \
                    (row.count, row.ones_op1, row.ones_op2), key
            assert batch_usage.counts == ref_usage.counts

    def test_filtered_usage_collector_matches(self):
        memory = capture(LiveSource(workload("compress").build(1)))
        ref = ModuleUsageCollector([FUClass.IALU])
        drive(memory, [ref])
        batch = ModuleUsageCollector([FUClass.IALU])
        batch_drive(pack_stream(memory.groups()), [batch])
        assert batch.counts == ref.counts


class TestBackendDispatch:
    def test_two_engines(self):
        from repro.analysis.energy import run_figure4
        assert ENGINES == ("batch", "object")
        for retired in ("auto", "batch-np", "warp"):
            with pytest.raises(ValueError, match="engine"):
                run_figure4(FUClass.IALU, workloads=[], engine=retired)

    def test_run_figure4_engines_identical(self, tmp_path):
        from repro.analysis.energy import run_figure4
        from repro.workloads import workload as load

        def cells(result):
            return {key: (cell.switched_bits, cell.operations,
                          cell.hardware_swaps)
                    for key, cell in result.cells.items()}

        results = {}
        for engine in ENGINES:
            results[engine] = run_figure4(
                FUClass.IALU, workloads=[load("compress")],
                schemes=("original", "lut-4"), swap_modes=("none", "hw"),
                trace_cache_dir=tmp_path, engine=engine)
        reference = results["object"]
        assert cells(results["batch"]) == cells(reference)
        assert repr(results["batch"].statistics) == \
            repr(reference.statistics)


class TestBDDFallThrough:
    """The bdd family runs the numpy LUT kernel (BDD tables share the
    LUT table contract), and a scheme mismatch still falls through to
    the object path."""

    def _bdd_evaluator(self, stats):
        policy = make_policy("bdd-4", FUClass.IALU, NUM_MODULES, stats=stats)
        return PolicyEvaluator(FUClass.IALU, NUM_MODULES, policy)

    def test_bdd_runs_the_np_lut_kernel(self, monkeypatch):
        from repro.batch import kernels
        memory = capture(LiveSource(workload("compress").build(1)))
        stats = paper_statistics(FUClass.IALU)
        ran = []
        real = kernels._np_run_lut
        monkeypatch.setattr(kernels, "_np_run_lut",
                            lambda ev, cols: ran.append(ev) or real(ev, cols))
        batch = self._bdd_evaluator(stats)
        batch_drive(pack_stream(memory.groups()), [batch])
        assert ran == [batch]

    def test_engines_identical_for_bdd(self):
        memory = capture(LiveSource(workload("compress").build(1)))
        stats = paper_statistics(FUClass.IALU)
        reference = self._bdd_evaluator(stats)
        drive(memory, [reference])
        batch = self._bdd_evaluator(stats)
        batch_drive(pack_stream(memory.groups()), [batch])
        assert batch.totals() == reference.totals()

    def test_scheme_mismatch_falls_through_to_object_path(self):
        # an FP-scheme bdd policy over an integer stream: the fused
        # kernel's guard declines and the object path must still agree
        memory = capture(LiveSource(workload("compress").build(1)))
        stats = paper_statistics(FUClass.IALU)

        def build():
            policy = make_policy("bdd-4", FUClass.IALU, NUM_MODULES,
                                 stats=stats, scheme=scheme_for(FUClass.FPAU))
            return PolicyEvaluator(FUClass.IALU, NUM_MODULES, policy)

        reference = build()
        drive(memory, [reference])
        batch = build()
        batch_drive(pack_stream(memory.groups()), [batch])
        assert batch.totals() == reference.totals()


class TestFallbackPath:
    def test_wide_one_bit_hamming_runs_the_object_path(self):
        # the array kernel's packed opkey fits 16 modules; wider
        # machines decline to the object pass and must still agree
        memory = capture(LiveSource(workload("compress").build(1)))
        stats = paper_statistics(FUClass.IALU)

        def build():
            policy = make_policy("1bit-ham", FUClass.IALU, 17, stats=stats)
            return PolicyEvaluator(FUClass.IALU, 17, policy)

        reference = build()
        drive(memory, [reference])
        packed = pack_stream(memory.groups())
        batch = build()
        assert REGISTRY.kernel_factory(batch.policy, "np")(
            batch, packed.classes[FUClass.IALU]) is None
        batch_drive(packed, [batch])
        assert batch.totals() == reference.totals()

    def test_unknown_consumer_sees_object_stream(self):
        memory = capture(LiveSource(workload("compress").build(1)))
        seen = []
        batch_drive(pack_stream(memory.groups()), [seen.append])
        groups = list(memory.groups())
        assert len(seen) == len(groups)
        for mine, theirs in zip(seen, groups):
            assert mine.cycle == theirs.cycle
            assert mine.fu_class is theirs.fu_class


#: every (rate, mode) a faulted parity check runs under
FAULTS = [(rate, mode) for rate in (0.01, 0.3, 1.0) for mode in FAULT_MODES]


@functools.lru_cache(maxsize=None)
def _workload_stream(name):
    """One capture per workload, shared: evaluators never mutate it."""
    return capture(LiveSource(workload(name).build(1)))


def _faulted_set(rate, mode, fu_class=FUClass.IALU, num_modules=NUM_MODULES,
                 injector_type=FaultInjector):
    """Every SCHEME_KINDS family under a fault view, in both hw regimes
    and both wrong-path settings.  Each evaluator has its own injector
    (one seed for all) and its own telemetry session, so every counter
    is compared per evaluator."""
    stats = paper_statistics(fu_class)
    scheme = scheme_for(fu_class)
    swap_case = choose_swap_case(stats)
    evaluators = {}
    for kind in SCHEME_KINDS:
        for hw in (False, True):
            for include_spec in (True, False):
                if kind in ("full-ham", "1bit-ham"):
                    policy = make_policy(kind, fu_class, num_modules,
                                         stats=stats, allow_swap=hw)
                    pre_swapper = None
                else:
                    policy = make_policy(kind, fu_class, num_modules,
                                         stats=stats)
                    pre_swapper = (HardwareSwapper(scheme, swap_case)
                                   if hw else None)
                evaluators[(kind, hw, include_spec)] = PolicyEvaluator(
                    fu_class, num_modules, policy, pre_swapper=pre_swapper,
                    include_speculative=include_spec,
                    fault_injector=injector_type(rate, mode=mode, seed=7),
                    telemetry=TelemetrySession(TelemetryConfig(metrics=True)))
    return evaluators


def _without_object_pass(packed):
    """``packed`` with its object decoding disabled: any consumer that
    reaches ``batch_drive``'s fallback pass fails the test."""
    def refuse():
        raise AssertionError("a consumer fell back to the object pass")

    packed.iter_groups = refuse
    return packed


def _assert_faulted_identical(memory, rate, mode, fu_class=FUClass.IALU,
                              num_modules=NUM_MODULES):
    reference = _faulted_set(rate, mode, fu_class, num_modules)
    drive(memory, list(reference.values()))
    batch = _faulted_set(rate, mode, fu_class, num_modules)
    batch_drive(_without_object_pass(pack_stream(memory.groups())),
                list(batch.values()))
    for key, ref in reference.items():
        mine = batch[key]
        assert mine.totals() == ref.totals(), key
        assert mine.telemetry.collect_counters() \
            == ref.telemetry.collect_counters(), key
        want, got = ref.fault_injector, mine.fault_injector
        assert (got.flips, got.operands_seen) \
            == (want.flips, want.operands_seen), key
        # the RNG itself ends in the same state
        assert got._rng.random() == want._rng.random(), key


class TestFaultViewParity:
    """Faulted evaluators run the kernels: they draw their view through
    ``FaultInjector.corrupt_columns``, steer on it and charge the true
    operands, bit-identical to ``corrupt_view`` on the object path."""

    @settings(max_examples=6, deadline=None)
    @given(loopy_programs(), st.sampled_from(FAULTS))
    def test_random_programs(self, source, fault):
        _assert_faulted_identical(capture(LiveSource(assemble(source))),
                                  *fault)

    @pytest.mark.parametrize("rate,mode", FAULTS)
    def test_integer_workload(self, rate, mode):
        _assert_faulted_identical(_workload_stream("compress"), rate, mode)

    @pytest.mark.parametrize("rate,mode", FAULTS)
    def test_two_modules(self, rate, mode):
        _assert_faulted_identical(_workload_stream("li"), rate, mode,
                                  num_modules=2)

    @pytest.mark.parametrize("rate,mode", FAULTS)
    def test_float_workload(self, rate, mode):
        _assert_faulted_identical(_workload_stream("swim"), rate, mode,
                                  fu_class=FUClass.FPAU)

    def test_filtered_class_draws_nothing(self):
        memory = _workload_stream("compress")
        stats = paper_statistics(FUClass.IALU)

        def build(injector=None):
            policy = make_policy("lut-4", FUClass.IALU, NUM_MODULES,
                                 stats=stats)
            return PolicyEvaluator(FUClass.IALU, NUM_MODULES, policy,
                                   fault_injector=injector)

        clean = build()
        drive(memory, [clean])
        injector = FaultInjector(1.0, fu_classes=[FUClass.FPAU])
        batch = build(injector)
        batch_drive(_without_object_pass(pack_stream(memory.groups())),
                    [batch])
        assert batch.totals() == clean.totals()
        assert (injector.flips, injector.operands_seen) == (0, 0)
        assert injector._rng.random() == FaultInjector(0.0)._rng.random()

    def test_injector_subclass_takes_the_object_path(self):
        from repro.batch import kernels

        class CountingInjector(FaultInjector):
            """A subclass may draw or corrupt differently."""

        memory = _workload_stream("compress")
        packed = pack_stream(memory.groups())
        reference = _faulted_set(0.3, "info",
                                 injector_type=CountingInjector)
        drive(memory, list(reference.values()))
        batch = _faulted_set(0.3, "info", injector_type=CountingInjector)
        for evaluator in batch.values():
            assert kernels._evaluator_kernel(evaluator, packed) is None
        batch_drive(packed, list(batch.values()))
        for key, ref in reference.items():
            assert batch[key].totals() == ref.totals(), key
