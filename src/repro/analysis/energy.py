"""Energy-reduction experiments: the driver behind Figure 4.

For one FU class, every steering scheme in the paper is evaluated under
three swapping regimes against the same workload suite:

* ``none`` — the scheme alone;
* ``hw`` — plus dynamic hardware swapping (case-based for LUT/Original,
  integrated into the cost matrix for the Hamming policies, exactly as
  Figure 2 allows);
* ``compiler`` / ``hw+compiler`` — the suite is first rewritten by the
  profile-guided static swap pass, then evaluated (optionally with the
  hardware swapper on top).

:func:`run_figure4` is one driver for every job count.  It builds a
*plan* (config, workloads, scheme, one payload per workload), runs a
*statistics task* per workload (Table 1/2 collector partials, folded in
workload order with the collectors' ``merge()``), then a *cells task*
per workload (the plain version and its compiler rewrite through every
evaluator set, returning integer cells and the trace-cache keys it
read), and ends in one ordered merge that fills the panel, its
provenance counters and the prune-protect list.  ``jobs=1`` runs the
tasks in process; ``jobs > 1`` runs the same tasks on a process pool
(:mod:`repro.analysis.parallel`).

Each *program version* (a workload, or its compiler-swapped rewrite) is
simulated exactly once: the issue stream is captured through
:mod:`repro.streams` and then *replayed* — for the statistics pass and
for every (scheme, swap) evaluator cell — because evaluation is far
cheaper than simulation and a captured stream is bit-identical to live
listening.  With ``trace_cache_dir`` set, each capture is persisted as
one pack file under a content-addressed key (program + machine-config
fingerprints) and recorded under ``TraceCacheLock``, so later runs skip
simulation entirely and concurrent runs sharing the cache simulate each
version once between them.  Reductions are reported against the
paper's baseline: ``original`` steering, no swapping, unmodified
programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..batch import ENGINES, drive_stream
from ..compiler import denser_first_from_swap_case, swap_optimize
from ..cpu.config import MachineConfig, default_config
from ..core.info_bits import InfoBitScheme, scheme_for
from ..core.registry import REGISTRY
from ..core.statistics import CaseStatistics, paper_statistics
from ..core.steering import PolicyEvaluator, make_policy
from ..core.swapping import HardwareSwapper, choose_swap_case
from ..isa.instructions import FUClass
from ..isa.program import Program
from ..streams import (IssueSource, LiveSource, PackedSource, PathLike,
                       SyntheticSource, cache_entry_path, cached_or_record,
                       capture, capture_packed, prune_trace_cache,
                       trace_cache_key)
from ..workloads.base import Workload, float_suite, integer_suite
from .bit_patterns import BitPatternCollector
from .module_usage import ModuleUsageCollector

#: the default figure-4 grid, derived from the policy registry: every
#: family's grid_kinds in grid order (so registering a family with grid
#: metadata adds its rows here with no edit)
SCHEMES = REGISTRY.grid_kinds()
#: swap regimes in render order (a server request may ask for any)
SWAP_MODES = ("none", "hw", "compiler", "hw+compiler")

CellKey = Tuple[str, str]  # (scheme, swap mode)


@dataclass
class CellResult:
    """Accumulated energy for one (scheme, swap) grid cell."""

    scheme: str
    swap: str
    switched_bits: int = 0
    operations: int = 0
    hardware_swaps: int = 0


@dataclass
class Figure4Result:
    """One Figure 4 panel: grid of energy reductions for an FU class."""

    fu_class: FUClass
    workload_names: List[str]
    statistics: CaseStatistics
    cells: Dict[CellKey, CellResult] = field(default_factory=dict)
    # per-workload switched bits: workload -> cell -> bits
    per_workload: Dict[str, Dict[CellKey, int]] = field(default_factory=dict)
    # provenance of the issue streams this panel was evaluated on:
    # simulations actually run, plus trace-cache hits/misses when a
    # cache directory was in play (hits + misses = program versions)
    simulations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def baseline_bits(self) -> int:
        return self.cells[("original", "none")].switched_bits

    def add(self, workload: str, cells: Dict[CellKey, CellResult]) -> None:
        """Fold one workload's cells into the panel totals and into its
        per-workload breakdown."""
        breakdown = self.per_workload.setdefault(workload, {})
        for key, cell in cells.items():
            total = self.cells.setdefault(key, CellResult(*key))
            total.switched_bits += cell.switched_bits
            total.operations += cell.operations
            total.hardware_swaps += cell.hardware_swaps
            breakdown[key] = breakdown.get(key, 0) + cell.switched_bits

    def workload_reduction(self, name: str, scheme: str,
                           swap: str = "none") -> float:
        """Reduction of one (scheme, swap) cell on one workload alone."""
        cells = self.per_workload[name]
        baseline = cells[("original", "none")]
        if not baseline:
            return 0.0
        return 1.0 - cells[(scheme, swap)] / baseline

    def reduction(self, scheme: str, swap: str = "none") -> float:
        """Fractional reduction vs the Original/no-swap baseline."""
        baseline = self.baseline_bits
        if not baseline:
            return 0.0
        return 1.0 - self.cells[(scheme, swap)].switched_bits / baseline

    def grid(self) -> List[Tuple[str, Dict[str, float]]]:
        """Rows of (scheme, {swap mode: reduction}) for reporting.

        Rows are the schemes actually evaluated (not the module-level
        default), ordered by the registry's grid order so custom
        ``schemes=`` runs render consistently.
        """
        present: List[str] = []
        for scheme, _swap in self.cells:
            if scheme not in present:
                present.append(scheme)
        present.sort(key=REGISTRY.grid_sort_key)
        rows = []
        for scheme in present:
            row = {swap: self.reduction(scheme, swap)
                   for swap in SWAP_MODES if (scheme, swap) in self.cells}
            rows.append((scheme, row))
        return rows


def measure_statistics(programs: Sequence[Program],
                       fu_class: FUClass,
                       config: Optional[MachineConfig] = None,
                       scheme: Optional[InfoBitScheme] = None
                       ) -> Tuple[CaseStatistics, BitPatternCollector,
                                  ModuleUsageCollector]:
    """Simulate the suite once to measure Table 1/2 style statistics."""
    config = config or default_config()
    sources = [LiveSource(program, config) for program in programs]
    return statistics_from_sources(sources, fu_class, config, scheme)


def statistics_from_sources(sources: Sequence[IssueSource],
                            fu_class: FUClass,
                            config: Optional[MachineConfig] = None,
                            scheme: Optional[InfoBitScheme] = None
                            ) -> Tuple[CaseStatistics, BitPatternCollector,
                                       ModuleUsageCollector]:
    """Measure Table 1/2 statistics from any issue sources — live,
    captured, replayed, or synthetic."""
    config = config or default_config()
    patterns = BitPatternCollector(fu_class, scheme=scheme)
    usage = ModuleUsageCollector([fu_class])
    for source in sources:
        # packed streams go through the fused statistics kernels,
        # object streams through the classic loop — same totals either
        # way (tests/batch/test_parity.py)
        drive_stream(source, [patterns, usage])
    return _case_statistics(patterns, usage, config), patterns, usage


def _case_statistics(patterns: BitPatternCollector,
                     usage: ModuleUsageCollector,
                     config: MachineConfig) -> CaseStatistics:
    """Bundle (possibly merged) Table 1/2 collectors into statistics."""
    fu_class = patterns.fu_class
    distribution = usage.distribution(fu_class,
                                      max_width=config.modules(fu_class))
    return patterns.to_statistics(distribution)


def _captured_stream(program: Program, config: MachineConfig,
                     fu_class: FUClass, cache_dir, engine: str = "object",
                     key: Optional[str] = None) -> Tuple[IssueSource, bool]:
    """One issue stream per program version, simulated at most once.

    Without a cache directory this is a plain in-memory capture (one
    simulation).  With one, the stream is the cache entry under ``key``
    fetched through :func:`repro.streams.cached_or_record`: a hit
    memory-maps the entry's pack file, and a miss simulates and writes
    it under ``TraceCacheLock``, so across processes sharing the
    directory one records and the rest replay.  Returns
    ``(stream, cache_hit)``.

    The ``"batch"`` engine gets a
    :class:`~repro.batch.columns.PackedTrace` for the fused kernels.
    ``"object"``, the reference path, gets the classic decoded stream:
    the live capture, or the cache entry rebuilt one group at a time
    (:class:`~repro.streams.PackedSource`), so peak RSS stays flat
    however long the trace is.
    """
    fu_classes = (fu_class,)
    if cache_dir is None:
        if engine == "batch":
            return capture_packed(program, config, fu_classes), False
        return capture(LiveSource(program, config), fu_classes), False
    packed, state = cached_or_record(program, config, cache_dir, fu_classes,
                                     key=key)
    stream = packed if engine == "batch" else PackedSource(packed)
    return stream, state == "hit"


def _build_evaluators(fu_class: FUClass, num_modules: int,
                      stats: CaseStatistics, scheme: InfoBitScheme,
                      schemes: Sequence[str], with_hw_swap: bool
                      ) -> Dict[str, PolicyEvaluator]:
    """One evaluator per scheme for a single program pass."""
    swap_case = choose_swap_case(stats)
    evaluators: Dict[str, PolicyEvaluator] = {}
    for kind in schemes:
        family, _params = REGISTRY.resolve(kind)
        if family.supports_swap:
            # the matcher itself weighs router swaps (section 4.1/4.2)
            policy = make_policy(kind, fu_class, num_modules, stats=stats,
                                 scheme=scheme, allow_swap=with_hw_swap)
            pre_swapper = None
        else:
            policy = make_policy(kind, fu_class, num_modules, stats=stats,
                                 scheme=scheme)
            pre_swapper = (HardwareSwapper(scheme, swap_case)
                           if with_hw_swap else None)
        evaluators[kind] = PolicyEvaluator(fu_class, num_modules, policy,
                                           scheme=scheme,
                                           pre_swapper=pre_swapper)
    return evaluators


def _evaluate_modes(stream: IssueSource, fu_class: FUClass,
                    num_modules: int, stats: CaseStatistics,
                    scheme: InfoBitScheme, schemes: Sequence[str],
                    modes: Sequence[str]) -> Dict[CellKey, CellResult]:
    """Replay one stream through an evaluator set per swap mode in
    ``modes``, all in one pass — no simulation happens here."""
    per_mode = {mode: _build_evaluators(fu_class, num_modules, stats, scheme,
                                        schemes,
                                        with_hw_swap=mode in ("hw",
                                                              "hw+compiler"))
                for mode in modes}
    drive_stream(stream, [evaluator for evaluators in per_mode.values()
                          for evaluator in evaluators.values()])
    cells: Dict[CellKey, CellResult] = {}
    for mode, evaluators in per_mode.items():
        for kind, evaluator in evaluators.items():
            totals = evaluator.totals()
            cells[(kind, mode)] = CellResult(kind, mode, totals.switched_bits,
                                             totals.operations,
                                             totals.hardware_swaps)
    return cells


# ----- the one figure-4 driver: plan, per-workload tasks, ordered merge -------


@dataclass(frozen=True)
class _Plan:
    """One panel's inputs, shared by every per-workload task.

    Pool tasks receive it in their payload.  ``scheme`` stays ``None``
    for the FU class's paper scheme: schemes hold lambdas and are
    identity-compared singletons, so each process resolves its own.
    """

    fu_class: FUClass
    workloads: Tuple[Workload, ...]
    scale: Optional[int]
    config: MachineConfig
    stats_source: str
    schemes: Tuple[str, ...]
    swap_modes: Tuple[str, ...]
    scheme: Optional[InfoBitScheme]
    engine: str
    cache_dir: Optional[PathLike]
    stats: Optional[CaseStatistics] = None  # fixed before the cells tasks

    def payloads(self) -> List[Tuple["_Plan", Workload]]:
        """One task payload per workload, in workload order."""
        return [(self, load) for load in self.workloads]


#: ``run(task, payloads)`` returns ``task``'s outcomes in payload order
TaskRunner = Callable[[Callable[..., Dict[str, Any]], List[Any]],
                      List[Dict[str, Any]]]

#: streams a run already holds, by trace-cache key: (stream, cache_hit)
HeldStreams = Dict[str, Tuple[IssueSource, bool]]


def _plan(fu_class: FUClass, workloads: Optional[Iterable[Workload]],
          scale: Optional[int], config: Optional[MachineConfig],
          stats_source: str, schemes: Sequence[str],
          swap_modes: Sequence[str], scheme: Optional[InfoBitScheme],
          engine: str, cache_dir: Optional[PathLike]) -> _Plan:
    """Check the arguments and fill in the defaults."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, not {engine!r}")
    if stats_source not in ("measured", "paper"):
        raise ValueError("stats_source must be 'measured' or 'paper'")
    if workloads is None:
        workloads = (integer_suite() if fu_class is FUClass.IALU
                     else float_suite())
    return _Plan(fu_class=fu_class, workloads=tuple(workloads), scale=scale,
                 config=config or default_config(),
                 stats_source=stats_source, schemes=tuple(schemes),
                 swap_modes=tuple(swap_modes), scheme=scheme, engine=engine,
                 cache_dir=cache_dir)


def _fetch(plan: _Plan, program: Program, held: Optional[HeldStreams]
           ) -> Tuple[IssueSource, bool, str]:
    """A program version's ``(stream, cache_hit, key)``: the stream this
    run already holds under its key, else a fresh fetch."""
    key = trace_cache_key(program, plan.config, (plan.fu_class,))
    if held is not None and key in held:
        return (*held.pop(key), key)
    stream, hit = _captured_stream(program, plan.config, plan.fu_class,
                                   plan.cache_dir, plan.engine, key)
    return stream, hit, key


def _stats_task(payload: Tuple[_Plan, Workload],
                held: Optional[HeldStreams] = None) -> Dict[str, Any]:
    """One workload's Table 1/2 collector partials.

    In process (``held`` given), the stream is left in ``held`` for the
    workload's cells task, so it is fetched once per run.
    """
    plan, load = payload
    stream, hit, key = _fetch(plan, load.build(plan.scale), held)
    if held is not None:
        held[key] = (stream, hit)
    _, patterns, usage = statistics_from_sources(
        [stream], plan.fu_class, plan.config, plan.scheme)
    return {"patterns": patterns, "usage": usage, "streams": [(key, hit)]}


def _cells_task(payload: Tuple[_Plan, Workload],
                held: Optional[HeldStreams] = None) -> Dict[str, Any]:
    """One workload through the (scheme × swap) grid: its plain version
    for ``none``/``hw``, its compiler rewrite for the compiler regimes."""
    plan, load = payload
    fu_class, stats = plan.fu_class, plan.stats
    scheme = plan.scheme or scheme_for(fu_class)
    num_modules = plan.config.modules(fu_class)
    program = load.build(plan.scale)
    stream, hit, key = _fetch(plan, program, held)
    streams = [(key, hit)]
    plain_modes = [m for m in ("none", "hw") if m in plan.swap_modes]
    if "none" not in plain_modes:
        plain_modes.append("none")  # the baseline cell is always needed
    cells = _evaluate_modes(stream, fu_class, num_modules, stats, scheme,
                            plan.schemes, plain_modes)
    compiler_modes = [m for m in ("compiler", "hw+compiler")
                      if m in plan.swap_modes]
    if compiler_modes:
        # the compiler must canonicalise in the same direction the
        # hardware swap rule implies, or the two mechanisms fight
        direction = {fu_class:
                     denser_first_from_swap_case(choose_swap_case(stats))}
        swapped, report = swap_optimize(program, denser_first=direction)
        if report.swapped:
            # the rewritten program is a distinct version (different
            # instruction content, so a different cache key); a rewrite
            # that swapped nothing replays the plain stream
            stream, hit, key = _fetch(plan, swapped, held)
            streams.append((key, hit))
        cells.update(_evaluate_modes(stream, fu_class, num_modules, stats,
                                     scheme, plan.schemes, compiler_modes))
    return {"cells": cells, "streams": streams}


def _run_plan(plan: _Plan, run: TaskRunner, report_cache: bool,
              trace_cache_limit_mb: Optional[float]) -> Figure4Result:
    """Statistics tasks, cells tasks, then one merge in workload order —
    never arrival order, so the panel is the same for any job count.

    Between the two task sets, the panel's policies are built once in
    this process: on a pool, every cells task forks after LUT synthesis
    has filled its per-process memos; in process, the cells tasks'
    synthesis is a memo hit either way.

    ``report_cache`` is false when ``plan.cache_dir`` is a pool run's
    private scratch cache: its hits and misses are not the caller's.
    """
    stats_outcomes: List[Dict[str, Any]] = []
    if plan.stats_source == "paper":
        stats = paper_statistics(plan.fu_class)
    else:
        stats_outcomes = run(_stats_task, plan.payloads())
        patterns = BitPatternCollector(plan.fu_class, scheme=plan.scheme)
        usage = ModuleUsageCollector([plan.fu_class])
        for outcome in stats_outcomes:
            patterns.merge(outcome["patterns"])
            usage.merge(outcome["usage"])
        stats = _case_statistics(patterns, usage, plan.config)
    plan = replace(plan, stats=stats)
    # the panel's LUT synthesis, once, before the cells tasks fork
    scheme = plan.scheme or scheme_for(plan.fu_class)
    for kind in plan.schemes:
        make_policy(kind, plan.fu_class, plan.config.modules(plan.fu_class),
                    stats=stats, scheme=scheme)
    cell_outcomes = run(_cells_task, plan.payloads())

    result = Figure4Result(fu_class=plan.fu_class,
                           workload_names=[w.name for w in plan.workloads],
                           statistics=stats)
    for load, outcome in zip(plan.workloads, cell_outcomes):
        result.add(load.name, outcome["cells"])
    # a version's first fetch decides its provenance: a pool cells task
    # re-reads the entry its statistics task recorded
    first_fetch: Dict[str, bool] = {}
    for outcome in stats_outcomes + cell_outcomes:
        for key, hit in outcome["streams"]:
            first_fetch.setdefault(key, hit)
    result.simulations = sum(not hit for hit in first_fetch.values())
    if report_cache:
        result.cache_hits = len(first_fetch) - result.simulations
        result.cache_misses = result.simulations
        if trace_cache_limit_mb is not None:
            protect = [cache_entry_path(plan.cache_dir, key)
                       for key in first_fetch]
            prune_trace_cache(plan.cache_dir, trace_cache_limit_mb,
                              protect=protect)
    return result


def run_figure4(fu_class: FUClass,
                workloads: Optional[Iterable[Workload]] = None,
                scale: Optional[int] = None,
                config: Optional[MachineConfig] = None,
                stats_source: str = "measured",
                schemes: Sequence[str] = SCHEMES,
                swap_modes: Sequence[str] = ("none", "hw", "hw+compiler"),
                scheme: Optional[InfoBitScheme] = None,
                trace_cache_dir=None,
                engine: str = "batch",
                jobs: int = 1,
                trace_cache_limit_mb: Optional[float] = None
                ) -> Figure4Result:
    """Reproduce one panel of Figure 4.

    ``stats_source`` selects where the LUT-synthesis statistics come
    from: ``"measured"`` (a profiling pass over the suite, the
    self-consistent default) or ``"paper"`` (the published Table 1/2).

    Each program version is simulated exactly once; the captured stream
    is replayed for the statistics pass and every evaluator set.  With
    ``trace_cache_dir`` the captures are persisted content-addressed
    (recorded under ``TraceCacheLock``), so a rerun with unchanged
    programs and machine config simulates nothing at all
    (``result.cache_hits`` / ``cache_misses`` report what happened;
    ``result.simulations`` counts actual simulator runs).
    ``trace_cache_limit_mb`` prunes the cache LRU-style after the run,
    never evicting an entry this run just used.

    ``engine`` picks the evaluation path: ``"batch"`` (default) runs
    the fused columnar kernels over packed streams; ``"object"`` is the
    classic decoded-stream loop, kept as the reference oracle the
    parity tests compare against.  Both produce bit-identical results.
    ``jobs`` > 1 runs the per-workload tasks on a process pool over the
    trace cache (a temporary one without ``trace_cache_dir``); results
    merge in workload order, so the output is byte-stable regardless
    of the job count.
    """
    if jobs > 1:
        from .parallel import ParallelFigureRunner
        return ParallelFigureRunner(jobs=jobs).run_figure4(
            fu_class, workloads=workloads, scale=scale, config=config,
            stats_source=stats_source, schemes=schemes,
            swap_modes=swap_modes, scheme=scheme,
            trace_cache_dir=trace_cache_dir, engine=engine,
            trace_cache_limit_mb=trace_cache_limit_mb)
    plan = _plan(fu_class, workloads, scale, config, stats_source, schemes,
                 swap_modes, scheme, engine, trace_cache_dir)
    # in process, each statistics task hands its stream to the cells
    # task: no second fetch, and without a cache dir nothing is written
    held: HeldStreams = {}
    return _run_plan(plan,
                     lambda task, payloads: [task(p, held) for p in payloads],
                     trace_cache_dir is not None, trace_cache_limit_mb)


def run_figure4_synthetic(fu_class: FUClass,
                          cycles: int = 20_000,
                          stats: Optional[CaseStatistics] = None,
                          num_modules: int = 4,
                          operand_mode: str = "iid",
                          seed: int = 0,
                          schemes: Sequence[str] = SCHEMES,
                          swap_modes: Sequence[str] = ("none", "hw"),
                          scheme: Optional[InfoBitScheme] = None
                          ) -> Figure4Result:
    """Figure 4 on a synthetic stream calibrated to given statistics.

    By default the stream is drawn from the paper's own Table 1 and
    Table 2 distributions, so this is the *calibration* reproduction:
    the policies see operand statistics identical to the published
    ones, independent of how closely our kernels match SPEC 95.
    Compiler swapping needs a program to rewrite, so only ``none`` and
    ``hw`` regimes apply here.
    """
    if any("compiler" in mode for mode in swap_modes):
        raise ValueError("compiler swapping needs real programs; use"
                         " run_figure4 for compiler regimes")
    stats = stats or paper_statistics(fu_class)
    scheme = scheme or scheme_for(fu_class)
    source = SyntheticSource(stats, cycles, num_modules=num_modules,
                             operand_mode=operand_mode, seed=seed)
    result = Figure4Result(fu_class=fu_class, workload_names=[source.name],
                           statistics=stats)
    modes = list(swap_modes)
    if "none" not in modes:
        modes.append("none")
    result.add(source.name, _evaluate_modes(source, fu_class, num_modules,
                                            stats, scheme, schemes, modes))
    return result


def chip_level_estimate(ialu: Figure4Result, fpau: Figure4Result,
                        scheme: str = "lut-4", swap: str = "hw",
                        exec_fraction: float = 0.22) -> float:
    """Whole-chip power-reduction estimate, as in the paper's intro.

    The execution units' share of chip power (~22% per Wattch) is split
    between the IALU and FPAU in proportion to their switched-bit
    baselines, and each side contributes its measured reduction.
    """
    ialu_base = ialu.baseline_bits
    fpau_base = fpau.baseline_bits
    total = ialu_base + fpau_base
    if not total:
        return 0.0
    blended = (ialu.reduction(scheme, swap) * ialu_base
               + fpau.reduction(scheme, swap) * fpau_base) / total
    return exec_fraction * blended
