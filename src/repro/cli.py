"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's experiments plus the library's
utilities:

====================  ====================================================
``workloads``         list the SPEC95-analogue kernel suite
``simulate``          run one workload on the out-of-order core
``table1/2/3``        regenerate the paper's tables (measured vs paper)
``figure1``           the 3-way routing example
``figure4``           the energy-reduction grid (kernel or synthetic)
``multiplier``        section 4.4 multiplier swapping
``gates``             router logic synthesis (QM-minimised LUT core)
``value-stats``       section 4.2's derived operand statistics
``sensitivity``       profile-input transfer study (compiler swapping)
``verilog``           export the synthesised router as Verilog
``trace``             capture a workload's issue trace to a file
``record``            record a complete post-run trace (final wrong-path
                      flags, config fingerprint, run summary in header)
``replay``            evaluate steering policies on a stored trace
``policies``          list registered policy families and their kernels
``asm``               assemble and run a .s file, dump results
``campaign``          fault-tolerant experiment grid with checkpoint/resume
``faultsweep``        steering savings vs info-bit fault rate
``stats``             run with telemetry, print the metrics table
``trace-export``      export a pipeline trace as Chrome trace-event JSON
====================  ====================================================

Robustness contract: ``KeyboardInterrupt`` (or SIGTERM to a campaign)
exits with code 130 after the campaign's journals have been flushed (a
worker journals every task atomically as it completes, then finalizes
each partially written shard manifest and releases its lease), and
every JSON/report file any command writes goes through the shared
atomic write-temp-then-rename helper — no stale ``.tmp`` file survives
an interrupt at any instant, including mid-write.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.bit_patterns import BitPatternCollector
from .analysis.energy import run_figure4, run_figure4_synthetic
from .analysis.figure1 import evaluate_figure1
from .analysis.module_usage import ModuleUsageCollector
from .analysis.multiplier import run_multiplier_experiment
from .analysis.report import (render_campaign, render_fault_sweep,
                              render_figure4, render_figure4_per_workload,
                              render_multiplier_swapping, render_table1,
                              render_table2, render_table3)
from .analysis.sensitivity import run_sensitivity_suite
from .analysis.value_stats import ValueStatsCollector, render_value_stats
from .batch import ENGINES
from .core import build_lut, make_policy, paper_statistics
from .core.logic import estimate_router_cost, synthesize_lut_logic
from .core.registry import PolicyNameError, REGISTRY
from .core.verilog import export_router
from .core.steering import PolicyEvaluator, SharedEvaluationCoordinator
from .cpu.simulator import Simulator
from .telemetry import (TelemetryConfig, TelemetrySession,
                        validate_chrome_trace)
from .cpu.tracefile import TraceWriter, read_trace_header, replay
from .isa import encoding
from .streams import LiveSource, record
from .isa.assembler import assemble
from .isa.instructions import FUClass
from .runner import (CampaignError, CampaignSpec, DistWorker,
                     atomic_write_json, atomic_write_text, fault_sweep,
                     run_campaign, run_distributed)
from .workloads import all_workloads, workload


def _fu_class(name: str) -> FUClass:
    try:
        return FUClass(name.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown FU class '{name}'")


def _policy_kind(value: str) -> str:
    """argparse type for ``--policies``/``--policy``: any kind the
    registry resolves (kinds are parameterised — ``lut-<bits>`` — so
    validation goes through the family parsers, not a choices= list)."""
    try:
        REGISTRY.resolve(value)
    except PolicyNameError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _job_count(value: str) -> int:
    """argparse type for ``--jobs``: a worker count of at least one."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: '{value}'")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {jobs}")
    return jobs


def _cache_limit(value: str) -> float:
    """argparse type for ``--cache-limit-mb``: a finite size of at least
    0 (0 empties the cache of everything this run did not use)."""
    try:
        limit = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: '{value}'")
    if not math.isfinite(limit) or limit < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite size of at least 0, not {value}")
    return limit


def _selected_workloads(names: Optional[List[str]]):
    if not names:
        return all_workloads()
    return [workload(name) for name in names]


# --- commands -----------------------------------------------------------------

def cmd_workloads(args) -> int:
    print(f"{'name':10s} {'kind':4s} {'SPEC analogue':14s} description")
    print("-" * 76)
    for load in all_workloads():
        print(f"{load.name:10s} {load.kind:4s} {load.spec_analogue:14s}"
              f" {load.description}")
    return 0


def cmd_simulate(args) -> int:
    load = workload(args.workload)
    program = load.build(args.scale)
    sim = Simulator(program)
    result = sim.run()
    load_scale = args.scale or load.default_scale

    class Shim:
        memory = sim.memory

    load.check(program, Shim, load_scale)
    print(f"workload:     {load.name} (scale {load_scale})")
    print(f"instructions: {result.retired_instructions}")
    print(f"cycles:       {result.cycles}  (IPC {result.ipc:.2f})")
    print(f"mispredicts:  {result.branch_mispredictions}"
          f" / {result.branch_lookups} lookups")
    print(f"squashed ops: {result.squashed_ops}")
    print("issue counts: " + ", ".join(
        f"{fu.value}={count}" for fu, count in result.issue_counts.items()
        if count))
    print("architectural check: passed")
    return 0


def cmd_table1(args) -> int:
    ialu = BitPatternCollector(FUClass.IALU)
    fpau = BitPatternCollector(FUClass.FPAU)
    for load in _selected_workloads(args.workloads):
        sim = Simulator(load.build(args.scale))
        sim.add_listener(ialu)
        sim.add_listener(fpau)
        sim.run()
    print(render_table1({FUClass.IALU: ialu, FUClass.FPAU: fpau},
                        compare_paper=not args.no_paper))
    return 0


def cmd_table2(args) -> int:
    usage = ModuleUsageCollector([FUClass.IALU, FUClass.FPAU])
    for load in _selected_workloads(args.workloads):
        sim = Simulator(load.build(args.scale))
        sim.add_listener(usage)
        sim.run()
    print(render_table2(usage, compare_paper=not args.no_paper))
    return 0


def cmd_table3(args) -> int:
    results = run_multiplier_experiment(
        workloads=_selected_workloads(args.workloads), scale=args.scale)
    print(render_table3(results, compare_paper=not args.no_paper))
    return 0


def cmd_figure1(args) -> int:
    result = evaluate_figure1()
    no_swap = evaluate_figure1(allow_swap=False)
    print(f"default routing:            {result.default_energy} switched bits")
    print(f"optimal routing (swap ok):  {result.optimal_energy} bits"
          f" -> {100 * result.saving:.1f}% saving")
    print(f"optimal routing (no swap):  {no_swap.optimal_energy} bits"
          f" -> {100 * no_swap.saving:.1f}% saving")
    print("paper's alternative routing: 57% saving")
    return 0


def cmd_figure4(args) -> int:
    fu_class = _fu_class(args.fu)
    schemes = tuple(args.policies) if args.policies else None
    if args.synthetic:
        kwargs = {"schemes": schemes} if schemes else {}
        panel = run_figure4_synthetic(fu_class, cycles=args.cycles, **kwargs)
        print(render_figure4(panel, title=f"Figure 4 (calibrated synthetic),"
                                          f" {fu_class.value.upper()}"))
    else:
        modes = ("none", "hw", "compiler", "hw+compiler") \
            if args.compiler else ("none", "hw")
        loads = ([workload(name) for name in args.workloads]
                 if args.workloads else None)
        kwargs = {"schemes": schemes} if schemes else {}
        panel = run_figure4(fu_class, workloads=loads, scale=args.scale,
                            stats_source=args.stats, swap_modes=modes,
                            trace_cache_dir=args.cache_dir,
                            engine=args.engine, jobs=args.jobs,
                            trace_cache_limit_mb=args.cache_limit_mb,
                            **kwargs)
        print(render_figure4(panel))
        if args.per_workload:
            print()
            print(render_figure4_per_workload(panel))
        if args.cache_dir:
            # stderr, so two cached runs stay byte-identical on stdout
            print(f"trace cache: {panel.cache_hits} hits,"
                  f" {panel.cache_misses} misses,"
                  f" {panel.simulations} simulations", file=sys.stderr)
    return 0


def cmd_record(args) -> int:
    load = workload(args.workload)
    program = load.build(args.scale)
    fu_classes = [_fu_class(name) for name in args.fu] if args.fu else None
    memory = record(LiveSource(program), args.output, fu_classes=fu_classes)
    result = memory.result
    header = read_trace_header(args.output)
    print(f"simulated {result.retired_instructions} instructions,"
          f" recorded {len(memory)} issue groups to {args.output}")
    print(f"trace v{header['version']}: source {header['source']},"
          f" config {header['config']}")
    return 0


def cmd_multiplier(args) -> int:
    results = run_multiplier_experiment(
        workloads=_selected_workloads(args.workloads), scale=args.scale)
    print(render_table3(results))
    print()
    print(render_multiplier_swapping(results))
    return 0


def cmd_gates(args) -> int:
    fu_class = _fu_class(args.fu)
    stats = paper_statistics(fu_class)
    lut = build_lut(stats, args.modules, args.vector_bits)
    core = synthesize_lut_logic(lut)
    router = estimate_router_cost(lut, args.rs_entries)
    homes = "/".join(f"{h:02b}" for h in lut.homes)
    print(f"{fu_class.value.upper()} {args.vector_bits}-bit LUT"
          f" ({args.modules} modules, homes {homes})")
    print(f"  minimised LUT core:  {core.gates} gates,"
          f" {core.levels} levels, {core.literals} literals")
    print(f"  with forwarding from {args.rs_entries} RS entries:"
          f" {router.gates} gates, {router.levels} levels")
    print("  (paper, 4-bit IALU LUT: 58 gates/6 levels at 8 entries,"
          " 130/8 at 32)")
    from .core.bdd import build_bdd_lut, estimate_bdd_router_cost
    bdd_lut = build_bdd_lut(stats, args.modules, args.vector_bits)
    bdd_cost = estimate_bdd_router_cost(stats, args.modules,
                                        args.vector_bits, args.rs_entries)
    bdd_homes = "/".join(f"{h:02b}" for h in bdd_lut.homes)
    print(f"  BDD family (homes {bdd_homes}): {bdd_cost.nodes} decision"
          f" nodes -> {bdd_cost.gates} gates, {bdd_cost.levels} levels"
          f" with forwarding")
    return 0


def cmd_value_stats(args) -> int:
    int_stats = ValueStatsCollector(FUClass.IALU)
    fp_stats = ValueStatsCollector(FUClass.FPAU)
    for load in _selected_workloads(args.workloads):
        sim = Simulator(load.build(args.scale))
        sim.add_listener(int_stats)
        sim.add_listener(fp_stats)
        sim.run()
    print(render_value_stats(int_stats, fp_stats))
    return 0


def cmd_sensitivity(args) -> int:
    fu_class = _fu_class(args.fu)
    results = run_sensitivity_suite(fu_class, names=args.workloads or None,
                                    train_scale=args.train_scale,
                                    test_scale=args.test_scale)
    print(f"{'workload':10s} {'steer only':>10} {'self-prof':>10}"
          f" {'cross-prof':>10} {'penalty':>8}")
    for name, r in results.items():
        print(f"{name:10s} {100 * r.unswapped_reduction:>9.1f}%"
              f" {100 * r.self_profiled_reduction:>9.1f}%"
              f" {100 * r.cross_profiled_reduction:>9.1f}%"
              f" {100 * r.transfer_penalty:>7.2f}%")
    return 0


def cmd_verilog(args) -> int:
    fu_class = _fu_class(args.fu)
    stats = paper_statistics(fu_class)
    lut = build_lut(stats, args.modules, args.vector_bits)
    text = export_router(lut)
    if args.output:
        atomic_write_text(args.output, text)
        print(f"wrote {len(text.splitlines())} lines to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_trace(args) -> int:
    load = workload(args.workload)
    program = load.build(args.scale)
    fu_classes = [_fu_class(name) for name in args.fu] if args.fu else None
    sim = Simulator(program)
    with TraceWriter(args.output, fu_classes=fu_classes,
                     name=load.name) as writer:
        sim.add_listener(writer)
        result = sim.run()
    print(f"simulated {result.retired_instructions} instructions,"
          f" wrote {writer.groups_written} issue groups to {args.output}")
    return 0


def cmd_replay(args) -> int:
    header = read_trace_header(args.trace)
    fu_class = _fu_class(args.fu)
    stats = paper_statistics(fu_class) if args.stats == "paper" else None
    evaluators = {}
    for kind in args.policies:
        policy = make_policy(kind, fu_class, args.modules,
                             stats=stats or paper_statistics(fu_class))
        evaluators[kind] = PolicyEvaluator(fu_class, args.modules, policy)
    groups = replay(args.trace, evaluators.values())
    print(f"replayed {groups} groups from '{header.get('name')}'")
    baseline = None
    for kind, evaluator in evaluators.items():
        totals = evaluator.totals()
        line = (f"  {kind:10s} {totals.switched_bits:10d} bits"
                f"  ({totals.bits_per_operation:.2f}/op)")
        if kind == "original":
            baseline = totals.switched_bits
        elif baseline:
            line += f"  {100 * (1 - totals.switched_bits / baseline):+.1f}%"
        print(line)
    return 0


def cmd_policies(args) -> int:
    """List registered policy families, parameters, and fused kernels."""
    from .analysis.report import _format_table
    import repro.batch  # noqa: F401  (importing registers batch kernels)
    header = ["family", "syntax", "stats", "swap", "kernels", "grid kinds",
              "description"]
    rows = []
    for family in REGISTRY.families():
        backends = REGISTRY.kernel_backends(family.name)
        rows.append([
            family.name,
            family.syntax,
            "yes" if family.needs_stats else "-",
            "yes" if family.supports_swap else "-",
            ", ".join(backends) if backends else "(object path)",
            ", ".join(family.grid_kinds) if family.grid_kinds else "-",
            family.description,
        ])
    print(_format_table(header, rows, "Registered policy families"))
    print(f"default CLI policies: {', '.join(REGISTRY.default_policies())}")
    print(f"figure-4 grid: {', '.join(REGISTRY.grid_kinds())}")
    return 0


def cmd_asm(args) -> int:
    with open(args.source, "r", encoding="utf-8") as handle:
        source = handle.read()
    program = assemble(source, name=args.source)
    sim = Simulator(program)
    result = sim.run()
    print(f"retired {result.retired_instructions} instructions in"
          f" {result.cycles} cycles (IPC {result.ipc:.2f})")
    for index in range(1, 32):
        value = sim.registers[index]
        if value:
            print(f"  r{index:<2d} = {encoding.to_signed(value):>12d}"
                  f"  (0x{value:08x})")
    for index in range(32, 64):
        value = sim.registers[index]
        if value:
            print(f"  f{index - 32:<2d} = {encoding.bits_to_float(value)!r}")
    return 0


def _campaign_spec(args) -> CampaignSpec:
    if args.workloads:
        names = args.workloads
    else:
        kind = "int" if args.fu in ("ialu", "imult") else "fp"
        names = [load.name for load in all_workloads(kind)]
    configs = {"default": {}}
    if args.configs_json:
        with open(args.configs_json, "r", encoding="utf-8") as handle:
            configs = json.load(handle)
    if args.watchdog is not None:
        for overrides in configs.values():
            overrides.setdefault("watchdog_cycles", args.watchdog)
    if args.max_cycles is not None:
        for overrides in configs.values():
            overrides.setdefault("max_cycles", args.max_cycles)
    return CampaignSpec(workloads=tuple(names),
                        policies=tuple(args.policies),
                        scales=(args.scale,),
                        configs=configs,
                        fault_rates=tuple(args.fault_rates),
                        fault_mode=args.fault_mode,
                        fu=args.fu,
                        seed=args.seed)


def cmd_campaign(args) -> int:
    try:
        if args.join:
            # worker-only: everything (spec, options, shard plan) comes
            # from the published campaign.json in --dir
            worker = DistWorker(args.dir, worker_id=args.worker_id)
            outcome = worker.run()
            print(f"worker {outcome.worker}: {outcome.shards_done} shards"
                  f" done, {outcome.shards_stolen} stolen,"
                  f" {outcome.tasks_done} tasks done,"
                  f" {outcome.tasks_failed} failed")
            return 1 if outcome.tasks_failed else 0
        spec = _campaign_spec(args)
        options = dict(
            shard_size=args.shard_size,
            lease_ttl=args.lease_ttl,
            max_shard_attempts=args.max_shard_attempts,
            executor="inline" if args.inline else "process",
            max_workers=args.max_workers,
            task_timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            trace_cache=not args.no_trace_cache,
            resume=args.resume,
            retry_failed=args.retry_failed)
        if args.coordinator or args.workers:
            result = run_distributed(
                spec, args.dir,
                workers=0 if args.coordinator else args.workers, **options)
        else:
            result = run_campaign(spec, args.dir, limit=args.limit,
                                  **options)
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    pending = [t.task_id for t in spec.tasks()
               if t.task_id not in result.tasks]
    report = render_campaign(spec.policies, result.tasks, pending)
    out_dir = Path(args.dir)
    atomic_write_text(out_dir / "report.txt", report + "\n")
    atomic_write_json(out_dir / "results.json",
                      {"spec": spec.to_dict(), "tasks": result.tasks})
    print(report)
    print(f"campaign: {result.done} done, {result.failed} failed,"
          f" {result.skipped} already journaled,"
          f" {result.remaining} remaining,"
          f" {result.shards_done}/{result.total_shards} shards"
          f" ({result.shards_quarantined} quarantined)"
          f" (manifest: {result.manifest_path})")
    steals = result.counters.get("dist.shards.stolen", 0)
    requeues = result.counters.get("dist.shards.requeued", 0)
    if steals or requeues:
        print(f"fabric: {steals} shards stolen, {requeues} requeued")
    if not result.complete:
        print("resume with: python -m repro campaign ... --resume")
    return 1 if result.failed else 0


def cmd_faultsweep(args) -> int:
    curve = fault_sweep(args.workload, args.rates,
                        fu_class=_fu_class(args.fu),
                        policy_kind=args.policy,
                        scale=args.scale,
                        mode=args.fault_mode,
                        seed=args.seed)
    print(render_fault_sweep(curve, policy=args.policy))
    if args.output:
        atomic_write_json(args.output,
                          {"workload": args.workload, "policy": args.policy,
                           "mode": args.fault_mode,
                           "curve": {str(rate): saving
                                     for rate, saving in curve.items()}})
        print(f"wrote {args.output}")
    return 0


def _telemetry_policies(sim: Simulator, session: TelemetrySession,
                        fu_class: FUClass,
                        kinds: List[str]) -> None:
    """Attach telemetry-reporting policy evaluators to a simulator."""
    if not kinds:
        return
    stats = paper_statistics(fu_class)
    num_modules = sim.config.modules(fu_class)
    coordinator = SharedEvaluationCoordinator(fu_class)
    for kind in kinds:
        policy = make_policy(kind, fu_class, num_modules, stats=stats)
        coordinator.add(PolicyEvaluator(fu_class, num_modules, policy,
                                        telemetry=session))
    sim.add_listener(coordinator)


def cmd_stats(args) -> int:
    load = workload(args.workload)
    program = load.build(args.scale)
    stream = sys.stdout if args.live else None
    session = TelemetrySession(
        TelemetryConfig(metrics=True, sample_interval=args.interval),
        stream=stream)
    sim = Simulator(program, telemetry=session)
    _telemetry_policies(sim, session, _fu_class(args.fu), args.policies)
    result = sim.run()
    print(session.format_metrics(
        title=f"telemetry: {load.name} (scale {args.scale},"
              f" {result.cycles} cycles, IPC {result.ipc:.2f})"))
    print(f"samples: {len(session.samples)}"
          f" (every {args.interval} cycles)")
    if args.jsonl:
        count = session.sampler.write_jsonl(args.jsonl)
        print(f"wrote {count} time-series rows to {args.jsonl}")
    return 0


def cmd_trace_export(args) -> int:
    load = workload(args.workload)
    program = load.build(args.scale)
    session = TelemetrySession(
        TelemetryConfig(metrics=True, sample_interval=args.interval,
                        trace_events=True, trace_buffer=args.buffer))
    sim = Simulator(program, telemetry=session)
    _telemetry_policies(sim, session, _fu_class(args.fu), args.policies)
    sim.run()
    payload = session.chrome_trace(load.name)
    problems = validate_chrome_trace(payload)
    if problems:
        print("trace failed schema validation:", file=sys.stderr)
        for problem in problems[:10]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    atomic_write_json(args.output, payload)
    tracer = session.tracer
    print(f"wrote {len(payload['traceEvents'])} trace events"
          f" ({len(tracer.spans)} spans, {tracer.dropped_spans} dropped)"
          f" to {args.output}")
    print("view: https://ui.perfetto.dev  (Open trace file)"
          " or chrome://tracing")
    return 0


def cmd_serve(args) -> int:
    from .server import ServerConfig, serve_main
    config = ServerConfig(
        host=args.host, port=args.port, cache_dir=args.cache_dir,
        executor=args.executor, max_workers=args.max_workers,
        max_batch=args.max_batch, queue_limit=args.queue_limit,
        request_timeout=args.timeout, drain_grace=args.drain_grace,
        allow_delay=args.allow_delay,
        allowed_policies=tuple(args.policies or ()))
    return serve_main(config)


def cmd_loadtest(args) -> int:
    from .server import loadgen
    serve_args: List[str] = []
    if args.cache_dir:
        serve_args += ["--cache-dir", args.cache_dir]
    return loadgen.run_from_args(args, serve_args=serve_args)


# --- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    from . import __version__
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dynamic Functional Unit Assignment"
                    " for Low Power' (DATE 2003)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale(p):
        p.add_argument("--scale", type=int, default=1,
                       help="workload scale factor (default 1)")

    def add_workloads(p):
        p.add_argument("--workloads", nargs="*",
                       help="workload names (default: full suite)")
        p.add_argument("--no-paper", action="store_true",
                       help="omit the paper's published columns")

    p = sub.add_parser("workloads", help="list the kernel suite")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("simulate", help="run one workload out of order")
    p.add_argument("workload")
    add_scale(p)
    p.set_defaults(func=cmd_simulate)

    for name, func in (("table1", cmd_table1), ("table2", cmd_table2),
                       ("table3", cmd_table3)):
        p = sub.add_parser(name, help=f"regenerate {name}")
        add_scale(p)
        add_workloads(p)
        p.set_defaults(func=func)

    p = sub.add_parser("figure1", help="the 3-way routing example")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("figure4", help="energy reduction grid")
    p.add_argument("fu", choices=["ialu", "fpau"])
    add_scale(p)
    p.add_argument("--synthetic", action="store_true",
                   help="use paper-calibrated synthetic streams")
    p.add_argument("--cycles", type=int, default=15_000,
                   help="synthetic stream length")
    p.add_argument("--stats", choices=["measured", "paper"],
                   default="measured", help="LUT synthesis statistics")
    p.add_argument("--compiler", action="store_true",
                   help="include compiler-swapping regimes")
    p.add_argument("--per-workload", action="store_true",
                   help="also print the per-workload breakdown")
    p.add_argument("--workloads", nargs="*",
                   help="workload names (default: suite for the FU class)")
    p.add_argument("--policies", nargs="*", type=_policy_kind, default=None,
                   help="steering schemes to grid (default: every"
                        " registered family's grid kinds; see"
                        " 'repro policies')")
    p.add_argument("--cache-dir",
                   help="content-addressed trace cache: record streams on"
                        " miss, replay instead of simulating on hit")
    p.add_argument("--cache-limit-mb", type=_cache_limit, default=None,
                   help="prune the trace cache LRU-style past this size"
                        " after the run (entries this run used are never"
                        " evicted)")
    p.add_argument("--engine",
                   choices=ENGINES, default="batch",
                   help="evaluation engine: fused columnar kernels over"
                        " packed streams (batch, the default) or the"
                        " reference object loop (object); both print"
                        " identical bytes")
    p.add_argument("--jobs", type=_job_count, default=1,
                   help="fan per-workload evaluation across N worker"
                        " processes (output is byte-stable for any N)")
    p.set_defaults(func=cmd_figure4)

    p = sub.add_parser("multiplier", help="section 4.4 experiments")
    add_scale(p)
    add_workloads(p)
    p.set_defaults(func=cmd_multiplier)

    p = sub.add_parser("gates", help="router logic synthesis")
    p.add_argument("--fu", default="ialu", choices=["ialu", "fpau"])
    p.add_argument("--vector-bits", type=int, default=4)
    p.add_argument("--modules", type=int, default=4)
    p.add_argument("--rs-entries", type=int, default=8)
    p.set_defaults(func=cmd_gates)

    p = sub.add_parser("value-stats", help="section 4.2 derived statistics")
    add_scale(p)
    add_workloads(p)
    p.set_defaults(func=cmd_value_stats)

    p = sub.add_parser("sensitivity", help="profile-input transfer study")
    p.add_argument("--fu", default="ialu", choices=["ialu", "fpau"])
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--train-scale", type=int, default=1)
    p.add_argument("--test-scale", type=int, default=2)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("verilog", help="export the router as Verilog")
    p.add_argument("--fu", default="ialu", choices=["ialu", "fpau"])
    p.add_argument("--vector-bits", type=int, default=4)
    p.add_argument("--modules", type=int, default=4)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_verilog)

    p = sub.add_parser("trace", help="capture an issue trace")
    p.add_argument("workload")
    p.add_argument("-o", "--output", required=True)
    add_scale(p)
    p.add_argument("--fu", nargs="*",
                   help="FU classes to capture (default: all)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("record",
                       help="record a complete post-run trace (v2: final"
                            " wrong-path flags + run summary)")
    p.add_argument("workload")
    p.add_argument("-o", "--output", required=True)
    add_scale(p)
    p.add_argument("--fu", nargs="*",
                   help="FU classes to record (default: all)")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("replay", help="evaluate policies on a trace")
    p.add_argument("trace")
    p.add_argument("--fu", default="ialu")
    p.add_argument("--modules", type=int, default=4)
    p.add_argument("--policies", nargs="*", type=_policy_kind,
                   default=list(REGISTRY.default_policies()))
    p.add_argument("--stats", choices=["paper"], default="paper")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("policies",
                       help="list registered policy families, their"
                            " parameters, and fused kernel backends")
    p.set_defaults(func=cmd_policies)

    p = sub.add_parser("asm", help="assemble and run a .s file")
    p.add_argument("source")
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("campaign",
                       help="fault-tolerant experiment grid with resume")
    p.add_argument("--dir", required=True,
                   help="campaign directory (manifest, report, results)")
    p.add_argument("--workloads", nargs="*",
                   help="workload names (default: suite matching --fu)")
    p.add_argument("--policies", nargs="*", type=_policy_kind,
                   default=list(REGISTRY.default_policies()))
    p.add_argument("--fu", default="ialu",
                   choices=[fu.value for fu in FUClass])
    add_scale(p)
    p.add_argument("--fault-rates", nargs="*", type=float, default=[0.0],
                   help="info-bit flip rates to sweep (default: 0.0)")
    p.add_argument("--fault-mode", choices=["info", "operand"],
                   default="info")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--configs-json",
                   help="JSON file mapping config name -> MachineConfig"
                        " overrides")
    p.add_argument("--watchdog", type=int, default=None,
                   help="watchdog_cycles applied to every config")
    p.add_argument("--max-cycles", type=int, default=None,
                   help="max_cycles applied to every config")
    p.add_argument("--max-workers", type=int, default=2,
                   help="tasks each worker keeps in flight, each in its"
                        " own process (one at a time with --inline)")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="per-task timeout in seconds")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts per task (exponential backoff)")
    p.add_argument("--backoff", type=float, default=0.5,
                   help="base backoff delay in seconds")
    p.add_argument("--limit", type=int, default=0,
                   help="stop after N newly finished tasks (0 = no limit;"
                        " single-host runs only)")
    p.add_argument("--resume", action="store_true",
                   help="continue an existing campaign in --dir")
    p.add_argument("--retry-failed", action="store_true",
                   help="on resume, re-run tasks recorded as failed")
    p.add_argument("--inline", action="store_true",
                   help="run tasks in-process (no isolation; tests/sweeps)")
    p.add_argument("--no-trace-cache", action="store_true",
                   help="simulate every task instead of replaying"
                        " content-addressed recorded streams")
    dist = p.add_argument_group(
        "distributed", "coordinator/worker fabric over a shared --dir"
        " (leases, work stealing, host-loss recovery; docs/runner.md)")
    dist.add_argument("--workers", type=int, default=0,
                      help="publish the campaign and drive it with N"
                           " forked local worker processes (0 = one"
                           " worker inside this process)")
    dist.add_argument("--coordinator", action="store_true",
                      help="publish the shard queue and merge results, but"
                           " run no local workers (fleet joins via --join)")
    dist.add_argument("--join", action="store_true",
                      help="join the campaign already published in --dir"
                           " as a worker (ignores grid flags)")
    dist.add_argument("--worker-id", default=None,
                      help="stable worker name for --join (default:"
                           " host-pid)")
    dist.add_argument("--shard-size", type=int, default=1,
                      help="tasks per lease-based work unit (a resume"
                           " must use the published size)")
    dist.add_argument("--lease-ttl", type=float, default=15.0,
                      help="seconds before an un-renewed lease is stolen"
                           " (a lease whose process died on this host, in"
                           " this PID namespace, is taken at once)")
    dist.add_argument("--max-shard-attempts", type=int, default=3,
                      help="lease attempts before a shard is quarantined")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("faultsweep",
                       help="steering savings vs info-bit fault rate")
    p.add_argument("workload")
    p.add_argument("--fu", default="ialu", choices=["ialu", "fpau"])
    p.add_argument("--policy", default="lut-4", type=_policy_kind)
    p.add_argument("--rates", nargs="*", type=float,
                   default=[0.0, 0.01, 0.02, 0.05, 0.1])
    p.add_argument("--fault-mode", choices=["info", "operand"],
                   default="info")
    p.add_argument("--seed", type=int, default=0)
    add_scale(p)
    p.add_argument("-o", "--output", help="also write the curve as JSON")
    p.set_defaults(func=cmd_faultsweep)

    p = sub.add_parser("stats",
                       help="run one workload with telemetry and print"
                            " the metrics table")
    p.add_argument("--workload", required=True)
    add_scale(p)
    p.add_argument("--interval", type=int, default=1000,
                   help="time-series sampling interval in cycles")
    p.add_argument("--fu", default="ialu",
                   choices=[fu.value for fu in FUClass])
    p.add_argument("--policies", nargs="*", type=_policy_kind,
                   default=list(REGISTRY.default_policies()[:2]),
                   help="steering policies to score (empty for none;"
                        " default: baseline + the paper's proposal)")
    p.add_argument("--jsonl",
                   help="write the sampled time series to this JSONL file")
    p.add_argument("--live", action="store_true",
                   help="stream each sample row to stdout as it is taken")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("trace-export",
                       help="export a pipeline event trace as Chrome"
                            " trace-event JSON (Perfetto-loadable)")
    p.add_argument("--workload", required=True)
    p.add_argument("-o", "--output", required=True)
    add_scale(p)
    p.add_argument("--interval", type=int, default=200,
                   help="counter-track sampling interval in cycles")
    p.add_argument("--buffer", type=int, default=65_536,
                   help="ring-buffer capacity in spans (oldest evicted)")
    p.add_argument("--fu", default="ialu",
                   choices=[fu.value for fu in FUClass])
    p.add_argument("--policies", nargs="*", type=_policy_kind,
                   default=list(REGISTRY.default_policies()[1:2]),
                   help="policies emitting module-assignment events"
                        " (default: the paper's proposal)")
    p.set_defaults(func=cmd_trace_export)

    p = sub.add_parser("serve",
                       help="run the evaluation server (HTTP/JSON, request"
                            " coalescing, trace-cache backed)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="listening port (0 = OS-assigned; the bound port"
                        " is announced on stdout)")
    p.add_argument("--cache-dir",
                   help="shared trace-cache directory (enables"
                        " cross-process coalescing via TraceCacheLock)")
    p.add_argument("--executor", choices=["pool", "inline"],
                   default="pool",
                   help="pool: crash-isolated process pool (default);"
                        " inline: threads in this process")
    p.add_argument("--max-workers", type=int, default=2,
                   help="concurrent evaluations (pool width)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="max admitted items per pool batch")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="max distinct evaluations in flight before 429")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-request evaluation timeout (seconds)")
    p.add_argument("--drain-grace", type=float, default=30.0,
                   help="seconds SIGTERM waits for in-flight work")
    p.add_argument("--allow-delay", action="store_true",
                   help="honour the test-only delay_ms request field")
    p.add_argument("--policies", nargs="*", type=_policy_kind,
                   default=None,
                   help="restrict which policy kinds this server will"
                        " evaluate (default: any registered kind)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("loadtest",
                       help="load-test a running server (or spawn one)"
                            " and report latency/coalescing/hit-rate")
    from .server.loadgen import add_arguments as _loadgen_arguments
    _loadgen_arguments(p, policy_type=_policy_kind)
    p.add_argument("--cache-dir",
                   help="trace-cache directory for the spawned server")
    p.set_defaults(func=cmd_loadtest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cache_limit_mb", None) is not None \
            and not args.cache_dir:
        parser.error(f"{args.command}: --cache-limit-mb needs --cache-dir")
    if args.command == "campaign" and args.limit \
            and (args.workers or args.coordinator or args.join):
        parser.error("campaign: --limit applies to single-host runs only,"
                     " not --workers, --coordinator or --join")
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # a campaign worker flushes its journals and releases its
        # leases before re-raising (on SIGTERM too), so an interrupt
        # always leaves a resumable campaign; 130 = 128 + SIGINT
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
