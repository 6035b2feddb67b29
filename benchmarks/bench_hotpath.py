#!/usr/bin/env python3
"""Hot-path performance benchmark: simulated cycles/sec and ops/sec.

Runs the out-of-order engine (and the steering evaluation layer) on the
stress-test workloads scaled up to realistic lengths, and reports
throughput so performance regressions on the wakeup / store-queue /
accounting paths are visible from PR to PR.  Unlike the ``bench_*``
pytest drivers, this is a plain script so CI can smoke it directly::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick
    make bench-perf          # writes BENCH_hotpath.json

The scenarios mirror ``tests/cpu/test_simulator_stress.py``: dependent
load/store loops, wrong-path multiplier traffic, and a deep ROB full of
in-flight producers — exactly the paths where a quadratic wakeup or a
linear store scan shows up as wall-clock.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.core.statistics import paper_statistics          # noqa: E402
from repro.runner.atomic import atomic_write_json           # noqa: E402
from repro.core.steering import (OriginalPolicy, PolicyEvaluator,  # noqa: E402
                                 make_policy)
from repro.cpu.config import MachineConfig                  # noqa: E402
from repro.cpu.simulator import Simulator                   # noqa: E402
from repro.isa.assembler import assemble                    # noqa: E402
from repro.isa.instructions import FUClass                  # noqa: E402
from repro.telemetry import TelemetryConfig, TelemetrySession  # noqa: E402


def store_load_loop(iterations: int) -> str:
    """The tiny-machine stress kernel: store/load/accumulate per trip."""
    return f"""
.data
buf: .space 32
.text
    la r1, buf
    li r2, {iterations}
loop:
    mult r3, r2, r2
    sw r3, 0(r1)
    lw r4, 0(r1)
    add r5, r5, r4
    addi r2, r2, -1
    bne r2, r0, loop
    halt
"""


def wrong_path_divides(iterations: int) -> str:
    """Mispredicted loop exits repeatedly issue wrong-path divides."""
    return f"""
.text
    li r1, {iterations}
    li r2, 7
    li r3, 0
loop:
    addi r1, r1, -1
    beq r1, r0, done
    div r4, r2, r1
    mult r3, r2, r2
    j loop
done:
    mult r5, r2, r2
    halt
"""


def wakeup_pressure(iterations: int) -> str:
    """A long dependence fan-out: one producer wakes many consumers
    while a slow divide at the ROB head keeps everything in flight."""
    body = "\n".join(f"    add r{5 + (k % 20)}, r3, r2" for k in range(24))
    return f"""
.data
arr: .word 3, 1, 4, 1, 5, 9, 2, 6
.text
    la r1, arr
    li r2, {iterations}
loop:
    div r3, r2, r2
    lw r4, 0(r1)
{body}
    add r2, r2, r4
    addi r2, r2, -4
    bne r2, r0, loop
    halt
"""


def store_queue_pressure(iterations: int) -> str:
    """Many in-flight stores with dependent loads: exercises
    disambiguation and store-to-load forwarding every cycle."""
    stores = "\n".join(f"    sw r3, {4 * k}(r1)" for k in range(8))
    loads = "\n".join(f"    lw r{10 + k}, {4 * k}(r1)" for k in range(8))
    return f"""
.data
buf: .space 64
.text
    la r1, buf
    li r2, {iterations}
loop:
    add r3, r3, r2
{stores}
{loads}
    add r4, r4, r10
    addi r2, r2, -1
    bne r2, r0, loop
    halt
"""


def deep_machine_config() -> MachineConfig:
    """A wider, deeper machine than the paper's: keeps hundreds of
    operations in flight so super-linear bookkeeping dominates."""
    return MachineConfig(fetch_width=8, dispatch_width=8, retire_width=8,
                         rob_entries=256, rs_entries_per_class=64)


def scenarios(quick: bool):
    scale = 400 if quick else 4000
    default = MachineConfig()
    deep = deep_machine_config()
    return [
        ("store-load-loop", store_load_loop(scale), default),
        ("wrong-path-divides", wrong_path_divides(scale), default),
        ("wakeup-pressure", wakeup_pressure(4 * scale), deep),
        ("store-queue-pressure", store_queue_pressure(scale), deep),
    ]


def run_scenario(name: str, source: str, config: MachineConfig,
                 with_evaluators: bool, telemetry: bool = False) -> dict:
    program = assemble(source)
    # the campaign runner's production telemetry shape: metrics only,
    # no sampling, no trace ring — the cheapest "on" configuration
    session = (TelemetrySession(TelemetryConfig(metrics=True))
               if telemetry else None)
    sim = Simulator(program, config, telemetry=session)
    if with_evaluators:
        stats = paper_statistics(FUClass.IALU)
        modules = config.modules(FUClass.IALU)
        sim.add_listener(PolicyEvaluator(FUClass.IALU, modules,
                                         OriginalPolicy(),
                                         telemetry=session))
        sim.add_listener(PolicyEvaluator(
            FUClass.IALU, modules,
            make_policy("lut-4", FUClass.IALU, modules, stats=stats),
            telemetry=session))
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    return {
        "name": name,
        "cycles": result.cycles,
        "executed_ops": result.executed_ops,
        "wall_seconds": round(elapsed, 6),
        "cycles_per_sec": round(result.cycles / elapsed, 1),
        "ops_per_sec": round(result.executed_ops / elapsed, 1),
    }


def best_of(repeats: int, *args, **kwargs) -> dict:
    best = None
    for _ in range(repeats):
        run = run_scenario(*args, **kwargs)
        if best is None or run["wall_seconds"] < best["wall_seconds"]:
            best = run
    return best


def bench_figure4_replay(quick: bool) -> dict:
    """Wall-clock of a figure-4 panel: all-live legacy loop vs replay.

    The simulate-once/replay-many refactor claims that replaying a
    recorded issue stream through evaluator sets is much cheaper than
    re-simulating the program for each of them.  The *all-live
    baseline* here reproduces the pre-refactor architecture: one
    simulation for the statistics pass plus one fresh simulation per
    swap mode per program version.  The *replay* side is today's
    ``run_figure4`` against a warm trace cache: zero simulations, every
    pass driven from the recorded streams.  Both sides build identical
    evaluators and must land on bit-identical panel cells.
    """
    import shutil
    import tempfile

    from repro.analysis.energy import (_build_evaluators, run_figure4,
                                       statistics_from_sources)
    from repro.compiler import swap_optimize
    from repro.compiler.swap_pass import denser_first_from_swap_case
    from repro.core.info_bits import scheme_for
    from repro.core.swapping import choose_swap_case
    from repro.cpu.config import default_config
    from repro.streams import LiveSource, drive
    from repro.workloads import workload

    names = ["compress", "li"] if quick else ["compress", "li", "go", "cc1"]
    schemes = ("original", "lut-4")
    modes = ("none", "hw", "compiler", "hw+compiler")
    loads = [workload(name) for name in names]
    config = default_config()
    fu = FUClass.IALU
    scheme = scheme_for(fu)
    num_modules = config.modules(fu)

    cache_dir = tempfile.mkdtemp(prefix="bench-trace-cache-")
    try:
        # warm: simulates each program version once, records it, and
        # primes the memoised LUT synthesis both timed sides reuse
        run_figure4(fu, workloads=loads, schemes=schemes, swap_modes=modes,
                    trace_cache_dir=cache_dir)

        # --- all-live baseline: the pre-refactor pass structure -------
        start = time.perf_counter()
        programs = [load.build(None) for load in loads]
        stats, _, _ = statistics_from_sources(
            [LiveSource(program, config) for program in programs],
            fu, config, scheme)
        direction = {fu: denser_first_from_swap_case(choose_swap_case(stats))}
        live_cells: dict = {}
        live_sims = len(programs)  # the statistics pass
        for program in programs:
            versions = {"none": program, "hw": program}
            swapped, _report = swap_optimize(program, denser_first=direction)
            versions["compiler"] = versions["hw+compiler"] = swapped
            for mode in modes:
                evaluators = _build_evaluators(
                    fu, num_modules, stats, scheme, schemes,
                    with_hw_swap=mode in ("hw", "hw+compiler"))
                drive(LiveSource(versions[mode], config),
                      list(evaluators.values()))
                live_sims += 1
                for kind, evaluator in evaluators.items():
                    cell = (kind, mode)
                    live_cells[cell] = live_cells.get(cell, 0) \
                        + evaluator.totals().switched_bits
        live_wall = time.perf_counter() - start

        # --- replay: run_figure4 against the warm cache ---------------
        start = time.perf_counter()
        replayed = run_figure4(fu, workloads=loads, schemes=schemes,
                               swap_modes=modes, trace_cache_dir=cache_dir)
        replay_wall = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    replay_cells = {cell: result.switched_bits
                    for cell, result in replayed.cells.items()}
    if live_cells != replay_cells:
        raise AssertionError(
            "replayed figure-4 cells differ from the all-live baseline")
    return {
        "workloads": names,
        "schemes": list(schemes),
        "swap_modes": list(modes),
        "live_wall_seconds": round(live_wall, 6),
        "live_simulations": live_sims,
        "replay_wall_seconds": round(replay_wall, 6),
        "replay_cache_hits": replayed.cache_hits,
        "replay_simulations": replayed.simulations,
        "speedup": round(live_wall / replay_wall, 2),
    }


def bench_batch_replay(quick: bool, repeats: int = 1) -> dict:
    """Warm-cache figure-4 replay: object path vs columnar batch engine.

    Both sides start from the same fully warm trace cache, so neither
    simulates anything — the comparison isolates the evaluation layer.
    Both memory-map the same pack-file entries.  The *object* side
    rebuilds IssueGroup objects from the columns one group at a time
    and walks them through evaluator method calls; the *batch* side
    runs the fused per-policy kernels over the flat arrays.  The object
    path is the reference oracle: every cell and every statistics row
    must be bit-identical or this benchmark raises.
    """
    import shutil
    import tempfile

    from repro.analysis.energy import run_figure4
    from repro.workloads import workload

    names = ["compress", "li"] if quick else ["compress", "li", "go", "cc1"]
    schemes = ("original", "lut-4")
    modes = ("none", "hw", "compiler", "hw+compiler")
    loads = [workload(name) for name in names]
    fu = FUClass.IALU

    cache_dir = tempfile.mkdtemp(prefix="bench-batch-cache-")
    try:
        # warm: simulates each program version once and writes the
        # pack-file entries both sides replay
        run_figure4(fu, workloads=loads, schemes=schemes, swap_modes=modes,
                    trace_cache_dir=cache_dir, engine="batch")

        object_wall = batch_wall = None
        obj = bat = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            obj = run_figure4(fu, workloads=loads, schemes=schemes,
                              swap_modes=modes, trace_cache_dir=cache_dir,
                              engine="object")
            elapsed = time.perf_counter() - start
            if object_wall is None or elapsed < object_wall:
                object_wall = elapsed
            start = time.perf_counter()
            bat = run_figure4(fu, workloads=loads, schemes=schemes,
                              swap_modes=modes, trace_cache_dir=cache_dir,
                              engine="batch")
            elapsed = time.perf_counter() - start
            if batch_wall is None or elapsed < batch_wall:
                batch_wall = elapsed
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    def _cells(result):
        return {key: (cell.switched_bits, cell.operations,
                      cell.hardware_swaps)
                for key, cell in result.cells.items()}

    if _cells(obj) != _cells(bat) \
            or repr(obj.statistics) != repr(bat.statistics) \
            or obj.per_workload != bat.per_workload:
        raise AssertionError("batch engine diverged from the object-path "
                             "reference oracle")
    return {
        "workloads": names,
        "schemes": list(schemes),
        "swap_modes": list(modes),
        "object_wall_seconds": round(object_wall, 6),
        "batch_wall_seconds": round(batch_wall, 6),
        "object_simulations": obj.simulations,
        "batch_simulations": bat.simulations,
        "batch_speedup": round(object_wall / batch_wall, 2),
    }


def peak_rss_mb() -> float:
    """Process high-water RSS in MiB (ru_maxrss: KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        rss /= 1024
    return rss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (CI smoke run)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs per scenario; the fastest is reported "
                             "(default 3, or 1 with --quick)")
    parser.add_argument("--no-evaluators", action="store_true",
                        help="simulate without steering evaluators attached")
    parser.add_argument("--assert-telemetry-overhead", type=float,
                        default=None, metavar="PCT",
                        help="exit 1 if telemetry-on costs more than PCT%% "
                             "over telemetry-off (within-run comparison, so "
                             "machine speed cancels out)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write results as JSON (e.g. BENCH_hotpath.json)")
    parser.add_argument("--no-figure4", action="store_true",
                        help="skip the figure-4 replay-vs-simulate section")
    parser.add_argument("--assert-replay-speedup", type=float,
                        default=None, metavar="X",
                        help="exit 1 if the warm-cache figure-4 run is not "
                             "at least X times faster than the all-live run")
    parser.add_argument("--assert-batch-speedup", type=float,
                        default=None, metavar="X",
                        help="exit 1 if the batch engine is not at least X "
                             "times faster than the object path on the same "
                             "warm cache")
    parser.add_argument("--assert-peak-rss-mb", type=float,
                        default=None, metavar="MB",
                        help="exit 1 if the benchmark process's peak RSS "
                             "exceeds MB MiB (guards the lazy replay path "
                             "against re-materialising whole streams)")
    args = parser.parse_args(argv)

    if args.repeats is not None:
        repeats = max(1, args.repeats)
    else:
        repeats = 1 if args.quick else 3
    rows = []
    for name, source, config in scenarios(args.quick):
        off = best_of(repeats, name, source, config,
                      with_evaluators=not args.no_evaluators)
        on = best_of(repeats, name, source, config,
                     with_evaluators=not args.no_evaluators, telemetry=True)
        overhead = 100.0 * (on["wall_seconds"] / off["wall_seconds"] - 1.0)
        row = dict(off)
        row["telemetry_on"] = {
            "wall_seconds": on["wall_seconds"],
            "cycles_per_sec": on["cycles_per_sec"],
            "ops_per_sec": on["ops_per_sec"],
        }
        row["telemetry_overhead_pct"] = round(overhead, 2)
        rows.append(row)
        print(f"{row['name']:<24} {row['cycles']:>10} cycles "
              f"{row['wall_seconds']:>9.3f}s "
              f"{row['cycles_per_sec']:>12.0f} cyc/s "
              f"{row['ops_per_sec']:>12.0f} ops/s "
              f"telemetry {overhead:+6.1f}%")

    total_cycles = sum(r["cycles"] for r in rows)
    total_ops = sum(r["executed_ops"] for r in rows)
    total_wall = sum(r["wall_seconds"] for r in rows)
    total_wall_on = sum(r["telemetry_on"]["wall_seconds"] for r in rows)
    total_overhead = 100.0 * (total_wall_on / total_wall - 1.0)
    summary = {
        "quick": args.quick,
        "with_evaluators": not args.no_evaluators,
        "scenarios": rows,
        "total": {
            "cycles": total_cycles,
            "executed_ops": total_ops,
            "wall_seconds": round(total_wall, 6),
            "cycles_per_sec": round(total_cycles / total_wall, 1),
            "ops_per_sec": round(total_ops / total_wall, 1),
            "telemetry_on": {
                "wall_seconds": round(total_wall_on, 6),
                "cycles_per_sec": round(total_cycles / total_wall_on, 1),
                "ops_per_sec": round(total_ops / total_wall_on, 1),
            },
            "telemetry_overhead_pct": round(total_overhead, 2),
        },
    }
    print(f"{'TOTAL':<24} {total_cycles:>10} cycles "
          f"{total_wall:>9.3f}s "
          f"{summary['total']['cycles_per_sec']:>12.0f} cyc/s "
          f"{summary['total']['ops_per_sec']:>12.0f} ops/s "
          f"telemetry {total_overhead:+6.1f}%")
    if not args.no_figure4:
        replay = bench_figure4_replay(args.quick)
        summary["figure4_replay"] = replay
        print(f"{'figure4-replay':<24} all-live"
              f" {replay['live_wall_seconds']:.3f}s"
              f" ({replay['live_simulations']} sims)"
              f"  replay {replay['replay_wall_seconds']:.3f}s"
              f" ({replay['replay_cache_hits']} hits,"
              f" {replay['replay_simulations']} sims)"
              f"  speedup {replay['speedup']:.2f}x")
        batch = bench_batch_replay(args.quick, repeats=repeats)
        summary["figure4_batch"] = batch
        print(f"{'figure4-batch':<24} object"
              f" {batch['object_wall_seconds']:.3f}s"
              f"  batch {batch['batch_wall_seconds']:.3f}s"
              f"  speedup {batch['batch_speedup']:.2f}x")
    summary["peak_rss_mb"] = round(peak_rss_mb(), 1)
    print(f"{'peak-rss':<24} {summary['peak_rss_mb']:.1f} MiB")
    if args.output:
        # write-temp-then-rename: a benchmark killed mid-write must not
        # clobber the previous BENCH_hotpath.json with a torn file
        atomic_write_json(args.output, summary)
        print(f"wrote {args.output}")
    failed = False
    if args.assert_replay_speedup is not None:
        replay = summary.get("figure4_replay")
        if replay is None:
            print("FAIL: --assert-replay-speedup needs the figure-4 "
                  "section (drop --no-figure4)", file=sys.stderr)
            failed = True
        elif replay["speedup"] < args.assert_replay_speedup:
            print(f"FAIL: warm-cache figure-4 speedup {replay['speedup']:.2f}x"
                  f" below the {args.assert_replay_speedup:.1f}x floor",
                  file=sys.stderr)
            failed = True
    if args.assert_batch_speedup is not None:
        batch = summary.get("figure4_batch")
        if batch is None:
            print("FAIL: --assert-batch-speedup needs the figure-4 "
                  "section (drop --no-figure4)", file=sys.stderr)
            failed = True
        elif batch["batch_speedup"] < args.assert_batch_speedup:
            print(f"FAIL: batch-engine speedup {batch['batch_speedup']:.2f}x"
                  f" below the {args.assert_batch_speedup:.1f}x floor",
                  file=sys.stderr)
            failed = True
    if (args.assert_peak_rss_mb is not None
            and summary["peak_rss_mb"] > args.assert_peak_rss_mb):
        print(f"FAIL: peak RSS {summary['peak_rss_mb']:.1f} MiB exceeds "
              f"the {args.assert_peak_rss_mb:.1f} MiB budget",
              file=sys.stderr)
        failed = True
    if (args.assert_telemetry_overhead is not None
            and total_overhead > args.assert_telemetry_overhead):
        print(f"FAIL: telemetry overhead {total_overhead:.1f}% exceeds "
              f"{args.assert_telemetry_overhead:.1f}% budget",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
