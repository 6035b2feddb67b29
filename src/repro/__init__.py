"""repro — reproduction of *Dynamic Functional Unit Assignment for Low
Power* (Haga, Reeves, Barua, Marculescu; DATE 2003).

The package is layered bottom-up:

* :mod:`repro.isa` — a MIPS-like mini ISA with a two-pass assembler;
* :mod:`repro.cpu` — an out-of-order Tomasulo cycle simulator (the
  SimpleScalar ``sim-outorder`` stand-in) emitting per-cycle operand
  issue groups;
* :mod:`repro.core` — the paper's contribution: information bits, the
  Hamming-distance power model, steering policies (Full/1-bit Hamming,
  LUT, Original), LUT synthesis, and operand swapping;
* :mod:`repro.compiler` — profile-guided static operand swapping;
* :mod:`repro.workloads` — SPEC95-analogue kernels and calibrated
  statistical stream generators;
* :mod:`repro.analysis` — Table 1/2/3 collectors, the Figure 4 energy
  experiment driver, and report rendering;
* :mod:`repro.telemetry` — metrics registry, time-series sampling, and
  Chrome-trace pipeline event export (stdlib-only, importable from
  every other layer).

Quick start::

    from repro import assemble, Simulator, PolicyEvaluator, make_policy
    from repro.core import paper_statistics
    from repro.isa.instructions import FUClass

    program = assemble(SOURCE)
    stats = paper_statistics(FUClass.IALU)
    policy = make_policy("lut-4", FUClass.IALU, 4, stats=stats)
    evaluator = PolicyEvaluator(FUClass.IALU, 4, policy)
    sim = Simulator(program)
    sim.add_listener(evaluator)
    sim.run()
    print(evaluator.totals().bits_per_operation)
"""

from . import (analysis, compiler, core, cpu, isa, runner, streams, telemetry,
               workloads)
from .analysis import (chip_level_estimate, run_figure4,
                       run_multiplier_experiment)
from .core import (FUPowerModel, HardwareSwapper, LUTPolicy,
                   MultiplierSwapper, PolicyEvaluator, SteeringLUT,
                   build_lut, make_policy, paper_statistics)
from .cpu import (MachineConfig, Simulator, TraceCollector, default_config,
                  run_program, simulate)
from .isa import Program, assemble
from .runner import CampaignSpec, FaultInjector, fault_sweep, run_campaign
from .streams import (IssueSource, LiveSource, MemorySource, ReplaySource,
                      SyntheticSource, capture, drive, record)
from .telemetry import (MetricsRegistry, PipelineTracer, TelemetryConfig,
                        TelemetrySession, validate_chrome_trace)
from .workloads import SyntheticStream, all_workloads, workload

# single source of truth is the installed distribution metadata
# (pyproject.toml); the literal fallback covers PYTHONPATH=src runs of
# an uninstalled checkout and must match pyproject's version field
try:
    from importlib.metadata import PackageNotFoundError as _PkgNotFound
    from importlib.metadata import version as _dist_version
    __version__ = _dist_version("repro")
except _PkgNotFound:
    __version__ = "1.0.0"
del _PkgNotFound, _dist_version

__all__ = [
    "analysis", "compiler", "core", "cpu", "isa", "runner", "streams",
    "telemetry", "workloads",
    "IssueSource", "LiveSource", "MemorySource", "ReplaySource",
    "SyntheticSource", "capture", "drive", "record",
    "CampaignSpec", "FaultInjector", "fault_sweep", "run_campaign",
    "MetricsRegistry", "PipelineTracer", "TelemetryConfig",
    "TelemetrySession", "validate_chrome_trace",
    "chip_level_estimate", "run_figure4", "run_multiplier_experiment",
    "FUPowerModel", "HardwareSwapper", "LUTPolicy", "MultiplierSwapper",
    "PolicyEvaluator", "SteeringLUT", "build_lut", "make_policy",
    "paper_statistics",
    "MachineConfig", "Simulator", "TraceCollector", "default_config",
    "run_program", "simulate",
    "Program", "assemble",
    "SyntheticStream", "all_workloads", "workload",
    "__version__",
]
