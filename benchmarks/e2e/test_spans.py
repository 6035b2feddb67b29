"""Span recording, self time, the wrapper installer and layer metrics."""

import os
import types

import pytest

from layers import (_kernel_factory_wrapper, coverage, layer_metrics,
                    span_problems)
from spans import (Recorder, chrome_trace, install, load_spans, self_times,
                   timed)


def _span(ident, start, end, parent=None, pid=1, name="x", attrs=None,
          link=None):
    return {"name": name, "id": ident, "parent": parent, "link": link,
            "pid": pid, "tid": pid, "iter": "i", "start": start, "end": end,
            "attrs": attrs or {}}


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent="root"),
        _span("a1", 2.0, 3.0, parent="a"),
        _span("b", 5.0, 6.0, parent="root"),
        # a pool child's span overlaps the root but is not its child
        _span("other", 0.5, 9.5, pid=2),
    ]
    selfs = self_times(spans)
    assert selfs["root"] == 6.0
    assert selfs["a"] == 2.0
    assert selfs["a1"] == 1.0
    assert selfs["other"] == 9.0


def test_coverage_leaves_driver_self_time_unexplained():
    spans = [
        _span("m", 0.0, 10.0, name="cli.main"),
        _span("f", 0.5, 9.5, parent="m", name="analysis.figure4"),
        _span("p", 1.0, 7.0, parent="f", name="runner.pool"),
        _span("t1", 1.5, 5.5, pid=2, name="runner.task", link="p"),
        _span("t2", 2.0, 4.0, pid=3, name="runner.task", link="p"),
        _span("s", 2.0, 5.0, parent="t1", pid=2, name="cpu.simulate"),
        _span("r", 8.0, 9.0, parent="f", name="analysis.render"),
    ]
    # in-process: 10 + 4 + 2 s of roots, minus the 4 s the pool waited
    # for its tasks; explained: 3 s simulating and 1 s rendering
    assert coverage(spans) == pytest.approx(4.0 / 12.0)


def test_recorder_nests_spans_and_writes_when_the_outermost_closes(tmp_path):
    recorder = Recorder(str(tmp_path), iteration="it7")
    inner = timed(recorder, "inner", lambda x: x * 2,
                  attrs=lambda result, args, kwargs: {"out": result})
    outer = timed(recorder, "outer", lambda: inner(21))
    assert outer() == 42
    spans = {s["name"]: s for s in load_spans(tmp_path)}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["inner"]["attrs"] == {"out": 42}
    assert spans["outer"]["iter"] == spans["inner"]["iter"] == "it7"
    # a broken attribute reader is recorded, never raised into the program
    broken = timed(recorder, "broken", lambda: 1,
                   attrs=lambda result, args, kwargs: {"v": 1 / 0})
    assert broken() == 1
    assert span_problems(load_spans(tmp_path)) == [
        "broken: ZeroDivisionError('division by zero')"]


def test_forked_child_starts_empty_and_links_to_the_forking_span(tmp_path):
    recorder = Recorder(str(tmp_path))
    outer = recorder.open("pool")
    pid = os.fork()
    if pid == 0:  # the child leaves through os._exit, like a pool worker
        recorder.after_fork_in_child()
        recorder.event("task")
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    recorder.close(outer)
    assert os.waitstatus_to_exitcode(status) == 0
    spans = {s["name"]: s for s in load_spans(tmp_path)}
    assert spans["task"]["pid"] == pid and spans["task"]["parent"] is None
    assert spans["task"]["link"] == spans["pool"]["id"]


def _fake_package():
    core = types.ModuleType("fake.core")

    def work(x):
        return x + 1

    class Engine:
        def run(self):
            return "ran"

    core.work, core.Engine = work, Engine
    user = types.ModuleType("fake.user")
    user.work = work          # from fake.core import work
    user.renamed = work       # from fake.core import work as renamed
    return {"fake.core": core, "fake.user": user}, work, Engine


def test_installer_patches_every_alias_and_uninstall_restores_them(tmp_path):
    modules, work, engine = _fake_package()
    original_run = engine.__dict__["run"]
    recorder = Recorder(str(tmp_path))

    def wrap(name):
        return lambda original: timed(recorder, name, original)

    done = install([("fake.core", "work", wrap("work")),
                    ("fake.core", "Engine.run", wrap("run")),
                    ("fake.core", "gone", wrap("gone")),
                    ("fake.absent", "work", wrap("absent"))], modules)
    core, user = modules["fake.core"], modules["fake.user"]
    assert core.work is not work
    assert user.work is core.work and user.renamed is core.work
    assert core.work(1) == 2 and user.renamed(2) == 3
    assert engine().run() == "ran"
    assert done.missing == ["fake.core:gone", "fake.absent:work"]
    assert sorted(s["name"] for s in load_spans(tmp_path)) == [
        "run", "work", "work"]
    done.uninstall()
    assert core.work is work and user.work is work and user.renamed is work
    assert engine.__dict__["run"] is original_run


def test_kernel_runners_are_timed_and_fall_throughs_counted(tmp_path):
    recorder = Recorder(str(tmp_path))

    class Registry:
        def family_of(self, policy):
            return types.SimpleNamespace(name=policy)

        def kernel_factory(self, policy, backend):
            if backend == "np":
                return None
            return lambda ev, cols: (None if ev == "decline"
                                     else (lambda: "result"))

    lookup = _kernel_factory_wrapper(recorder)(Registry.kernel_factory)
    registry = Registry()
    assert lookup(registry, "lut", "np") is None
    assert lookup(registry, "lut", "python")("decline", None) is None
    assert lookup(registry, "lut", "python")("ev", None)() == "result"
    metrics = layer_metrics(load_spans(tmp_path))
    assert metrics["batch.kernel_fallthrough"] == 2
    assert metrics["batch.kernel_s.lut"] > 0


def test_layer_metrics_and_chrome_trace():
    spans = [
        _span("m", 0.0, 4.0, name="cli.main"),
        _span("p", 0.0, 4.0, parent="m", name="runner.pool",
              attrs={"workers": 2}),
        _span("t1", 0.5, 3.5, pid=2, name="runner.task"),
        _span("t2", 0.5, 2.5, pid=3, name="runner.task"),
        _span("s", 1.0, 2.0, pid=2, parent="t1", name="cpu.simulate",
              attrs={"cycles": 5000}),
        _span("l1", 2.0, 2.0, pid=2, parent="t1", name="streams.lock_acquire",
              attrs={"acquired": False}),
        _span("l2", 2.1, 2.1, pid=2, parent="t1", name="streams.lock_acquire",
              attrs={"acquired": True}),
    ]
    metrics = layer_metrics(spans)
    assert metrics["cpu.simulations"] == 1
    assert metrics["cpu.cycles_per_s"] == 5000.0
    assert metrics["streams.lock_contended"] == 1
    assert metrics["runner.tasks"] == 2 and metrics["runner.task_s"] == 5.0
    assert metrics["runner.pool_overhead_frac"] == 1 - 5.0 / 8.0
    events = chrome_trace(spans)["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == len(spans)
    assert {e["ph"] for e in events} == {"X", "M"}
    sim = next(e for e in complete if e["name"] == "cpu.simulate")
    assert sim["ts"] == 1e6 and sim["dur"] == 1e6
    assert sim["args"]["cycles"] == 5000
