"""Shared fixtures for the test suite."""

import pytest
from hypothesis import HealthCheck, settings

from repro.core.statistics import paper_statistics
from repro.isa.assembler import assemble
from repro.isa.instructions import FUClass

# deterministic property testing: same examples on every run
settings.register_profile(
    "repro",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


SUM_LOOP = """
.data
arr: .word 5, -3, 8, 1, -9, 2, 7, -4
results: .space 8
.text
main:
    la   r2, arr
    li   r1, 8
    li   r4, 0
loop:
    lw   r3, 0(r2)
    add  r4, r4, r3
    addi r2, r2, 4
    addi r1, r1, -1
    bne  r1, r0, loop
    la   r5, results
    sw   r4, 0(r5)
    halt
"""

FP_KERNEL = """
.data
xs: .double 1.5, -2.25, 0.5, 3.0
consts: .double 2.0
results: .space 8
.text
main:
    la   r2, xs
    la   r3, consts
    ld   f2, 0(r3)
    li   r4, 4
loop:
    ld   f1, 0(r2)
    fmul f3, f1, f2
    fadd f10, f10, f3
    addi r2, r2, 8
    addi r4, r4, -1
    bne  r4, r0, loop
    la   r5, results
    sd   f10, 0(r5)
    halt
"""


@pytest.fixture
def sum_program():
    return assemble(SUM_LOOP, name="sum-loop")


@pytest.fixture
def fp_program():
    return assemble(FP_KERNEL, name="fp-kernel")


@pytest.fixture
def ialu_stats():
    return paper_statistics(FUClass.IALU)


@pytest.fixture
def fpau_stats():
    return paper_statistics(FUClass.FPAU)


@pytest.fixture
def store_calls(monkeypatch):
    """Count ``Program.fingerprint`` and trace-cache lookups
    (``repro.streams.cached_source``); zero the counts to start a
    measured stretch."""
    import repro.streams as streams_module
    from repro.isa.program import Program

    calls = {"fingerprint": 0, "cached_source": 0}
    real_fingerprint = Program.fingerprint
    real_lookup = streams_module.cached_source

    def fingerprint(self):
        calls["fingerprint"] += 1
        return real_fingerprint(self)

    def cached_source(*args, **kwargs):
        calls["cached_source"] += 1
        return real_lookup(*args, **kwargs)

    monkeypatch.setattr(Program, "fingerprint", fingerprint)
    monkeypatch.setattr(streams_module, "cached_source", cached_source)
    return calls
