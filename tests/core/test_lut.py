"""LUT synthesis tests (section 4.3)."""

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import _solve_brute, solve
from repro.core.info_bits import CASES, case_hamming
from repro.core.lut import (SteeringLUT, _allocations, _case_vectors,
                            _scenario_table, allocate_homes,
                            allocate_homes_paper_rule, build_lut,
                            estimate_gate_cost)
from repro.core.statistics import CaseStatistics, paper_statistics
from repro.isa.instructions import FUClass


@st.composite
def random_statistics(draw, max_width):
    """Case and usage distributions with zero-frequency entries."""
    freq = draw(st.lists(st.integers(0, 9), min_size=8,
                         max_size=8).filter(any))
    usage = draw(st.lists(st.integers(0, 9), min_size=max_width,
                          max_size=max_width).filter(any))
    keys = [(case, commutative) for case in CASES
            for commutative in (True, False)]
    return CaseStatistics(
        FUClass.IALU,
        {key: count / sum(freq) for key, count in zip(keys, freq)},
        {width: count / sum(usage) for width, count in enumerate(usage, 1)})


def exhaustive_homes(stats, num_modules):
    """The reference search: ``_solve_brute`` for every scenario under
    every allocation, floats added in the order ``allocate_homes`` adds
    them."""
    case_probs = stats.case_distribution()
    scenarios = []
    for width, width_prob in stats.usage_distribution(num_modules).items():
        if width_prob <= 0.0:
            continue
        for combo in itertools.product(CASES, repeat=width):
            probability = width_prob
            for case in combo:
                probability *= case_probs[case]
            if probability > 0.0:
                scenarios.append((combo, probability))
    best_cost, best_homes = None, ()
    for allocation in itertools.product(range(num_modules + 1), repeat=4):
        if sum(allocation) != num_modules:
            continue
        homes = tuple(case for case, count in zip(CASES, allocation)
                      for _ in range(count))
        arrivals = [[0.0] * 4 for _ in range(num_modules)]
        for cases, probability in scenarios:
            costs = [[case_hamming(case, home) for home in homes]
                     for case in cases]
            modules, _ = _solve_brute(costs, len(cases), num_modules)
            for case, module in zip(cases, modules):
                arrivals[module][case] += probability
        expected = 0.0
        for module_mass in arrivals:
            rate = 0.0
            for mass in module_mass:
                rate += mass
            if rate <= 0.0:
                continue
            mix = [mass / rate for mass in module_mass]
            per_arrival = 0.0
            for a in range(4):
                for b in range(4):
                    per_arrival += mix[a] * mix[b] * case_hamming(a, b)
            expected += rate * per_arrival
        if best_cost is None or expected < best_cost - 1e-12:
            best_cost, best_homes = expected, homes
    return best_homes


class TestHomeAllocation:
    def test_fpau_gets_one_module_per_case(self, fpau_stats):
        # the paper: "the best strategy is to first attempt to assign a
        # unique case to each module" for floating point
        assert allocate_homes(fpau_stats, 4) == (0b00, 0b01, 0b10, 0b11)

    def test_ialu_dominant_case_gets_multiple_modules(self, ialu_stats):
        homes = allocate_homes(ialu_stats, 4)
        assert homes.count(0b00) >= 2
        # the mixed cases keep representation
        assert 0b01 in homes or 0b10 in homes

    def test_paper_rule_ialu(self, ialu_stats):
        # "we assign three of the modules as being likely to contain
        # case 00, and we use the fourth module for all three other"
        homes = allocate_homes_paper_rule(ialu_stats, 4)
        assert homes.count(0b00) == 3

    def test_paper_rule_fpau(self, fpau_stats):
        assert allocate_homes_paper_rule(fpau_stats, 4) \
            == (0b00, 0b01, 0b10, 0b11)

    def test_single_module(self, ialu_stats):
        assert len(allocate_homes(ialu_stats, 1)) == 1

    def test_invalid_module_count(self, ialu_stats):
        with pytest.raises(ValueError):
            allocate_homes(ialu_stats, 0)
        with pytest.raises(ValueError):
            allocate_homes_paper_rule(ialu_stats, 0)

    def test_uniform_distribution_spreads_homes(self):
        stats = CaseStatistics(
            FUClass.IALU,
            {(case, True): 0.25 for case in CASES},
            {1: 0.4, 2: 0.3, 3: 0.2, 4: 0.1})
        homes = allocate_homes(stats, 4)
        assert sorted(homes) == list(CASES)

    @pytest.mark.parametrize("fu_class, expected", [
        (FUClass.IALU, ["11", "01/10", "00/01/10", "00/00/01/10",
                        "00/00/00/01/10"]),
        (FUClass.FPAU, ["11", "01/11", "00/01/11", "00/01/10/11",
                        "00/01/10/11/11"]),
    ])
    def test_paper_statistics_homes(self, fu_class, expected):
        # the exhaustive search's answers, 1 to 5 modules
        homes = [allocate_homes(paper_statistics(fu_class), n)
                 for n in range(1, 6)]
        assert ["/".join(f"{h:02b}" for h in row) for row in homes] \
            == expected

    @pytest.mark.parametrize("num_modules", range(1, 7))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_matches_exhaustive_search(self, num_modules, data):
        # at 5-6 modules usage stays on widths <= 3 so the oracle is quick
        stats = data.draw(random_statistics(
            3 if num_modules > 4 else num_modules))
        assert allocate_homes(stats, num_modules) \
            == exhaustive_homes(stats, num_modules)

    @pytest.mark.parametrize("num_modules", range(1, 9))
    def test_scenario_matchings_are_solve(self, num_modules):
        # one definition on both sides of solve's brute-force limit
        for width in range(1, min(num_modules, 2) + 1):
            table = _scenario_table(num_modules, width)
            for index, allocation in enumerate(_allocations(num_modules)):
                homes = [case for case, count in zip(CASES, allocation)
                         for _ in range(count)]
                for cases, modules in zip(_case_vectors(width).tolist(),
                                          table[index].tolist()):
                    costs = [[case_hamming(case, home) for home in homes]
                             for case in cases]
                    assert tuple(modules) == solve(costs)[0]


class TestBuildLut:
    @pytest.fixture
    def ialu_lut(self, ialu_stats):
        return build_lut(ialu_stats, 4, 8)

    def test_table_is_total(self, ialu_lut):
        assert len(ialu_lut.table) == 4 ** 4
        for vector in itertools.product(CASES, repeat=4):
            assert vector in ialu_lut.table

    def test_assignments_are_permutations(self, ialu_lut):
        for assignment in ialu_lut.table.values():
            assert len(set(assignment)) == len(assignment)
            assert all(0 <= m < 4 for m in assignment)

    def test_pad_case_is_least_frequent(self, ialu_stats, ialu_lut):
        assert ialu_lut.pad_case == ialu_stats.least_case() == 0b11

    def test_lookup_pads_short_vectors(self, ialu_lut):
        single = ialu_lut.lookup((0b00,))
        assert len(single) == 1
        padded = ialu_lut.table[(0b00,) + (ialu_lut.pad_case,) * 3]
        assert single == padded[:1]

    def test_lookup_rejects_oversized(self, ialu_lut):
        with pytest.raises(ValueError):
            ialu_lut.lookup((0, 0, 0, 0, 0))

    def test_same_case_ops_go_to_home_modules(self, ialu_lut):
        # two case-00 ops land on the two 00-homed modules
        homes = ialu_lut.homes
        modules = ialu_lut.lookup((0b00, 0b00))
        assert all(homes[m] == 0b00 for m in modules)

    def test_distinct_cases_distinct_homes_fpau(self, fpau_stats):
        lut = build_lut(fpau_stats, 4, 8)
        modules = lut.lookup((0b00, 0b01, 0b10, 0b11))
        assert [lut.homes[m] for m in modules] == [0b00, 0b01, 0b10, 0b11]

    def test_vector_width_validation(self, ialu_stats):
        with pytest.raises(ValueError):
            build_lut(ialu_stats, 4, 3)
        with pytest.raises(ValueError):
            build_lut(ialu_stats, 4, 0)
        with pytest.raises(ValueError):
            build_lut(ialu_stats, 2, 8)  # more slots than modules

    def test_custom_homes(self, ialu_stats):
        homes = (0b00, 0b00, 0b00, 0b10)
        lut = build_lut(ialu_stats, 4, 4, homes=homes)
        assert lut.homes == homes
        with pytest.raises(ValueError):
            build_lut(ialu_stats, 4, 4, homes=(0b00,))

    def test_vector_bits_property(self, ialu_stats):
        assert build_lut(ialu_stats, 4, 4).vector_bits == 4

    @pytest.mark.parametrize("num_modules", range(1, 9))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_fill_matches_brute_force(self, num_modules, data):
        stats = data.draw(random_statistics(num_modules))
        vector_ops = data.draw(st.integers(1, min(num_modules, 4)))
        homes = data.draw(st.lists(st.sampled_from(CASES),
                                   min_size=num_modules,
                                   max_size=num_modules))
        if data.draw(st.booleans()):
            homes.sort()
        homes = tuple(homes)
        lut = build_lut(stats, num_modules, 2 * vector_ops, homes=homes)
        usage = stats.usage_distribution(num_modules)
        occupancy = [max(1e-6, sum(fraction
                                   for width, fraction in usage.items()
                                   if width >= slot))
                     for slot in range(1, vector_ops + 1)]
        for vector in itertools.product(CASES, repeat=vector_ops):
            costs = [[occupancy[slot] * case_hamming(case, home)
                      for home in homes]
                     for slot, case in enumerate(vector)]
            assert lut.table[vector] \
                == _solve_brute(costs, vector_ops, num_modules)[0]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from(CASES), min_size=1, max_size=4))
    def test_lookup_valid_for_any_prefix(self, cases):
        stats = paper_statistics(FUClass.IALU)
        for vector_bits in (2, 4, 8):
            lut = build_lut(stats, 4, vector_bits)
            prefix = cases[:lut.vector_ops]
            modules = lut.lookup(prefix)
            assert len(modules) == len(prefix)
            assert len(set(modules)) == len(modules)
            assert all(0 <= m < 4 for m in modules)


def test_wide_machines_need_only_numpy(monkeypatch, ialu_stats):
    # scipy is not a dependency: past six modules, matching and LUT
    # synthesis must run without it
    for name in [name for name in sys.modules
                 if name.partition(".")[0] == "scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setitem(sys.modules, "scipy", None)
    costs = [[2, 1, 0, 2, 1, 0, 2, 1], [0, 0, 1, 1, 2, 2, 0, 0]]
    assert solve(costs) == ((2, 0), 0)
    lut = build_lut(ialu_stats, 8, 4)
    assert len(lut.table) == 16
    assert all(len(set(modules)) == 2 for modules in lut.table.values())


class TestGateCost:
    def test_calibrated_to_paper_points(self):
        # "requires 58 small logic gates and 6 logic levels" (8 RS
        # entries); "with 32 entries, 130 gates and 8 levels"
        small = estimate_gate_cost(4, 8)
        assert (small.gates, small.levels) == (58, 6)
        large = estimate_gate_cost(4, 32)
        assert (large.gates, large.levels) == (130, 8)

    def test_monotone_in_vector_width(self):
        assert estimate_gate_cost(8, 8).gates > estimate_gate_cost(4, 8).gates

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_gate_cost(0, 8)
        with pytest.raises(ValueError):
            estimate_gate_cost(4, 0)
