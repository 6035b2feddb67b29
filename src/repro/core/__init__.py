"""The paper's contribution: information bits, power model, steering,
LUT synthesis, and operand swapping."""

from .assignment import Assignment, cost_matrix, optimal_assignment, solve
from .hybrid import (CriticalityAwareLUTPolicy, GuardedFUPowerModel,
                     HeterogeneousPowerModel, ModuleVariant,
                     standard_variants)
from .info_bits import (CASE_NAMES, CASES, InfoBitScheme, PAPER_FP_SCHEME,
                        PAPER_INT_SCHEME, case_hamming, case_of, fp_info_bit,
                        int_info_bit, make_fp_scheme, make_int_scheme,
                        scheme_for, swapped_case)
from .logic import (LogicCost, RouterCost, SOPCover, estimate_router_cost,
                    minimize, synthesize_lut_logic, synthesize_truth_table)
from .lut import (GateCost, SteeringLUT, allocate_homes,
                  allocate_homes_paper_rule, build_lut, estimate_gate_cost)
from . import verilog
from .power import (FUPowerModel, MultiplierActivityModel, PowerParameters,
                    booth_recode_activity, operand_width, shift_add_activity)
from .statistics import CaseStatistics, paper_statistics
from .steering import (EvaluationTotals, FullHammingPolicy, LUTPolicy,
                       OneBitHammingPolicy, OriginalPolicy, PolicyEvaluator,
                       RoundRobinPolicy, SteeringPolicy, make_policy)
from .swapping import (HardwareSwapper, MultiplierSwapper, SwapMode,
                       choose_swap_case)
from .registry import (PolicyFamily, PolicyNameError, PolicyRegistry,
                       PolicyRequest, REGISTRY)
# importing the module registers the bdd-<bits> family (must follow
# .steering: BDDPolicy subclasses LUTPolicy)
from .bdd import (BDDCost, BDDPolicy, SteeringBDD, bdd_allocate_homes,
                  build_bdd, build_bdd_lut, estimate_bdd_router_cost,
                  order_variables, synthesize_bdd, vector_distribution)

__all__ = [
    "Assignment", "cost_matrix", "optimal_assignment", "solve",
    "CriticalityAwareLUTPolicy", "GuardedFUPowerModel",
    "HeterogeneousPowerModel", "ModuleVariant", "standard_variants",
    "CASE_NAMES", "CASES", "InfoBitScheme", "PAPER_FP_SCHEME",
    "PAPER_INT_SCHEME", "case_hamming", "case_of", "fp_info_bit",
    "int_info_bit", "make_fp_scheme", "make_int_scheme", "scheme_for",
    "swapped_case",
    "GateCost", "SteeringLUT", "allocate_homes",
    "allocate_homes_paper_rule", "build_lut",
    "estimate_gate_cost",
    "LogicCost", "RouterCost", "SOPCover", "estimate_router_cost",
    "minimize", "synthesize_lut_logic", "synthesize_truth_table",
    "FUPowerModel", "MultiplierActivityModel", "PowerParameters",
    "booth_recode_activity", "operand_width", "shift_add_activity",
    "CaseStatistics", "paper_statistics",
    "EvaluationTotals", "FullHammingPolicy", "LUTPolicy",
    "OneBitHammingPolicy", "OriginalPolicy", "PolicyEvaluator",
    "RoundRobinPolicy", "SteeringPolicy", "make_policy",
    "HardwareSwapper", "MultiplierSwapper", "SwapMode", "choose_swap_case",
    "PolicyFamily", "PolicyNameError", "PolicyRegistry", "PolicyRequest",
    "REGISTRY",
    "BDDCost", "BDDPolicy", "SteeringBDD", "bdd_allocate_homes",
    "build_bdd", "build_bdd_lut", "estimate_bdd_router_cost",
    "order_variables", "synthesize_bdd", "vector_distribution",
    "verilog",
]
