"""The full-Hamming kernel's matcher is ``solve``, tie rule included."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.kernels import _match
from repro.core.assignment import solve


@st.composite
def cost_matrices(draw):
    """1-8 modules, up to one op per module, costs from a small range
    so that equal totals (and equal row minima) are common."""
    modules = draw(st.integers(1, 8))
    ops = draw(st.integers(1, modules))
    top = draw(st.integers(0, 3))
    row = st.lists(st.integers(0, top), min_size=modules, max_size=modules)
    return draw(st.lists(row, min_size=ops, max_size=ops))


@settings(max_examples=400)
@given(cost_matrices())
def test_match_is_the_lexicographically_first_optimum(costs):
    assert _match(costs, len(costs), len(costs[0]), {}) == solve(costs)[0]
