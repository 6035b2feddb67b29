"""Property tests for every popcount in the batch layer.

All three implementations — the :data:`POPCOUNT16` table walker, the
native ``int.bit_count`` shortcut, and the vectorized NumPy twin —
must agree with one shared reference oracle on random 64-bit values
and on the boundary values where a lane-split popcount would break.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import POPCOUNT16
from repro.batch.kernels import _bit_count, _table_bit_count


def oracle(value: int) -> int:
    """Reference popcount, independent of every implementation under
    test (``bin`` string walk, cross-checked against ``int.bit_count``
    where the interpreter has it)."""
    expected = bin(value).count("1")
    if hasattr(int, "bit_count"):
        assert value.bit_count() == expected
    return expected


BOUNDARIES = (0, 1, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**63,
              2**64 - 1)


class TestPopcountTable:
    def test_table_is_complete_and_correct(self):
        assert len(POPCOUNT16) == 1 << 16
        # spot-exhaustive: every entry against the oracle
        for value in range(1 << 16):
            assert POPCOUNT16[value] == oracle(value)

    @pytest.mark.parametrize("value", BOUNDARIES)
    def test_boundaries(self, value):
        assert _table_bit_count(value) == oracle(value)
        assert _bit_count(value) == oracle(value)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_random_64_bit_values(self, value):
        assert _table_bit_count(value) == oracle(value)
        assert _bit_count(value) == oracle(value)


class TestPopcount64Vector:
    def test_boundaries(self):
        import numpy as np

        from repro.batch import popcount64
        values = np.array(BOUNDARIES, dtype=np.uint64)
        assert popcount64(values).tolist() == \
            [oracle(v) for v in BOUNDARIES]

    def test_empty(self):
        import numpy as np

        from repro.batch import popcount64
        assert popcount64(np.zeros(0, dtype=np.uint64)).tolist() == []

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                    min_size=1, max_size=64))
    def test_random_64_bit_vectors(self, values):
        import numpy as np

        from repro.batch import popcount64
        array = np.array(values, dtype=np.uint64)
        assert popcount64(array).tolist() == [oracle(v) for v in values]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                    min_size=1, max_size=64))
    def test_matches_scalar_table_walker(self, values):
        import numpy as np

        from repro.batch import popcount64
        array = np.array(values, dtype=np.uint64)
        assert popcount64(array).tolist() == \
            [_table_bit_count(v) for v in values]
