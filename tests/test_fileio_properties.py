"""Property test of the pure-Python column statistics: the mean and the
sample standard deviation equal numpy's bit for bit, which keeps the
``stats`` and ``report`` output unchanged without importing numpy."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from transmon_lattice.fileio import _mean_std

_FLOATS = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


# derandomized: the examples are the same on every run; lengths above 128
# take the recursive split of numpy's pairwise sum
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 300).flatmap(lambda n: st.lists(_FLOATS, min_size=n, max_size=n)))
@example([-0.0])  # numpy's sum starts from +0.0
@example([-0.0] * 200)
def test_mean_and_std_equal_numpy_bit_for_bit(values):
    array = np.array(values)
    mean, std = _mean_std(values)
    assert mean.hex() == float(array.mean()).hex()
    expected_std = float(array.std(ddof=1)) if len(values) > 1 else 0.0
    assert std.hex() == expected_std.hex()
