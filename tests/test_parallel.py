"""The fixed-block reduction tree."""

import numpy as np
import pytest

from mkvlab.parallel import BLOCK, _pairwise_fold, block_slices, tree_sum


def block_loop_sum(values):
    """The tree written out: one numpy sum per block, folded pairwise."""
    return _pairwise_fold([values[s].sum(axis=0) for s in block_slices(values.shape[0])])


@pytest.mark.parametrize(
    "n", [1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK, 10_000, 100_001]
)
def test_float_vectors_sum_exactly_like_the_block_loop(n):
    rng = np.random.Generator(np.random.Philox(n))
    wide = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    for values in (rng.standard_normal(n), wide, np.exp(20.0 * rng.standard_normal(n))):
        got, want = tree_sum(values), block_loop_sum(values)
        assert type(got) is type(want) is np.float64
        assert got.tobytes() == want.tobytes()


def test_other_shapes_and_dtypes_keep_the_block_loop():
    rng = np.random.Generator(np.random.Philox(1))
    cases = (
        rng.standard_normal((3000, 2)),  # (N, d)
        rng.standard_normal((3000, 2))[:, 0],  # strided view
        rng.integers(-5, 5, 3000),
        rng.standard_normal(3000).astype(np.float32),
    )
    for values in cases:
        got, want = tree_sum(values), block_loop_sum(values)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.asarray(got).dtype == np.asarray(want).dtype


def test_one_block_of_any_shape_is_its_own_sum():
    # n <= BLOCK makes one block, summed in one call
    rng = np.random.Generator(np.random.Philox(2))
    cases = (
        rng.standard_normal((BLOCK // 2, 2)),
        rng.standard_normal((BLOCK, 2))[:, 0],
        rng.integers(-5, 5, BLOCK),
        rng.standard_normal(3).astype(np.float32),
    )
    for values in cases:
        got, want = tree_sum(values), block_loop_sum(values)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.asarray(got).dtype == np.asarray(want).dtype
