"""The F_q kernels against a naive oracle and against each other."""

import numpy as np
import pytest

from qjordan import _kernels
from qjordan.gflinalg import inv_table

from fq import naive_rref
from modp import modp_rank


def random_batch(rng, q, count=200, rows=5, cols=7):
    return rng.integers(0, q, size=(count, rows, cols)).astype(np.int64)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 127])
def test_rref_batch_matches_naive(q):
    rng = np.random.default_rng(42 + q)
    batches = [random_batch(rng, q)]
    # mixed ranks, one row, one column, no rows, no columns, no matrices
    shapes = [(4, 4), (3, 7), (7, 3), (1, 5), (5, 1)]
    batches += [low_rank_batch(rng, q, 40, rows, cols) for rows, cols in shapes]
    batches += [np.zeros(shape, dtype=np.int64) for shape in [(3, 0, 4), (3, 4, 0), (0, 3, 4)]]
    for mats in batches:
        work = mats.copy()
        ranks = _kernels.rref_batch(work, q, inv_table(q))
        assert work.shape == mats.shape
        assert ranks.dtype == np.int64 and len(ranks) == len(mats)
        for b in range(mats.shape[0]):
            expect, rank = naive_rref(mats[b], q)
            assert ranks[b] == rank
            assert work[b].tolist() == expect


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rank_batch_matches_rref(q):
    rng = np.random.default_rng(7 + q)
    mats = random_batch(rng, q, rows=6, cols=4)
    r1 = _kernels.rank_batch(mats.copy(), q, inv_table(q))
    r2 = _kernels.rref_batch(mats.copy(), q, inv_table(q))
    assert np.array_equal(r1, r2)


def low_rank_batch(rng, q, count, rows, cols):
    """Products of random (rows x k) and (k x cols) factors with k drawn
    from 0..min(rows, cols): the ranks, and so the pivot rows, differ
    between the matrices of one batch."""
    inner = rng.integers(0, min(rows, cols) + 1, size=count)
    return np.stack(
        [rng.integers(0, q, (rows, k)) @ rng.integers(0, q, (k, cols)) % q for k in inner]
    ).astype(np.int64)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 127])
@pytest.mark.parametrize("rows, cols", [(4, 4), (1, 5), (5, 1), (7, 3), (3, 7), (6, 6)])
def test_rank_batch_on_mixed_ranks_matches_naive(q, rows, cols):
    rng = np.random.default_rng(1000 * q + 10 * rows + cols)
    mats = np.concatenate(
        [
            low_rank_batch(rng, q, 60, rows, cols),
            np.zeros((5, rows, cols), dtype=np.int64),
            random_batch(rng, q, count=20, rows=rows, cols=cols),
        ]
    )
    rng.shuffle(mats)
    expect = [naive_rref(mat, q)[1] for mat in mats]
    assert len(set(expect)) > 1
    assert _kernels.rank_batch(mats.copy(), q, inv_table(q)).tolist() == expect
    for mat, rank in zip(mats[:10], expect):
        assert _kernels.rank_batch(mat[None].copy(), q, inv_table(q)).tolist() == [rank]
    assert _kernels.rank_batch(mats[:0].copy(), q, inv_table(q)).tolist() == []


def test_modp_rank_against_small_field():
    # rank over Z/p is rank over F_p; compare with rank_batch for prime p
    rng = np.random.default_rng(13)
    for p in (2, 3, 5):
        mats = random_batch(rng, p, count=60, rows=6, cols=6)
        expected = _kernels.rank_batch(mats.copy(), p, inv_table(p))
        got = [modp_rank(mats[i].copy(), p) for i in range(mats.shape[0])]
        assert np.array_equal(expected, np.array(got))
