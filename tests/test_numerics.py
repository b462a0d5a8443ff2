"""Dense-vector kernels against analytic values and extended-precision
oracles, and key retrieval's ranking against brute-force sorts."""

import math

import mpmath
import numpy as np
import pytest

from lsgg.numerics import random_unit_vector, softmax
from lsgg.prompt_pool import retrieve_entries
from lsgg.rng import SeededRng

from oracles import RowCache, as_vector, cosine, cosine_to_rows


# -- cosine ----------------------------------------------------------------


def test_cosine_analytic_values():
    assert cosine([1, 0], [0, 1]) == 0.0
    assert cosine([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-15)
    assert cosine([1, 0], [1, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert cosine([1, 0], [-1, 0]) == pytest.approx(-1.0, abs=1e-15)


def test_cosine_symmetry_and_scale_invariance():
    rng = SeededRng(1)
    for _ in range(50):
        a, b = rng.normal(6), rng.normal(6)
        assert cosine(a, b) == cosine(b, a)
        assert cosine(3.7 * a, b) == pytest.approx(cosine(a, b), abs=1e-12)


def test_cosine_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        cosine([1, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        cosine([0, 0], [1, 0])
    with pytest.raises(ValueError):
        cosine([1, 0], [0, 0])
    with pytest.raises(ValueError):
        cosine([np.nan, 1], [1, 0])


def test_as_vector_validation():
    v = as_vector([1.0, 2.0])
    assert v.dtype == np.float64
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([np.inf, 0.0])


def test_cosine_to_rows_matches_pairwise_cosine():
    rng = SeededRng(2)
    rows = rng.normal((12, 5))
    q = rng.normal(5)
    got = cosine_to_rows(q, rows)
    expect = [cosine(q, r) for r in rows]
    assert np.allclose(got, expect, rtol=0, atol=1e-12)


def test_row_cache_bitwise_matches_cosine_to_rows():
    rng = SeededRng(3)
    rows = rng.normal((20, 7))
    cache = RowCache(rows)
    for _ in range(10):
        q = rng.normal(7)
        qn = float(np.linalg.norm(q))
        assert np.array_equal(cache.cosines(q, qn), cosine_to_rows(q, rows))
    with pytest.raises(ValueError):
        RowCache(np.vstack([rows, np.zeros(7)]))


# -- top-k ----------------------------------------------------------------


def top_k(query, keys, k):
    """Key retrieval's top-k entries for one query."""
    keys, query = np.asarray(keys, dtype=float), np.asarray(query, dtype=float)
    return retrieve_entries(keys, query[None], k)[0][0].tolist()


def brute_force_topk(query, keys, k):
    sims = [cosine(query, key) for key in keys]
    order = sorted(range(len(keys)), key=lambda i: (-sims[i], i))
    return order[:k]


def test_top_k_hand_cases():
    assert top_k([1, 0], [[1, 0], [0, 1], [-1, 0]], 2) == [0, 1]
    # bit-identical keys are exact ties: lower index wins
    assert top_k([1, 1], [[2, 2], [2, 2], [2, 2]], 3) == [0, 1, 2]
    assert top_k([1, 1], [[0, 1], [2, 2], [2, 2]], 2) == [1, 2]


def test_top_k_matches_full_sort_oracle():
    rng = SeededRng(4)
    for trial in range(100):
        n = 3 + rng.randint(40)
        d = 2 + rng.randint(6)
        keys = [rng.normal(d) for _ in range(n)]
        if trial % 3 == 0:  # inject exact duplicates to force ties
            keys[rng.randint(n)] = keys[0].copy()
        q = rng.normal(d)
        k = 1 + rng.randint(n)
        assert top_k(q, keys, k) == brute_force_topk(q, keys, k)


def test_top_k_rejects_bad_k():
    keys = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError):
        top_k([1, 0], keys, 0)
    with pytest.raises(ValueError):
        top_k([1, 0], keys, 3)
    with pytest.raises(ValueError):
        top_k([1, 0], np.zeros((0, 2)), 1)


def test_top_k_full_equals_similarity_sorted_permutation():
    rng = SeededRng(5)
    keys = [rng.normal(4) for _ in range(30)]
    q = rng.normal(4)
    full = top_k(q, keys, len(keys))
    assert sorted(full) == list(range(30))
    assert full[:1] == top_k(q, keys, 1)


# -- softmax ----------------------------------------------------------------


def softmax_mpmath(logits):
    with mpmath.workdps(60):
        exps = [mpmath.e ** mpmath.mpf(float(x)) for x in logits]
        total = mpmath.fsum(exps)
        return [float(e / total) for e in exps]


def test_softmax_hand_cases():
    assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], rtol=0, atol=0)
    assert np.allclose(softmax([1000.0, 1000.0]), [0.5, 0.5], rtol=0, atol=1e-15)
    out = softmax([1.0, 2.0, 3.0])
    assert np.all(out > 0)
    assert float(out.sum()) == pytest.approx(1.0, abs=1e-9)


def test_softmax_matches_extended_precision_oracle():
    rng = SeededRng(6)
    cases = [[1.0, 2.0, 3.0], [-700.0, 0.0, 700.0]]
    cases += [list(20.0 * rng.normal(5)) for _ in range(20)]
    for logits in cases:
        got = softmax(logits)
        expect = softmax_mpmath(logits)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-300)


def test_softmax_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        softmax([])
    with pytest.raises(ValueError):
        softmax([np.nan, 0.0])


# -- seeded initializers -----------------------------------------------------


def test_random_unit_vector_norm_one():
    rng = SeededRng(10)
    for d in (2, 3, 17, 64):
        v = random_unit_vector(d, rng)
        assert v.shape == (d,)
        assert float(np.linalg.norm(v)) == pytest.approx(1.0, abs=1e-12)
