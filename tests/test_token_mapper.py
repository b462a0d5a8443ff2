"""Feature-to-token mapper: shapes, the affine form, purity,
finite-difference verification of the batched backward pass, bit-for-bit
agreement with the affine formula written out in the oracles, and distinct
gradients for every projector row block."""

import numpy as np
import pytest

from lsgg.harness import TOKEN_PRESETS
from lsgg.rng import SeededRng
from lsgg.token_mapper import (KINDS, encode_batch, encode_batch_backward, init_grads,
                               init_mapper)
from lsgg.trainer import _encode

from conftest import finite_diff, grad_rel_err, random_instance
from oracles import encode_batch_all_rows, encode_batch_backward_all_rows

FEAT_DIMS = {"c": 6, "r": 5, "s": 4, "o": 4}


def small_mapper(seed=0, d_tok=8, token_counts=TOKEN_PRESETS["default"]):
    return init_mapper(FEAT_DIMS, d_tok=d_tok, token_counts=token_counts, rng=SeededRng(seed))


def encode_one(m, f, kind):
    """The token block of one feature vector: a batch of one."""
    return encode_batch(m, f, kind)[0]


# -- shapes and purity --------------------------------------------------------


def test_default_token_counts_per_kind():
    m = small_mapper()
    rng = SeededRng(1)
    for kind, expect in (("c", 4), ("r", 4), ("s", 2), ("o", 2)):
        block = encode_one(m, rng.normal(FEAT_DIMS[kind]), kind)
        assert block.shape == (expect, 8)
        assert np.all(np.isfinite(block))
    assert TOKEN_PRESETS["default"] == {"c": 4, "r": 4, "s": 2, "o": 2}


def test_encode_feature_pure_and_deterministic():
    m = small_mapper()
    f = SeededRng(2).normal(6)
    a = encode_one(m, f, "c")
    b = encode_one(m, f.copy(), "c")
    assert np.array_equal(a, b)


def test_encode_feature_rejects_bad_inputs():
    m = small_mapper()
    with pytest.raises(ValueError):
        encode_batch(m, np.zeros(7), "c")  # wrong dimension
    with pytest.raises(ValueError):
        encode_batch(m, np.zeros((3, 7)), "c")
    with pytest.raises(ValueError):
        encode_batch(m, np.zeros(6), "x")  # unknown kind


def test_encode_exemplar_concatenation_order():
    # the trainer's exemplar block: kinds c, r, s, o concatenated in order
    m = small_mapper()
    rng = SeededRng(3)
    ex = random_instance(rng, d_c=6, d_r=5, d_o=4)
    feats = {kind: getattr(ex, f"f_{kind}")[None] for kind in KINDS}
    block = _encode(m, feats)[0]
    assert block.shape == (12, 8)  # 4 + 4 + 2 + 2
    parts = [encode_one(m, getattr(ex, f"f_{kind}"), kind) for kind in KINDS]
    assert np.array_equal(block, np.concatenate(parts, axis=0))


def test_encode_batch_matches_per_feature_encode():
    m = small_mapper()
    rng = SeededRng(5)
    feats = rng.normal((7, 6))
    out = encode_batch(m, feats, "c")
    assert out.shape == (7, 4, 8)
    for i in range(7):
        single = encode_one(m, feats[i], "c")
        assert np.allclose(out[i], single, rtol=0, atol=1e-15)


# -- pure affine ----------------------------------------------------------------


def test_depth_zero_is_affine_projection_plus_positions():
    m = small_mapper(seed=6)
    rng = SeededRng(7)
    f = rng.normal(6)
    got = encode_one(m, f, "c")
    flat = m.proj_w["c"] @ f + m.proj_b["c"]
    expect = flat.reshape(4, 8) + m.pos["c"]
    assert np.allclose(got, expect, rtol=0, atol=1e-15)


# -- gradients ----------------------------------------------------------------


def mapper_scalar_loss(m, feats, kind, coeff):
    out = encode_batch(m, feats, kind)
    return float(np.sum(out * coeff))


@pytest.mark.parametrize("seed,preset", [
    *(pytest.param(seed, "default", id=str(seed)) for seed in (0, 1, 2)),
    # n = 1 for r, s and o
    *(pytest.param(seed, "small", id=f"{seed}-small") for seed in (0, 1, 2)),
])
def test_encode_batch_backward_matches_finite_differences(seed, preset):
    m = small_mapper(seed=9 + 2 * seed, token_counts=TOKEN_PRESETS[preset])
    rng = SeededRng(10 + 2 * seed)
    for kind in KINDS:
        feats = rng.normal((3, FEAT_DIMS[kind]))
        n_tok = m.token_counts[kind]
        coeff = rng.normal((3, n_tok, 8))

        grads = init_grads(m)
        encode_batch_backward(kind, feats, coeff.copy(), grads)

        params = {name: arr for name, arr in m.param_items()}
        for name in (f"proj_w.{kind}", f"proj_b.{kind}", f"pos.{kind}"):
            fd = finite_diff(lambda: mapper_scalar_loss(m, feats, kind, coeff),
                             params[name])
            assert grad_rel_err(grads[name], fd) < 1e-4, (kind, name, seed, preset)


def test_backward_leaves_other_kind_gradients_zero():
    m = small_mapper(seed=11)
    rng = SeededRng(12)
    feats = rng.normal((2, FEAT_DIMS["s"]))
    out = encode_batch(m, feats, "s")
    grads = init_grads(m)
    encode_batch_backward("s", feats, np.ones_like(out), grads)
    for other in ("c", "r", "o"):
        assert not np.any(grads[f"proj_w.{other}"])
        assert not np.any(grads[f"pos.{other}"])
    for name in ("proj_w.s", "proj_b.s", "pos.s"):
        assert np.any(grads[name]), name


def test_init_mapper_deterministic_and_validated():
    a = small_mapper(seed=13)
    b = small_mapper(seed=13)
    for (na, pa), (nb, pb) in zip(a.param_items(), b.param_items()):
        assert na == nb
        assert np.array_equal(pa, pb)
    with pytest.raises(ValueError):
        init_mapper(FEAT_DIMS, d_tok=0, token_counts=TOKEN_PRESETS["default"],
                    rng=SeededRng(0))
    with pytest.raises(ValueError):
        init_mapper(FEAT_DIMS, d_tok=8, token_counts={**TOKEN_PRESETS["default"], "r": 0},
                    rng=SeededRng(0))


def test_exemplar_rows_matches_token_counts():
    m = small_mapper(token_counts={"c": 2, "r": 1, "s": 1, "o": 1})
    assert m.exemplar_rows() == 5
    assert small_mapper().exemplar_rows() == 12


# -- every row block its own ----------------------------------------------------


@pytest.mark.parametrize("preset", ["default", "large"])
def test_projector_row_blocks_get_distinct_gradients(preset):
    # a mapper that reads the n projected blocks only through their sum or
    # mean gives every block the same gradient, and n blocks then act as one
    m = small_mapper(seed=30, token_counts=TOKEN_PRESETS[preset])
    rng = SeededRng(31)
    n = m.token_counts["c"]
    feats = rng.normal((5, FEAT_DIMS["c"]))
    out = encode_batch(m, feats, "c")
    grads = init_grads(m)
    encode_batch_backward("c", feats, rng.normal(out.shape), grads)
    blocks = grads["proj_w.c"].reshape(n, m.d_tok, FEAT_DIMS["c"])
    for i in range(n):
        for j in range(i):
            assert not np.allclose(blocks[i], blocks[j]), (i, j)


# -- bit for bit against the written-out mapper ---------------------------------


@pytest.mark.parametrize("d_tok", [8, 64])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_encode_batch_equals_all_rows_oracle_bit_for_bit(seed, d_tok):
    # every output and every gradient keeps the bits of the affine formula
    # written out in the oracle, at every batch width and token preset
    counts = [*TOKEN_PRESETS.values(), {**TOKEN_PRESETS["small"], "c": 1}]
    for p, token_counts in enumerate(counts):
        m = small_mapper(seed=20 + 10 * seed + p, d_tok=d_tok, token_counts=token_counts)
        rng = SeededRng(21 + 10 * seed + p)
        for b in (1, 2, 3, 5, 17, 85, 300):
            for kind in KINDS:
                feats = rng.normal((b, FEAT_DIMS[kind]))
                d_out = rng.normal((b, token_counts[kind], d_tok))
                out = encode_batch(m, feats, kind)
                want = encode_batch_all_rows(m, feats, kind)
                case = (token_counts[kind], b, kind)
                assert np.array_equal(out, want), case
                grads, want_grads = init_grads(m), init_grads(m)
                encode_batch_backward(kind, feats, d_out.copy(), grads)
                encode_batch_backward_all_rows(kind, feats, d_out.copy(), want_grads)
                for name, g in grads.items():
                    assert np.array_equal(g, want_grads[name]), (case, name)
