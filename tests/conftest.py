"""Shared fixtures and oracle helpers for the test suite."""

import numpy as np
import pytest

from lsgg.harness import TOKEN_PRESETS
from lsgg.prompt_pool import init_pool
from lsgg.rng import SeededRng
from lsgg.scorer import build_vocab, init_scorer
from lsgg.token_mapper import init_mapper
from lsgg.trainer import TrainConfig, TrainableSet, _nearest_slots, init_y_mask

from oracles import RelationInstance, append_exemplar


def finite_diff(fn, arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar fn() wrt every element of arr.

    Mutates arr in place during probing and restores it exactly.
    """
    grad = np.zeros_like(arr)
    flat, gflat = arr.ravel(), grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = fn()
        flat[i] = old - eps
        lo = fn()
        flat[i] = old
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def grad_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max-norm relative error with a floor for all-zero reference gradients."""
    scale = max(float(np.max(np.abs(numeric))), 1e-8)
    return float(np.max(np.abs(analytic - numeric))) / scale


def random_instance(rng: SeededRng, d_c=6, d_r=5, d_o=4, predicate=0,
                    image_id=0, n_obj=5, boxes=None) -> RelationInstance:
    return RelationInstance(
        image_id=image_id,
        f_c=rng.normal(d_c),
        f_r=rng.normal(d_r),
        f_s=rng.normal(d_o),
        f_o=rng.normal(d_o),
        subject_class=rng.randint(n_obj),
        object_class=rng.randint(n_obj),
        predicate=predicate,
        boxes=boxes,
    )


def nearest_exemplar(pool, entry_idx, f_r):
    """The store slot the trainer's exemplar retrieval shows from one entry
    for relation feature ``f_r``; None for an empty store."""
    f_r = np.asarray(f_r, dtype=float)
    slot = _nearest_slots(f_r[None], np.array([[entry_idx]]), pool)[0, 0]
    return None if slot < 0 else int(slot)


class TinyWorld:
    """A complete miniature training setup for gradient and loop tests."""

    def __init__(self, seed=0, d_tok=8, n_t=4, n_p=2, n_e=3, d_c=6, d_r=5,
                 d_o=4, n_pred=4, k_retrieve=2, train_scorer=False,
                 two_word_labels=False, config=None):
        rng = SeededRng(seed)
        self.rng = rng
        self.d_c, self.d_r, self.d_o = d_c, d_r, d_o
        if two_word_labels:
            names = {p: (f"word{p} tail" if p % 2 == 0 else f"word{p}")
                     for p in range(n_pred)}
        else:
            names = {p: f"rel{p}" for p in range(n_pred)}
        self.vocab = build_vocab(names)
        self.pool = init_pool(n_t, n_p, d_tok, d_c, n_e, rng.derive("pool"))
        self.mapper = init_mapper({"c": d_c, "r": d_r, "s": d_o, "o": d_o}, d_tok=d_tok,
                                  token_counts=TOKEN_PRESETS["default"],
                                  rng=rng.derive("mapper"))
        ex_rows = sum(self.mapper.token_counts.values())
        max_rows = k_retrieve * (n_p + ex_rows + self.vocab.n_mask)
        self.scorer = init_scorer(self.vocab.n_word_tokens, d_tok, self.vocab.n_mask,
                                  max_rows, rng.derive("scorer"))
        self.scorer.trainable = train_scorer
        self.y_mask = init_y_mask(self.vocab.n_mask, d_tok, rng.derive("mask"))
        self.tr = TrainableSet(mapper=self.mapper, pool=self.pool,
                               y_mask=self.y_mask, scorer=self.scorer)
        self.config = config or TrainConfig(k_retrieve=k_retrieve)
        self.n_pred = n_pred
        self._inst_rng = rng.derive("instances")

    def instance(self, predicate=0, image_id=0) -> RelationInstance:
        return random_instance(self._inst_rng, d_c=self.d_c, d_r=self.d_r,
                               d_o=self.d_o, predicate=predicate, image_id=image_id)

    def fill_store(self, entry_idx: int, n: int, start_pred=0) -> None:
        for i in range(n):
            append_exemplar(self.pool, entry_idx,
                            self.instance(predicate=(start_pred + i) % self.n_pred))


@pytest.fixture
def tiny():
    return TinyWorld()
