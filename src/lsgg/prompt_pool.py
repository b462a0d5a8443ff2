"""Knowledge-keyed prompt memory: prompt token blocks, retrieval keys, and
bounded exemplar stores with reservoir eviction.

The pool is a handful of arrays. ``prompts`` and ``keys`` are trainable; the
stores are ``store_feats[kind]`` (n_t, n_e, d_kind), ``store_labels`` and
``store_rnorm`` (n_t, n_e), ``store_len`` (n_t,) and ``seen`` (n_t,).
Admitting an exemplar writes one row of each. Retrieval is exact cosine
search over the keys; the pool is small enough that approximate indices
would only add failure modes.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .ioutil import data_lines, exact_ints, read_array, write_array
from .numerics import random_unit_vector
from .rng import SeededRng

POOL_MAGIC = "LSGG-POOL"
POOL_VERSION = 2
_EX_KINDS = ("c", "s", "o", "r")  # record order of the exemplar features
_POOL_ARRAYS = ("keys", "prompts", "seen", "store_len", "labels", "ex.c", "ex.s", "ex.o", "ex.r")


@dataclass(eq=False)
class PromptPool:
    """Prompt tokens ``prompts`` (n_t, n_p, d_tok) and retrieval keys ``keys``
    (n_t, d_c), one row per entry, and every entry's exemplar store of
    capacity n_e as four arrays. Optimizers update ``prompts`` and ``keys``
    in place.

    Store slot (i, s) of entry i holds, for s < ``store_len[i]``, a past
    instance's raw features ``store_feats[kind][i, s]`` and its label
    ``store_labels[i, s]``, and the norm of its relation features
    ``store_rnorm[i, s]``, by which exemplar retrieval compares stored slots.
    Features stay raw (not tokenized), so rehearsal re-encodes them through
    the current token mapper. ``seen[i]`` counts the instances ever routed to
    entry i. ``store_feats`` stays empty until the first exemplar is written,
    which fixes each kind's width.
    """

    prompts: np.ndarray
    keys: np.ndarray
    store_feats: dict  # kind -> (n_t, n_e, d_kind)
    store_labels: np.ndarray  # (n_t, n_e) int64
    store_rnorm: np.ndarray  # (n_t, n_e) norms of store_feats["r"] along its last axis
    store_len: np.ndarray  # (n_t,) int64
    seen: np.ndarray  # (n_t,) int64

    @property
    def n_t(self) -> int:
        return self.keys.shape[0]

    @property
    def n_p(self) -> int:
        return self.prompts.shape[1]

    @property
    def d_tok(self) -> int:
        return self.prompts.shape[2]

    @property
    def d_c(self) -> int:
        return self.keys.shape[1]

    @property
    def n_e(self) -> int:
        return self.store_labels.shape[1]

    @property
    def entries(self) -> list:
        """Read-only per-entry views whose ``store`` holds the labels of the
        entry's filled slots. The benchmark probe (``perfbench/probe.py``)
        reads ``len(e.store)`` for each entry."""
        return [_EntryView(self.store_labels[i, :n]) for i, n in enumerate(self.store_len)]

    def total_stored(self) -> int:
        return int(self.store_len.sum())

    def check_invariants(self) -> None:
        if self.prompts.ndim != 3 or self.keys.ndim != 2 or not self.prompts.size * self.keys.size:
            raise AssertionError(f"prompts {self.prompts.shape} / keys {self.keys.shape} "
                                 "must be (n_t, n_p, d_tok) / (n_t, d_c), sizes >= 1")
        n_t, n_e = self.n_t, self.n_e
        if self.prompts.shape[0] != n_t or self.store_labels.shape[0] != n_t:
            raise AssertionError(f"{self.prompts.shape[0]} prompt blocks, {n_t} keys "
                                 f"and {self.store_labels.shape[0]} stores")
        if self.store_len.shape != (n_t,) or self.seen.shape != (n_t,):
            raise AssertionError("store lengths and seen counts need one value per entry")
        for kind, f in self.store_feats.items():
            if f.ndim != 3 or f.shape[:2] != (n_t, n_e):
                raise AssertionError(f"store features {kind} {f.shape} != ({n_t}, {n_e}, d)")
        over = np.flatnonzero((self.store_len < 0) | (self.store_len > n_e))
        if over.size:
            raise AssertionError(f"entry {over[0]}: store holds {self.store_len[over[0]]} "
                                 f"outside capacity {n_e}")
        if np.any(self.store_len > self.seen):
            raise AssertionError(f"entry {np.argmax(self.store_len > self.seen)}: "
                                 "store larger than seen count")
        if self.store_rnorm.shape != (n_t, n_e):
            raise AssertionError(f"stored norms {self.store_rnorm.shape} != ({n_t}, {n_e})")
        filled = np.arange(n_e) < self.store_len[:, None]
        if filled.any():
            norms = np.linalg.norm(self.store_feats["r"][filled], axis=-1)
            if not (np.array_equal(self.store_rnorm[filled], norms)
                    and np.isfinite(norms).all() and (norms > 0.0).all()):
                raise AssertionError("stored relation norms are degenerate or do not "
                                     "match the stored features")


_EntryView = namedtuple("_EntryView", "store")


def _empty_pool(prompts: np.ndarray, keys: np.ndarray, n_e: int) -> PromptPool:
    n_t = keys.shape[0]
    return PromptPool(prompts=prompts, keys=keys, store_feats={},
                      store_labels=np.zeros((n_t, n_e), dtype=np.int64),
                      store_rnorm=np.zeros((n_t, n_e)),
                      store_len=np.zeros(n_t, dtype=np.int64),
                      seen=np.zeros(n_t, dtype=np.int64))


def init_pool(n_t: int, n_p: int, d_tok: int, d_c: int, n_e: int, rng: SeededRng) -> PromptPool:
    """Fresh pool: unit-vector keys, Gaussian prompt tokens (scale 1/sqrt(d_tok))."""
    if min(n_t, n_p, d_tok, d_c, n_e) < 1:
        raise ValueError("all pool size parameters must be >= 1")
    scale = 1.0 / np.sqrt(d_tok)
    keys, prompts = np.empty((n_t, d_c)), np.empty((n_t, n_p, d_tok))
    for i in range(n_t):  # key, then prompt block, entry by entry
        keys[i] = random_unit_vector(d_c, rng)
        prompts[i] = scale * rng.normal((n_p, d_tok))
    return _empty_pool(prompts, keys, n_e)


def retrieve_entries(keys: np.ndarray, f_c: np.ndarray, k: int):
    """Key retrieval for a batch of context features ``f_c`` (B, d_c).

    Returns (top (B, k) entry indices by descending key cosine, exactly equal
    cosines, +0.0 and -0.0 among them, in ascending index order; cosines
    (B, n_t) to every key; context feature norms (B,); key norms (n_t,)).
    Never mutates its inputs.

    The top k are taken by k argmax passes over a scratch copy of the
    cosines, each setting the cell it chose to -inf; argmax returns the first
    maximum, so this is the stable descending sort's first k columns. Raises
    ValueError for a zero or non-finite norm, such as the infinite norm of a
    finite row whose squares overflow, and for a non-finite cosine, the rule
    that keeps the -inf sentinel below every cosine not yet chosen.
    """
    n_t, d_c = keys.shape
    if not 1 <= k <= n_t:
        raise ValueError(f"K={k} outside [1, {n_t}]")
    if f_c.ndim != 2 or f_c.shape[1] != d_c:
        raise ValueError(f"context features must be (B, {d_c}), got {f_c.shape}")
    cnorms = np.sqrt(np.vecdot(f_c, f_c))  # inf for a finite row whose norm overflows
    if not np.isfinite(cnorms).all() or (cnorms == 0.0).any():
        raise ValueError("query context feature is degenerate")
    knorms = np.linalg.norm(keys, axis=1)
    if not np.isfinite(knorms).all() or (knorms == 0.0).any():
        raise ValueError("cosine undefined for zero-norm or non-finite key")
    sims = np.matmul(keys, f_c[:, :, None])[:, :, 0] / (knorms * cnorms[:, None])
    if not np.isfinite(sims).all():
        raise ValueError("key cosine is not finite")
    rows, scratch = np.arange(len(sims)), sims.copy()
    top = np.empty((len(sims), k), dtype=np.int64)
    for j in range(k):
        top[:, j] = np.argmax(scratch, axis=1)
        scratch[rows, top[:, j]] = -np.inf
    return top, sims, cnorms, knorms


def _relation_norm(f_r: np.ndarray) -> np.ndarray:
    """Norms of relation features along their last axis, the one form that
    gives a row the same bits alone and gathered among others; raises
    ValueError for a zero or non-finite norm, for which cosine is undefined."""
    norms = np.linalg.norm(f_r, axis=-1)  # non-finite for a row with inf or nan
    if not np.isfinite(norms).all() or (norms == 0.0).any():
        raise ValueError("relation feature is degenerate")
    return norms


def _check_widths(pool: PromptPool, feats: dict) -> None:
    """Raise ValueError if the raw features (kind -> 1-D array) have other
    widths than the stored ones. The first exemplar fixes each kind's width:
    with no store yet, this allocates the stores at the given widths."""
    widths = {kind: v.size for kind, v in feats.items()}
    if not pool.store_feats:
        pool.store_feats.update({kind: np.zeros((pool.n_t, pool.n_e, n))
                                 for kind, n in widths.items()})
    stored = {kind: f.shape[2] for kind, f in pool.store_feats.items()}
    if widths != stored:
        raise ValueError(f"exemplar feature lengths {widths} != stored {stored}")


def _write_slot(pool: PromptPool, entry: int, slot: int, feats: dict, label: int,
                rnorm: float) -> None:
    """Write one exemplar's raw features (kind -> 1-D array), label and
    relation norm ``rnorm``, ``_relation_norm(feats["r"])``, into store slot
    (entry, slot); features of other widths than the stored ones raise
    ValueError (``_check_widths``) and write nothing."""
    _check_widths(pool, feats)
    for kind, v in feats.items():
        pool.store_feats[kind][entry, slot] = v
    pool.store_labels[entry, slot] = label
    pool.store_rnorm[entry, slot] = rnorm


def admit_exemplar(pool: PromptPool, entry: int, feats: dict, label: int, rnorm: float,
                   rng: SeededRng):
    """Offer an instance, its raw features (kind -> 1-D array) and predicate
    label, to the store of ``entry``; returns ``entry`` if stored, else None.

    The caller routes and measures: ``entry`` is the entry key retrieval
    ranks first for f_c (the cosine-nearest key, ties to the lower index),
    and ``rnorm`` is ``_relation_norm(feats["r"])``, which refuses a
    degenerate relation feature before anything is counted. ``train_stage``
    reads both from its step's one ranking. Here: features of other widths
    than the stored ones raise ValueError before the instance is counted or
    a draw is made; otherwise the instance is counted in ``seen[entry]`` and
    stored by one row write, into the next free slot while under capacity,
    then by uniform reservoir: item number N is kept with probability n_e/N,
    replacing a uniform slot.
    """
    _check_widths(pool, feats)
    pool.seen[entry] += 1
    slot = int(pool.store_len[entry])
    if slot == pool.n_e:
        slot = rng.randint(int(pool.seen[entry]))  # single draw decides both fate and slot
        if slot >= pool.n_e:
            return None
    _write_slot(pool, entry, slot, feats, label, rnorm)
    if slot == pool.store_len[entry]:  # an append grows the store
        pool.store_len[entry] += 1
    return entry


# -- serialization (LSGG-POOL 2) ----------------------------------------------
# A header line "LSGG-POOL 2 <n_e>", then ioutil's bit-exact array records:
# keys, prompts, seen and store_len, then the filled slots in entry-major
# order, their labels and, once the widths are fixed, ex.c, ex.s, ex.o, ex.r.


def serialize_pool(pool: PromptPool, path) -> None:
    filled = np.arange(pool.n_e) < pool.store_len[:, None]
    with open(path, "w") as fh:
        fh.write(f"{POOL_MAGIC} {POOL_VERSION} {pool.n_e}\n")
        for name, arr in (("keys", pool.keys), ("prompts", pool.prompts), ("seen", pool.seen),
                          ("store_len", pool.store_len), ("labels", pool.store_labels[filled])):
            write_array(fh, name, arr)
        for kind in _EX_KINDS if pool.store_feats else ():  # one gathered copy at a time
            write_array(fh, f"ex.{kind}", pool.store_feats[kind][filled])


class PoolFormatError(ValueError):
    pass


def deserialize_pool(path) -> PromptPool:
    """Load an LSGG-POOL 2 file; any malformed content, one that breaks the
    pool's invariants among it, raises PoolFormatError."""
    try:
        return _read_pool(path)
    except KeyError as exc:
        raise PoolFormatError(f"truncated file: no array record {exc}") from None
    except (ValueError, IndexError, AssertionError) as exc:  # IndexError: mismatched shapes
        raise PoolFormatError(str(exc)) from None


def _read_pool(path) -> PromptPool:
    lines = data_lines(path)
    _, head = next(lines, (None, ""))
    toks = head.split()
    if toks[:2] != [POOL_MAGIC, str(POOL_VERSION)] or len(toks) != 3 or int(toks[2]) < 1:
        raise ValueError(f"unsupported pool header {head!r}")
    arrays = {}
    for lineno, text in lines:
        tag, _, rest = text.partition(" ")
        if tag != "array" or read_array(arrays, lineno, rest) not in _POOL_ARRAYS:
            raise ValueError(f"line {lineno}: unknown record {' '.join(text.split()[:2])!r}")
    pool = _empty_pool(arrays["prompts"], arrays["keys"], int(toks[2]))
    pool.seen, pool.store_len = exact_ints(arrays["seen"]), exact_ints(arrays["store_len"])
    filled = np.arange(pool.n_e) < pool.store_len[:, None]
    n_filled = int(filled.sum())
    if arrays["labels"].shape != (n_filled,):
        raise ValueError(f"labels {arrays['labels'].shape} for {n_filled} filled slots")
    pool.store_labels[filled] = exact_ints(arrays["labels"])
    if n_filled or any(name.startswith("ex.") for name in arrays):  # the widths are fixed
        for kind in _EX_KINDS:
            f = arrays[f"ex.{kind}"]
            width = pool.d_c if kind == "c" else f.shape[-1]
            if f.shape != (n_filled, width):
                raise ValueError(f"exemplar widths: ex.{kind} {f.shape} for {n_filled} "
                                 f"filled slots of width {width}")
            pool.store_feats[kind] = np.zeros((pool.n_t, pool.n_e, width))
            pool.store_feats[kind][filled] = f
        pool.store_rnorm[filled] = _relation_norm(arrays["ex.r"])
    pool.check_invariants()
    return pool
