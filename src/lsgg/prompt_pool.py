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

from .ioutil import pack_floats, unpack_floats
from .numerics import random_unit_vector
from .rng import SeededRng

POOL_MAGIC = "LSGG-POOL"
POOL_VERSION = 1
_FILE_KINDS = ("c", "s", "o", "r")  # feature order of an "ex" record


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
        if self.prompts.ndim != 3 or self.keys.ndim != 2:
            raise AssertionError(f"prompts {self.prompts.shape} / keys {self.keys.shape} "
                                 "must be (n_t, n_p, d_tok) / (n_t, d_c)")
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


# -- serialization (LSGG-POOL 1) ----------------------------------------------
#
# Text container; float arrays as base64 of little-endian float64 bytes so the
# round-trip is bit-exact.


def serialize_pool(pool: PromptPool, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{POOL_MAGIC} {POOL_VERSION} {pool.n_t} {pool.n_p} {pool.d_tok} {pool.d_c} {pool.n_e}\n")
        for i in range(pool.n_t):
            n = int(pool.store_len[i])
            fh.write(f"entry {i} {int(pool.seen[i])} {n}\n")
            fh.write(f"k {pack_floats(pool.keys[i])}\n")
            fh.write(f"v {pack_floats(pool.prompts[i])}\n")
            for s in range(n):
                fh.write("ex {} {}\n".format(
                    int(pool.store_labels[i, s]),
                    " ".join(pack_floats(pool.store_feats[kind][i, s]) for kind in _FILE_KINDS)))


class PoolFormatError(ValueError):
    pass


def _int(token: str, what: str, minimum=None) -> int:
    try:
        n = int(token)
    except ValueError:
        raise PoolFormatError(f"{what}: {token!r} is not an integer") from None
    if minimum is not None and n < minimum:
        raise PoolFormatError(f"{what}: {n} < {minimum}")
    return n


def _floats(token: str, shape, what: str) -> np.ndarray:
    try:
        return unpack_floats(token, shape)
    except ValueError as exc:
        raise PoolFormatError(f"{what}: {exc}") from None


def deserialize_pool(path) -> PromptPool:
    """Load an LSGG-POOL 1 file; any malformed content raises PoolFormatError."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise PoolFormatError("empty pool file")
    head = lines[0].split()
    if len(head) != 7 or head[0] != POOL_MAGIC:
        raise PoolFormatError(f"bad magic line {lines[0]!r}")
    if head[1] != str(POOL_VERSION):
        raise PoolFormatError(f"unsupported pool version {head[1]!r}")
    n_t, n_p, d_tok, d_c, n_e = (_int(t, "pool dimension", 1) for t in head[2:])

    pool = _empty_pool(np.empty((n_t, n_p, d_tok)), np.empty((n_t, d_c)), n_e)
    pos = 1
    for i in range(n_t):
        if pos + 3 > len(lines):
            raise PoolFormatError(f"truncated file: entry {i} incomplete")
        etoks = lines[pos].split()
        if len(etoks) != 4 or etoks[0] != "entry" or etoks[1] != str(i):
            raise PoolFormatError(f"line {pos + 1}: expected 'entry {i} ...', got {lines[pos]!r}")
        where = f"line {pos + 1}: entry {i}"
        seen_count = _int(etoks[2], f"{where} seen count", 0)
        n_stored = _int(etoks[3], f"{where} stored count", 0)
        if n_stored > n_e:
            raise PoolFormatError(f"{where} claims {n_stored} > capacity {n_e}")
        if n_stored > seen_count:
            raise PoolFormatError(f"{where} stores {n_stored} > seen count {seen_count}")
        ktoks = lines[pos + 1].split()
        vtoks = lines[pos + 2].split()
        if len(ktoks) != 2 or ktoks[0] != "k" or len(vtoks) != 2 or vtoks[0] != "v":
            raise PoolFormatError(f"entry {i}: malformed key/prompt lines")
        pool.keys[i] = _floats(ktoks[1], (d_c,), f"entry {i} key")
        pool.prompts[i] = _floats(vtoks[1], (n_p, d_tok), f"entry {i} prompt block")
        pool.seen[i], pool.store_len[i] = seen_count, n_stored
        pos += 3
        for s in range(n_stored):
            if pos >= len(lines):
                raise PoolFormatError(f"truncated file: entry {i} store incomplete")
            xtoks = lines[pos].split()
            where = f"line {pos + 1}"
            if len(xtoks) != 6 or xtoks[0] != "ex":
                raise PoolFormatError(f"{where}: malformed exemplar record")
            feats = {"c": _floats(xtoks[2], (d_c,), f"{where} exemplar f_c")}
            for kind, tok in zip(_FILE_KINDS[1:], xtoks[3:]):
                feats[kind] = _floats(tok, -1, f"{where} exemplar")
            label = _int(xtoks[1], f"{where} predicate")
            try:
                _write_slot(pool, i, s, feats, label, _relation_norm(feats["r"]))
            except ValueError as exc:
                raise PoolFormatError(f"{where}: {exc}") from None
            pos += 1
    if pos != len(lines) and any(ln.strip() for ln in lines[pos:]):
        raise PoolFormatError(f"line {pos + 1}: trailing content after last entry")
    pool.check_invariants()
    return pool
