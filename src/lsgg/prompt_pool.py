"""Knowledge-keyed prompt memory: prompt token blocks, retrieval keys, and
bounded exemplar stores with reservoir eviction.

Retrieval is exact cosine search over the keys; the pool is small enough that
approximate indices would only add failure modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ioutil import pack_floats, unpack_floats
from .numerics import random_unit_vector
from .rng import SeededRng

POOL_MAGIC = "LSGG-POOL"
POOL_VERSION = 1


@dataclass
class Exemplar:
    """A stored past instance: the four raw feature vectors plus its label.

    Features are kept raw (not tokenized) so rehearsal re-encodes them through
    the current token mapper and benefits from mapper updates.
    """

    f_c: np.ndarray
    f_s: np.ndarray
    f_o: np.ndarray
    f_r: np.ndarray
    predicate: int

    def equals(self, other) -> bool:
        return (
            self.predicate == other.predicate
            and np.array_equal(self.f_c, other.f_c)
            and np.array_equal(self.f_s, other.f_s)
            and np.array_equal(self.f_o, other.f_o)
            and np.array_equal(self.f_r, other.f_r)
        )


def make_exemplar(instance) -> Exemplar:
    return Exemplar(
        f_c=np.array(instance.f_c, dtype=float),
        f_s=np.array(instance.f_s, dtype=float),
        f_o=np.array(instance.f_o, dtype=float),
        f_r=np.array(instance.f_r, dtype=float),
        predicate=int(instance.predicate),
    )


@dataclass(eq=False)
class PromptEntry:
    """One pool entry's bounded exemplar store and the number of instances
    ever routed to it. The entry's prompt tokens and key are row i of the
    pool's ``prompts`` and ``keys``."""

    store: list = field(default_factory=list)
    seen_count: int = 0

    def equals(self, other) -> bool:
        return (
            self.seen_count == other.seen_count
            and len(self.store) == len(other.store)
            and all(a.equals(b) for a, b in zip(self.store, other.store))
        )


@dataclass(eq=False)
class PromptPool:
    """Prompt tokens ``prompts`` (n_t, n_p, d_tok) and retrieval keys ``keys``
    (n_t, d_c), one row per entry, plus each entry's exemplar store of
    capacity ``n_e``. Optimizers update the two arrays in place."""

    prompts: np.ndarray
    keys: np.ndarray
    entries: list
    n_e: int

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

    def total_stored(self) -> int:
        return sum(len(e.store) for e in self.entries)

    def check_invariants(self) -> None:
        if self.prompts.ndim != 3 or self.keys.ndim != 2:
            raise AssertionError(f"prompts {self.prompts.shape} / keys {self.keys.shape} "
                                 "must be (n_t, n_p, d_tok) / (n_t, d_c)")
        if not self.prompts.shape[0] == self.n_t == len(self.entries):
            raise AssertionError(f"{self.prompts.shape[0]} prompt blocks, {self.n_t} keys "
                                 f"and {len(self.entries)} entries")
        for i, e in enumerate(self.entries):
            if len(e.store) > self.n_e:
                raise AssertionError(f"entry {i}: store holds {len(e.store)} > capacity {self.n_e}")
            if len(e.store) > e.seen_count:
                raise AssertionError(f"entry {i}: store larger than seen_count")

    def equals(self, other) -> bool:
        return (
            self.n_e == other.n_e
            and np.array_equal(self.prompts, other.prompts)
            and np.array_equal(self.keys, other.keys)
            and len(self.entries) == len(other.entries)
            and all(a.equals(b) for a, b in zip(self.entries, other.entries))
        )


def init_pool(n_t: int, n_p: int, d_tok: int, d_c: int, n_e: int, rng: SeededRng) -> PromptPool:
    """Fresh pool: unit-vector keys, Gaussian prompt tokens (scale 1/sqrt(d_tok))."""
    if min(n_t, n_p, d_tok, d_c, n_e) < 1:
        raise ValueError("all pool size parameters must be >= 1")
    scale = 1.0 / np.sqrt(d_tok)
    keys, prompts = np.empty((n_t, d_c)), np.empty((n_t, n_p, d_tok))
    for i in range(n_t):  # key, then prompt block, entry by entry
        keys[i] = random_unit_vector(d_c, rng)
        prompts[i] = scale * rng.normal((n_p, d_tok))
    return PromptPool(prompts=prompts, keys=keys,
                      entries=[PromptEntry() for _ in range(n_t)], n_e=n_e)


def retrieve_entries(keys: np.ndarray, f_c: np.ndarray, k: int):
    """Key retrieval for a batch of context features ``f_c`` (B, d_c).

    Returns (top (B, k) entry indices by descending key cosine, exactly equal
    cosines in ascending index order; cosines (B, n_t) to every key; context
    feature norms (B,); key norms (n_t,)). Never mutates its inputs.
    """
    n_t, d_c = keys.shape
    if not 1 <= k <= n_t:
        raise ValueError(f"K={k} outside [1, {n_t}]")
    if f_c.ndim != 2 or f_c.shape[1] != d_c:
        raise ValueError(f"context features must be (B, {d_c}), got {f_c.shape}")
    cnorms = np.sqrt(np.vecdot(f_c, f_c))
    if not np.isfinite(f_c).all() or (cnorms == 0.0).any():
        raise ValueError("query context feature is degenerate")
    knorms = np.linalg.norm(keys, axis=1)
    if not np.isfinite(keys).all() or (knorms == 0.0).any():
        raise ValueError("cosine undefined for zero-norm or non-finite key")
    sims = np.matmul(keys, f_c[:, :, None])[:, :, 0] / (knorms * cnorms[:, None])
    top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return top, sims, cnorms, knorms


def admit_exemplar(pool: PromptPool, instance, rng: SeededRng):
    """Offer an instance to the pool; returns the entry index if stored, else None.

    Routing: the entry retrieval ranks first for f_c (the cosine-nearest key,
    ties to the lower index). Storage: append while under capacity, then
    uniform reservoir: item number N is kept with probability n_e/N,
    replacing a uniform slot.
    """
    f_c = np.asarray(instance.f_c, dtype=float)[None]
    entry_idx = int(retrieve_entries(pool.keys, f_c, 1)[0][0, 0])
    entry = pool.entries[entry_idx]
    entry.seen_count += 1
    ex = make_exemplar(instance)
    if len(entry.store) < pool.n_e:
        entry.store.append(ex)
        return entry_idx
    j = rng.randint(entry.seen_count)  # single draw decides both fate and slot
    if j < pool.n_e:
        entry.store[j] = ex
        return entry_idx
    return None


# -- serialization (LSGG-POOL 1) ----------------------------------------------
#
# Text container; float arrays as base64 of little-endian float64 bytes so the
# round-trip is bit-exact.


def serialize_pool(pool: PromptPool, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{POOL_MAGIC} {POOL_VERSION} {pool.n_t} {pool.n_p} {pool.d_tok} {pool.d_c} {pool.n_e}\n")
        for i, e in enumerate(pool.entries):
            fh.write(f"entry {i} {e.seen_count} {len(e.store)}\n")
            fh.write(f"k {pack_floats(pool.keys[i])}\n")
            fh.write(f"v {pack_floats(pool.prompts[i])}\n")
            for ex in e.store:
                fh.write(
                    "ex {} {} {} {} {}\n".format(
                        ex.predicate,
                        pack_floats(ex.f_c),
                        pack_floats(ex.f_s),
                        pack_floats(ex.f_o),
                        pack_floats(ex.f_r),
                    )
                )


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

    pos = 1
    entries, keys, prompts = [], [], []
    ex_dims = None  # (d_s, d_o, d_r), fixed by the file's first exemplar
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
        keys.append(_floats(ktoks[1], (d_c,), f"entry {i} key"))
        prompts.append(_floats(vtoks[1], (n_p, d_tok), f"entry {i} prompt block"))
        pos += 3
        store = []
        for _ in range(n_stored):
            if pos >= len(lines):
                raise PoolFormatError(f"truncated file: entry {i} store incomplete")
            xtoks = lines[pos].split()
            where = f"line {pos + 1}"
            if len(xtoks) != 6 or xtoks[0] != "ex":
                raise PoolFormatError(f"{where}: malformed exemplar record")
            f_s, f_o, f_r = (_floats(t, -1, f"{where} exemplar") for t in xtoks[3:])
            if ex_dims is None:
                ex_dims = (f_s.size, f_o.size, f_r.size)
            elif (f_s.size, f_o.size, f_r.size) != ex_dims:
                raise PoolFormatError(f"{where}: exemplar f_s/f_o/f_r lengths "
                                      f"{(f_s.size, f_o.size, f_r.size)} != {ex_dims}")
            store.append(Exemplar(f_c=_floats(xtoks[2], (d_c,), f"{where} exemplar f_c"),
                                  f_s=f_s, f_o=f_o, f_r=f_r,
                                  predicate=_int(xtoks[1], f"{where} predicate")))
            pos += 1
        entries.append(PromptEntry(store=store, seen_count=seen_count))
    if pos != len(lines) and any(ln.strip() for ln in lines[pos:]):
        raise PoolFormatError(f"line {pos + 1}: trailing content after last entry")
    pool = PromptPool(prompts=np.stack(prompts), keys=np.stack(keys), entries=entries, n_e=n_e)
    pool.check_invariants()
    return pool
