"""Losses, analytic gradients, the optimizer, and the per-stage training loop.

The trainable surface is the token mapper, the pool's prompt tokens and keys,
and the mask embeddings; the decoder stays frozen unless scorer finetuning is
switched on. Gradients are assembled by hand: decoder pooling -> prompt rows
-> (prompt tokens | mapper encodes | label embeddings | mask rows), plus the
key-alignment term. Top-K retrieval is treated as non-differentiable: the
selection identity is fixed during the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ioutil import pack_floats, unpack_floats
from .numerics import cosine, softmax
from .prompt_pool import PromptPool, admit_exemplar
from .rng import SeededRng
from .scorer import (PredicateVocab, Rankings, ScorerParams, position_weights,
                     rank_predicates_batch)
from .token_mapper import (KINDS, MapperParams, encode_batch, encode_batch_backward,
                           init_grads)

CKPT_MAGIC = "LSGG-CKPT"
CKPT_VERSION = 1


@dataclass
class TrainConfig:
    alpha: float = 0.2  # weight of the auxiliary loss slot
    lam: float = 0.5  # weight of the key-alignment loss
    lr: float = 0.002
    weight_decay: float = 1e-4
    epochs: int = 20
    batch_size: int = 64
    rho: float = 0.25  # fraction of each batch drawn from the pool
    k_retrieve: int = 3
    scorer_lr_scale: float = 0.1  # applied when the decoder is unfrozen
    l1_mode: str = "none"  # "none" (constant 0) or "token_norm"
    # ablation switches
    random_prompts: bool = False  # ignore keys, pick K entries at random
    random_exemplar: bool = False  # ignore relation similarity inside stores
    shuffle_order: bool = False  # randomize context segment order
    naive: bool = False  # single prompt, no exemplars, no replay, no admissions

    def validate(self) -> None:
        if self.alpha < 0 or self.lam < 0:
            raise ValueError("loss weights must be >= 0")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rehearsal ratio must lie in [0, 1)")
        if self.lr < 0:  # lr == 0 is the diagnostic no-op case
            raise ValueError("learning rate must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be >= 0")
        if self.epochs < 1 or self.batch_size < 1 or self.k_retrieve < 1:
            raise ValueError("epochs, batch size, and K must be >= 1")
        if self.l1_mode not in ("none", "token_norm"):
            raise ValueError(f"unknown l1_mode {self.l1_mode!r}")

    def effective_k(self) -> int:
        return 1 if self.naive else self.k_retrieve

    def effective_rho(self) -> float:
        return 0.0 if self.naive else self.rho


@dataclass
class TrainableSet:
    """Everything the optimizer may touch. The decoder participates only when
    its ``trainable`` flag is set (scorer finetuning)."""

    mapper: MapperParams
    pool: PromptPool
    y_mask: np.ndarray  # (n_mask, d_tok)
    scorer: ScorerParams

    def param_items(self):
        """Every trainable array by name; pool entries one by one as
        ``pool.v.{i}``/``pool.k.{i}``, views of the pool's stacked arrays."""
        for name, arr in self.mapper.param_items():
            yield f"mapper.{name}", arr
        for i, entry in enumerate(self.pool.entries):
            yield f"pool.v.{i}", entry.v
            yield f"pool.k.{i}", entry.k
        yield "y_mask", self.y_mask
        if self.scorer.trainable:
            yield from self.scorer.param_items()

    def optim_items(self):
        """The arrays the optimizer updates: ``param_items`` with the pool as
        its two stacked arrays ``pool.v`` (prompts) and ``pool.k`` (keys)."""
        for name, arr in self.mapper.param_items():
            yield f"mapper.{name}", arr
        yield "pool.v", self.pool.prompts
        yield "pool.k", self.pool.keys
        yield "y_mask", self.y_mask
        if self.scorer.trainable:
            yield from self.scorer.param_items()

    def checkpoint_items(self):
        """Arrays stored in a checkpoint; the pool is referenced by path."""
        for name, arr in self.mapper.param_items():
            yield f"mapper.{name}", arr
        yield "y_mask", self.y_mask
        yield from self.scorer.param_items()


def init_y_mask(n_mask: int, d_tok: int, rng: SeededRng) -> np.ndarray:
    return rng.normal((n_mask, d_tok)) / np.sqrt(d_tok)


# -- losses --------------------------------------------------------------------


def loss_key_alignment(f_c_query, keys) -> float:
    """Sum of (1 - cosine) between the query context feature and each key."""
    keys = list(keys)
    if not keys:
        raise ValueError("key-alignment loss needs at least one key")
    return float(sum(1.0 - cosine(f_c_query, k) for k in keys))


def loss_predicate_ce(distributions, target: int, vocab: PredicateVocab) -> float:
    """Teacher-forced cross-entropy over the target's non-padding token slots."""
    dist = np.asarray(distributions, dtype=float)
    toks = vocab.tokens.get(target)
    if not toks:
        raise ValueError(f"target predicate {target} has no tokens")
    total = 0.0
    for j, t in enumerate(toks):
        if not 0 <= t < dist.shape[1]:
            raise ValueError(f"token {t} outside vocabulary of size {dist.shape[1]}")
        total -= float(np.log(dist[j, t]))
    return total


def loss_total(l1_aux: float, l2: float, l3: float, config: TrainConfig) -> float:
    for name, val in (("l1", l1_aux), ("l2", l2), ("l3", l3)):
        if not np.isfinite(val):
            raise ValueError(f"loss component {name} is not finite: {val}")
    return config.alpha * l1_aux + config.lam * l2 + l3


def token_norm_penalty(block: np.ndarray):
    """Mean squared deviation of row norms from 1; the optional auxiliary loss.

    Returns (value, gradient wrt the block rows).
    """
    sq = np.sum(block * block, axis=1)
    dev = sq - 1.0
    value = float(np.mean(dev * dev))
    grad = (4.0 / block.shape[0]) * dev[:, None] * block
    return value, grad


# -- optimizer -------------------------------------------------------------------


def _stack_entry_grads(grads: dict, name: str, param: np.ndarray):
    """Stack per-entry gradients ``{name}.{i}`` into one array like ``param``;
    None when there are none."""
    rows = [grads.get(f"{name}.{i}") for i in range(param.shape[0])]
    if all(r is None for r in rows):
        return None
    return np.stack([np.zeros_like(param[i]) if r is None else r for i, r in enumerate(rows)])


class AdamW:
    """Adam with decoupled weight decay; dense update over all registered
    parameters each step (absent gradients count as zero).

    Gradients are looked up by ``TrainableSet.optim_items`` names; the pool's
    may instead come per entry, named as in ``param_items``.
    """

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0
        self._work: dict = {}  # two scratch arrays per parameter

    def step(self, trainables: TrainableSet, grads: dict, config: TrainConfig) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, param in trainables.optim_items():
            g = grads.get(name)
            if g is None and name.startswith("pool."):
                g = _stack_entry_grads(grads, name, param)
            if g is None:
                g = 0.0
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(param), np.zeros_like(param)
                self._work[name] = np.empty_like(param), np.empty_like(param)
            m, v = self.m[name], self.v[name]
            t, u = self._work[name]
            lr = config.lr * (config.scorer_lr_scale if name.startswith("scorer.") else 1.0)
            # m += (1 - b1)(g - m); v += (1 - b2)(g^2 - v);
            # param -= lr (m / bc1 / (sqrt(v / bc2) + eps) + wd param),
            # evaluated in place, operation by operation
            np.subtract(g, m, out=t)
            t *= 1.0 - b1
            m += t
            np.multiply(g, g, out=t)
            t -= v
            t *= 1.0 - b2
            v += t
            np.divide(v, bc2, out=u)
            np.sqrt(u, out=u)
            u += self.eps
            np.divide(m, bc1, out=t)
            t /= u
            np.multiply(param, config.weight_decay, out=u)
            u += t
            u *= lr
            param -= u


# -- batched forward/backward ----------------------------------------------------
#
# One pass handles a whole batch. Retrieval runs over the batch at once,
# exemplar choice over all (item, context entry) pairs, and items that share
# a prompt layout (which context segments show an exemplar) run as one
# (G, N, d_tok) stack whose rows are gathered from a single token table.
# Every product is computed as a per-item pass computes it: a stacked np.matmul
# makes the same BLAS call for each item, sums over items run in item order
# (np.bincount adds its weights in input order), and matrix-vector products
# over exemplar stores share a call only between stores of one length, since
# OpenBLAS rounds a row differently depending on the matrix's row count. A
# batch therefore gives bit for bit the numbers of its items taken one by one.


@dataclass
class _Item:
    source: object  # RelationInstance or Exemplar
    replay: bool  # replayed items contribute only the prediction loss


@dataclass
class _Batch:
    feats: dict  # kind -> (B, d_kind)
    targets: np.ndarray  # (B,) predicate ids
    replay: np.ndarray  # (B,) bool

    def __len__(self) -> int:
        return len(self.targets)

    def take(self, sel) -> "_Batch":
        return _Batch({kind: f[sel] for kind, f in self.feats.items()},
                      self.targets[sel], self.replay[sel])

    def concat(self, other: "_Batch") -> "_Batch":
        return _Batch({kind: np.concatenate([f, other.feats[kind]])
                       for kind, f in self.feats.items()},
                      np.concatenate([self.targets, other.targets]),
                      np.concatenate([self.replay, other.replay]))


def _stack_sources(sources, replay) -> _Batch:
    if not len(sources):
        raise ValueError("empty batch")
    feats = {kind: np.stack([np.asarray(getattr(s, f"f_{kind}"), dtype=float)
                             for s in sources]) for kind in KINDS}
    targets = np.array([int(s.predicate) for s in sources], dtype=np.int64)
    return _Batch(feats, targets, np.asarray(replay, dtype=bool))


class _StoreTable:
    """Every entry's exemplar store as padded stacked arrays.

    Slot (e, s) holds store position s of entry e: its features by kind, its
    label, its relation-feature norm and the identity of the stored object.
    ``degenerate[e]`` marks a store with a zero-norm or non-finite relation
    feature, which cosine retrieval refuses.
    ``invalidate(e)`` after a write into entry e's store makes the next
    ``refresh()`` rebuild that entry's rows.
    """

    def __init__(self, pool: PromptPool, feat_dims: dict):
        self.pool = pool
        n_t = pool.n_t
        cap = max([pool.n_e] + [len(e.store) for e in pool.entries])
        self.lengths = np.zeros(n_t, dtype=np.int64)
        self.feats = {kind: np.zeros((n_t, cap, feat_dims[kind])) for kind in KINDS}
        self.labels = np.zeros((n_t, cap), dtype=np.int64)
        self.ids = np.zeros((n_t, cap), dtype=np.int64)
        self.r_norms = np.zeros((n_t, cap))
        self.degenerate = np.zeros(n_t, dtype=bool)
        self._stale = set(range(n_t))

    def invalidate(self, entry_idx: int) -> None:
        self._stale.add(entry_idx)

    def refresh(self) -> None:
        for e in self._stale:
            store = self.pool.entries[e].store
            n = self.lengths[e] = len(store)
            if n:
                for kind in KINDS:
                    self.feats[kind][e, :n] = [getattr(ex, f"f_{kind}") for ex in store]
                self.labels[e, :n] = [ex.predicate for ex in store]
                self.ids[e, :n] = [id(ex) for ex in store]
                self.r_norms[e, :n] = np.linalg.norm(self.feats["r"][e, :n], axis=1)
            self.degenerate[e] = n and (not np.all(np.isfinite(self.feats["r"][e, :n]))
                                        or np.any(self.r_norms[e, :n] == 0.0))
        self._stale.clear()

    def replays(self, picks) -> _Batch:
        """Replayed items at positions ``picks`` of all stores concatenated."""
        ends = np.cumsum(self.lengths)
        e = np.searchsorted(ends, picks, side="right")
        s = picks - (ends[e] - self.lengths[e])
        return _Batch({kind: f[e, s] for kind, f in self.feats.items()},
                      self.labels[e, s], np.ones(len(picks), dtype=bool))


class _PassCache:
    """Lookups that live for one ``train_stage`` or ``predict_ranked`` call:
    the stacked stores and the padded label tokens, plus, once ``freeze``
    has run, the token table of an inference call."""

    def __init__(self, pool: PromptPool, tr: TrainableSet, vocab: PredicateVocab):
        self.stores = _StoreTable(pool, tr.mapper.feat_dims)
        self.label_ids = np.array(vocab.labels(), dtype=np.int64)
        self.label_tokens, self.label_counts = vocab.token_table()
        if self.label_tokens.max() >= tr.scorer.v:
            raise ValueError(f"label tokens exceed the decoder vocabulary of {tr.scorer.v}")
        self.table = None  # frozen token table, inference only
        self.slot_rows = None  # (n_t, cap) exemplar index of each filled store slot

    def freeze(self, pool: PromptPool, tr: TrainableSet, config: TrainConfig,
               max_batch: int) -> None:
        """Fix the token rows of an inference call, where pool, mapper and
        decoder do not move: prompts, every filled store slot encoded once
        (when context segments show exemplars), label embeddings and mask
        rows, followed by room for ``max_batch`` items' query rows."""
        stores = self.stores
        stores.refresh()
        filled = np.arange(stores.labels.shape[1]) < stores.lengths[:, None]
        filled &= _n_context(config, pool) > 0  # else no segment shows an exemplar
        self.slot_rows = np.full(filled.shape, -1, dtype=np.int64)
        self.slot_rows[filled] = np.arange(np.count_nonzero(filled))
        d_tok, n_ex_rows = pool.d_tok, tr.mapper.exemplar_rows()
        parts = [pool.prompts.reshape(-1, d_tok)]
        if filled.any():
            ex_blocks, _ = _encode(tr.mapper, {kind: f[filled]
                                               for kind, f in stores.feats.items()})
            parts.append(ex_blocks.reshape(-1, d_tok))
        parts += [tr.scorer.emb, tr.y_mask, np.empty((max_batch * n_ex_rows, d_tok))]
        self.table = np.concatenate(parts)

    def label_rows(self, predicates) -> np.ndarray:
        pos = np.minimum(np.searchsorted(self.label_ids, predicates), len(self.label_ids) - 1)
        missing = self.label_ids[pos] != predicates
        if np.any(missing):
            raise ValueError(f"predicate {np.asarray(predicates)[missing][0]} has no tokens")
        return pos


def _kind_slices(mapper: MapperParams):
    slices, start = {}, 0
    for kind in KINDS:
        n = mapper.token_counts[kind]
        slices[kind] = slice(start, start + n)
        start += n
    return slices


def _encode(mapper: MapperParams, feats: dict):
    """Token blocks (B, rows_ex, d_tok), kinds concatenated in order, plus
    the per-kind caches for the backward pass."""
    outs, caches = [], {}
    for kind in KINDS:
        out, caches[kind] = encode_batch(mapper, feats[kind], kind)
        outs.append(out)
    return np.concatenate(outs, axis=1), caches


def _random_prompts(ab_rng: SeededRng | None, sims: np.ndarray, k: int) -> np.ndarray:
    """k distinct random entries per row of ``sims``, drawn row by row as
    ``choice_without_replacement`` draws them, then ordered by descending
    similarity (ties: lower index first)."""
    if ab_rng is None:
        raise ValueError("random prompt selection requires an rng")
    n_b, n_t = sims.shape
    draws = ab_rng.randint_block(np.tile(n_t - np.arange(k), n_b)).reshape(n_b, k)
    perm = np.tile(np.arange(n_t), (n_b, 1))
    rows = np.arange(n_b)
    for i in range(k):  # partial Fisher-Yates, all rows at once
        j = i + draws[:, i]
        perm[rows, i], perm[rows, j] = perm[rows, j], perm[rows, i]
    chosen = perm[:, :k]
    order = np.lexsort((chosen, -np.take_along_axis(sims, chosen, axis=1)), axis=1)
    return np.take_along_axis(chosen, order, axis=1)


def _random_slots(ab_rng: SeededRng | None, lengths: np.ndarray) -> np.ndarray:
    """A uniform store slot per non-empty store (-1 for empty), drawn in
    row-major order."""
    slots = np.full(lengths.shape, -1, dtype=np.int64)
    filled = lengths > 0
    if np.any(filled):
        if ab_rng is None:
            raise ValueError("random exemplar selection requires an rng")
        slots[filled] = ab_rng.randint_block(lengths[filled])
    return slots


def _nearest_slots(f_r: np.ndarray, entries: np.ndarray, stores: _StoreTable) -> np.ndarray:
    """Per (item, entry) pair the store slot with the highest relation-feature
    cosine (ties: earliest slot), -1 for an empty store."""
    lengths = stores.lengths[entries]
    slots = np.full(entries.shape, -1, dtype=np.int64)
    if not lengths.any():
        return slots
    rnorm = np.sqrt(np.vecdot(f_r, f_r))
    for n in np.unique(lengths[lengths > 0]):  # one BLAS shape per store length
        b, c = np.nonzero(lengths == n)
        e = entries[b, c]
        if stores.degenerate[e].any():
            raise ValueError("stored relation features are degenerate")
        sims = np.matmul(stores.feats["r"][e, :n], f_r[b][:, :, None])[:, :, 0]
        sims /= stores.r_norms[e, :n] * rnorm[b, None]
        slots[b, c] = np.argmax(sims, axis=1)
    return slots


def _shuffle_perms(ab_rng: SeededRng | None, n_b: int, n: int) -> np.ndarray:
    """One Fisher-Yates permutation of range(n) per item, drawn item by item
    as ``SeededRng.shuffle`` draws them."""
    perm = np.tile(np.arange(n), (n_b, 1))
    if n < 2:
        return perm
    if ab_rng is None:
        raise ValueError("shuffled segment order requires an rng")
    draws = ab_rng.randint_block(np.tile(np.arange(n, 1, -1), n_b)).reshape(n_b, n - 1)
    rows = np.arange(n_b)
    for col, i in enumerate(range(n - 1, 0, -1)):
        j = draws[:, col]
        perm[rows, i], perm[rows, j] = perm[rows, j], perm[rows, i]
    return perm


def _n_context(config: TrainConfig, pool: PromptPool) -> int:
    """Context segments per prompt: one per retrieved entry after the first."""
    return 0 if config.naive else min(config.effective_k(), pool.n_t) - 1


def _select(batch: _Batch, pool: PromptPool, config: TrainConfig,
            ab_rng: SeededRng | None, stores: _StoreTable):
    """Retrieval for the whole batch.

    Returns (selection (B, k) entries, query entry first; their key cosines;
    slots (B, k-1): the store slot each context entry shows, -1 if empty;
    context feature norms (B,); key norms (n_t,)).
    """
    f_c = batch.feats["c"]
    cnorms = np.sqrt(np.vecdot(f_c, f_c))
    if not np.isfinite(f_c).all() or (cnorms == 0.0).any():
        raise ValueError("query context feature is degenerate")
    keys = pool.keys
    knorms = np.linalg.norm(keys, axis=1)
    if not np.isfinite(keys).all() or (knorms == 0.0).any():
        raise ValueError("cosine undefined for zero-norm or non-finite key")
    sims = np.matmul(keys, f_c[:, :, None])[:, :, 0] / (knorms * cnorms[:, None])
    k = min(config.effective_k(), pool.n_t)
    n_ctx = _n_context(config, pool)
    stores.refresh()
    if config.random_prompts and config.random_exemplar and n_ctx:
        # both draws share the stream item by item: prompts, then exemplars
        selection = np.empty((len(batch), k), dtype=np.int64)
        slots = np.empty((len(batch), n_ctx), dtype=np.int64)
        for b in range(len(batch)):
            selection[b] = _random_prompts(ab_rng, sims[b : b + 1], k)[0]
            slots[b] = _random_slots(ab_rng, stores.lengths[selection[b, 1:]])
    else:
        if config.random_prompts:
            selection = _random_prompts(ab_rng, sims, k)
        else:
            selection = np.argsort(-sims, axis=1, kind="stable")[:, :k]  # ties: lower index
        context = selection[:, 1 : 1 + n_ctx]
        if config.random_exemplar:
            slots = _random_slots(ab_rng, stores.lengths[context])
        else:
            slots = _nearest_slots(batch.feats["r"], context, stores)
    return selection, np.take_along_axis(sims, selection, axis=1), slots, cnorms, knorms


@dataclass
class _Group:
    """Items that share one prompt layout, run as a (G, N, d_tok) stack."""

    items: np.ndarray  # (G,) batch positions, ascending
    idx: np.ndarray  # (G, N) token-table row behind each prompt row
    label_cols: list  # prompt positions of the context label rows
    rows: np.ndarray  # (G, N, d_tok) assembled prompts
    w: np.ndarray  # (N,) position weights
    base: np.ndarray  # (G, d_tok) position-weighted pooled rows
    probs: np.ndarray  # (G, n_mask, V)


@dataclass
class _Pass:
    groups: list
    selection: np.ndarray  # (B, k)
    sims: np.ndarray  # (B, k)
    cnorms: np.ndarray  # (B,)
    knorms: np.ndarray  # (n_t,)
    q_blocks: np.ndarray  # (B, rows_ex, d_tok)
    q_caches: dict
    ex_caches: dict | None  # None at inference or when no segment shows an exemplar
    offsets: tuple  # token-table starts: exemplars, label embeddings, masks, queries

    def probs(self) -> np.ndarray:
        """(B, n_mask, V) slot distributions in batch order."""
        out = np.empty((len(self.q_blocks),) + self.groups[0].probs.shape[1:])
        for g in self.groups:
            out[g.items] = g.probs
        return out


def _forward(batch: _Batch, pool: PromptPool, tr: TrainableSet, config: TrainConfig,
             ab_rng: SeededRng | None, cache: _PassCache) -> _Pass:
    scorer, d_tok, n_p = tr.scorer, pool.d_tok, pool.n_p
    n_b, n_mask = len(batch), tr.y_mask.shape[0]
    if n_mask != scorer.n_mask:
        raise ValueError(f"{n_mask} mask rows but decoder expects {scorer.n_mask}")
    q_blocks, q_caches = _encode(tr.mapper, batch.feats)
    n_ex_rows = q_blocks.shape[1]
    selection, sims, slots, cnorms, knorms = _select(batch, pool, config, ab_rng, cache.stores)
    n_ctx = slots.shape[1]

    # the exemplar each context segment shows, as a block of the token table
    stores = cache.stores
    pb, pc = np.nonzero(slots >= 0)
    ent, slot = selection[pb, pc + 1], slots[pb, pc]
    shown = np.full(slots.shape, -1, dtype=np.int64)
    label = np.zeros(slots.shape, dtype=np.int64)
    label[pb, pc] = cache.label_rows(stores.labels[ent, slot])
    ex_caches = None
    if cache.table is not None:  # inference: every stored exemplar is encoded
        shown[pb, pc] = cache.slot_rows[ent, slot]
        n_shown = np.count_nonzero(cache.slot_rows >= 0)
        table = cache.table
    else:  # training: the batch's exemplars, once each in first-seen order
        _, first, inverse = np.unique(stores.ids[ent, slot], return_index=True,
                                      return_inverse=True)
        seen = np.argsort(first)
        rank = np.empty_like(seen)
        rank[seen] = np.arange(seen.size)
        shown[pb, pc] = rank[inverse]
        n_shown = seen.size
        parts = [pool.prompts.reshape(-1, d_tok)]
        if seen.size:
            u_ent, u_slot = ent[first[seen]], slot[first[seen]]
            ex_blocks, ex_caches = _encode(
                tr.mapper, {kind: f[u_ent, u_slot] for kind, f in stores.feats.items()})
            parts.append(ex_blocks.reshape(-1, d_tok))
        parts += [scorer.emb, tr.y_mask, q_blocks.reshape(-1, d_tok)]
        table = np.concatenate(parts)
    off_ex = pool.n_t * n_p
    off_emb = off_ex + n_shown * n_ex_rows
    off_mask = off_emb + scorer.v
    off_q = off_mask + n_mask
    if cache.table is not None:
        table[off_q : off_q + n_b * n_ex_rows] = q_blocks.reshape(-1, d_tok)

    # context segments in ascending similarity, optionally shuffled
    order = np.tile(np.arange(n_ctx)[::-1], (n_b, 1))
    if config.shuffle_order:
        order = np.take_along_axis(order, _shuffle_perms(ab_rng, n_b, n_ctx), axis=1)
    ctx_entry = np.take_along_axis(selection[:, 1 : 1 + n_ctx], order, axis=1)
    ctx_shown = np.take_along_axis(shown, order, axis=1)
    ctx_label = np.take_along_axis(label, order, axis=1)

    layout = (ctx_shown >= 0) @ (1 << np.arange(n_ctx))
    ar_p, ar_x = np.arange(n_p), np.arange(n_ex_rows)
    mask_rows = off_mask + np.arange(n_mask)
    groups = []
    for code in np.unique(layout):
        items = np.flatnonzero(layout == code)
        pieces, label_cols = [], []
        for c in range(n_ctx):
            pieces.append(ctx_entry[items, c, None] * n_p + ar_p)
            if code >> c & 1:
                pieces.append(off_ex + ctx_shown[items, c, None] * n_ex_rows + ar_x)
                label_cols.extend(sum(p.shape[1] for p in pieces) + np.arange(n_mask))
                pieces.append(off_emb + cache.label_tokens[ctx_label[items, c]])
        pieces.append(selection[items, 0, None] * n_p + ar_p)  # query segment
        pieces.append(off_q + items[:, None] * n_ex_rows + ar_x)
        pieces.append(np.broadcast_to(mask_rows, (items.size, n_mask)))
        idx = np.concatenate(pieces, axis=1)
        n_rows = idx.shape[1]
        w = position_weights(scorer, n_rows)
        rows = table[idx]
        base = np.matmul(w, rows)
        probs = np.empty((items.size, n_mask, scorer.v))
        for j in range(n_mask):
            pooled = base + rows[:, n_rows - n_mask + j]
            probs[:, j] = softmax(np.matmul(scorer.readout[j], pooled[:, :, None])[:, :, 0])
        groups.append(_Group(items, idx, label_cols, rows, w, base, probs))
    return _Pass(groups=groups, selection=selection, sims=sims, cnorms=cnorms,
                 knorms=knorms, q_blocks=q_blocks, q_caches=q_caches, ex_caches=ex_caches,
                 offsets=(off_ex, off_emb, off_mask, off_q))


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, width) sums of ``rows`` by destination row ``index``; every
    destination adds its rows in input order, as a running ``+=`` does."""
    width = rows.shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n * width).reshape(n, width)


def _item_major(items: list, blocks: list, n_b: int) -> np.ndarray:
    """Per-group blocks (G, K, ...) of the groups' ascending ``items``
    flattened to one (rows, ...) array that runs item by item."""
    if len(blocks) == 1:
        return blocks[0].reshape((-1,) + blocks[0].shape[2:])
    sizes = np.zeros(n_b, dtype=np.int64)
    for its, blk in zip(items, blocks):
        sizes[its] = blk.shape[1]
    starts = np.cumsum(sizes) - sizes
    out = np.empty((sizes.sum(),) + blocks[0].shape[2:], dtype=blocks[0].dtype)
    for its, blk in zip(items, blocks):
        out[starts[its, None] + np.arange(blk.shape[1])] = blk
    return out


def _ordered_sum(values) -> float:
    """Left-to-right float sum, as a running ``+=`` computes it."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _loss_and_grads(batch: _Batch, pool: PromptPool, tr: TrainableSet, config: TrainConfig,
                    ab_rng: SeededRng | None, cache: _PassCache):
    """Mean total loss, gradients keyed as ``TrainableSet.optim_items``, and
    the raw loss parts."""
    fw = _forward(batch, pool, tr, config, ab_rng, cache)
    scorer = tr.scorer
    n_b, d_tok, n_mask = len(batch), scorer.d_tok, scorer.n_mask
    n_ex_rows = fw.q_blocks.shape[1]
    inv = 1.0 / n_b
    tuning = scorer.trainable
    target_rows = cache.label_rows(batch.targets)
    toks = cache.label_tokens[target_rows]
    counts = cache.label_counts[target_rows]

    # prompt-row gradients; the query block rows go straight to d_q, the rest
    # are summed into the token table in item order
    d_q = np.empty_like(fw.q_blocks)
    items, kept_idx, kept_d, d_pos = [], [], [], []
    readout_terms = [[] for _ in range(n_mask)]
    l3 = np.zeros(n_b)
    for g in fw.groups:
        n = g.idx.shape[1]
        d_base = np.zeros((g.items.size, d_tok))
        d_mask = []
        for j in range(n_mask):
            live = np.flatnonzero(counts[g.items] > j)  # padding slots carry no loss
            if not live.size:
                continue
            its, at = g.items[live], np.arange(live.size)
            t = toks[its, j]
            d_logits = g.probs[live, j]
            l3[its] -= np.log(d_logits[at, t])
            d_logits[at, t] -= 1.0
            d_logits *= inv
            if tuning:
                readout_terms[j].append((its, d_logits, g.base[live] + g.rows[live, n - n_mask + j]))
            d_pooled = np.matmul(scorer.readout[j].T, d_logits[:, :, None])[:, :, 0]
            d_base[live] += d_pooled
            d_mask.append((live, j, d_pooled))
        # row r of an item gets w[r] d_base, plus d_pooled_j at mask slot j
        q_at = n - n_mask - n_ex_rows
        d_q[g.items] = np.einsum("n,gd->gnd", g.w[q_at : q_at + n_ex_rows], d_base)
        keep = np.ones(n, dtype=bool)
        keep[q_at : q_at + n_ex_rows] = False
        if not tuning:
            keep[g.label_cols] = False
        cols = np.flatnonzero(keep)  # the mask rows stay last
        d_rows = np.einsum("n,gd->gnd", g.w[cols], d_base)
        for live, j, d_pooled in d_mask:
            d_rows[live, cols.size - n_mask + j] += d_pooled
        items.append(g.items)
        kept_idx.append(g.idx[:, cols])
        kept_d.append(d_rows)
        if tuning:
            g_rows = np.matmul(g.rows, d_base[:, :, None])[:, :, 0]
            wg = np.matmul(g.w[None, None, :], g_rows[:, :, None])[:, 0, 0]
            d_pos.append(g.w * (g_rows - wg[:, None]))

    off_ex, off_emb, off_mask, off_q = fw.offsets
    d_table = _scatter_rows(_item_major(items, kept_idx, n_b),
                            _item_major(items, kept_d, n_b), off_q)
    grads = {"pool.v": d_table[:off_ex].reshape(pool.prompts.shape),
             "y_mask": d_table[off_mask:off_q]}

    # key alignment and the token-norm term, query items only
    query = np.flatnonzero(~batch.replay)
    sims = fw.sims[query]
    l2_sum = _ordered_sum(1.0 - sims.ravel())
    entries = fw.selection[query].ravel()
    u = np.repeat(batch.feats["c"][query] / fw.cnorms[query, None], sims.shape[1], axis=0)
    knorm = fw.knorms[entries, None]
    coeff = config.lam * inv
    terms = coeff * (-(u / knorm) + sims.reshape(-1, 1) * pool.keys[entries] / (knorm * knorm))
    grads["pool.k"] = _scatter_rows(entries, terms, pool.n_t)
    l1_sum = 0.0
    if config.l1_mode == "token_norm" and query.size:
        block = fw.q_blocks[query]
        dev = np.sum(block * block, axis=2) - 1.0
        l1_sum = _ordered_sum(np.mean(dev * dev, axis=1))
        d_q[query] += config.alpha * inv * ((4.0 / n_ex_rows) * dev[:, :, None] * block)

    mapper_grads = init_grads(tr.mapper)
    slices = _kind_slices(tr.mapper)
    d_ex = d_table[off_ex:off_emb].reshape(-1, n_ex_rows, d_tok)
    for kind in KINDS:
        encode_batch_backward(tr.mapper, fw.q_caches[kind], d_q[:, slices[kind], :],
                              mapper_grads)
        if fw.ex_caches is not None:
            encode_batch_backward(tr.mapper, fw.ex_caches[kind], d_ex[:, slices[kind], :],
                                  mapper_grads)
    for name, g in mapper_grads.items():
        grads[f"mapper.{name}"] = g

    if tuning:
        grads["scorer.emb"] = d_table[off_emb:off_mask]
        readout = np.zeros_like(scorer.readout)
        for j, parts in enumerate(readout_terms):
            if parts:
                its = [p[0] for p in parts]
                d_logits = _item_major(its, [p[1][:, None] for p in parts], n_b)
                pooled = _item_major(its, [p[2][:, None] for p in parts], n_b)
                outer = (d_logits[:, :, None] * pooled[:, None, :]).reshape(len(d_logits), -1)
                readout[j] = _scatter_rows(np.zeros(len(outer), dtype=np.int64), outer,
                                           1).reshape(readout[j].shape)
        grads["scorer.readout"] = readout
        positions = [np.broadcast_to(np.arange(p.shape[1]), p.shape) for p in d_pos]
        grads["scorer.pos_weight"] = np.bincount(_item_major(items, positions, n_b),
                                                 weights=_item_major(items, d_pos, n_b),
                                                 minlength=scorer.pos_weight.size)

    l3_sum = _ordered_sum(l3)
    loss = loss_total(l1_sum * inv, l2_sum * inv, l3_sum * inv, config)
    parts = {"l1": l1_sum * inv, "l2": l2_sum * inv, "l3": l3_sum * inv}
    return loss, grads, parts


def batch_loss_and_grads(items, pool: PromptPool, tr: TrainableSet, vocab: PredicateVocab,
                         config: TrainConfig, ab_rng: SeededRng | None = None):
    """Mean total loss over the batch and gradients for every trainable.

    Replayed items contribute only the prediction loss; query items add the
    key-alignment term and, when bound, the auxiliary token-norm term.
    Gradients are keyed as ``TrainableSet.param_items``; the per-entry
    ``pool.v.{i}``/``pool.k.{i}`` arrays are rows of two stacked arrays.
    """
    batch = _stack_sources([it.source for it in items], [it.replay for it in items])
    loss, grads, parts = _loss_and_grads(batch, pool, tr, config, ab_rng,
                                         _PassCache(pool, tr, vocab))
    for name in ("pool.v", "pool.k"):
        grads.update((f"{name}.{i}", row) for i, row in enumerate(grads.pop(name)))
    return loss, grads, parts


def grad_step(tr: TrainableSet, batch, pool: PromptPool, vocab: PredicateVocab,
              config: TrainConfig, opt: AdamW, ab_rng: SeededRng | None = None) -> float:
    """One optimizer step over a batch of (source, replay) items."""
    data = _stack_sources([it.source for it in batch], [it.replay for it in batch])
    loss, grads, _ = _loss_and_grads(data, pool, tr, config, ab_rng,
                                     _PassCache(pool, tr, vocab))
    opt.step(tr, grads, config)
    return loss


# -- stage loop ------------------------------------------------------------------


def stage_quota(pool: PromptPool, n_stages: int) -> int:
    return (pool.n_t * pool.n_e) // n_stages


def train_stage(stage, pool: PromptPool, tr: TrainableSet, vocab: PredicateVocab,
                config: TrainConfig, opt: AdamW, rng: SeededRng,
                quota: int = 0) -> dict:
    """Train on one stage's train split with rehearsal and pool admissions.

    Only this stage's data and the pool are visible here; earlier stages reach
    the loop solely through stored exemplars. ``quota`` admissions are spread
    evenly over the stage's full visit stream (epochs x instances); the
    pool stays untouched when the quota is 0 or the naive path is active.
    """
    config.validate()
    train = list(stage.train)
    if not train:
        raise ValueError("stage train split is empty")
    ab_rng = rng.derive("ablation")
    replay_rng = rng.derive("replay")
    admit_rng = rng.derive("admit")
    order_rng = rng.derive("order")

    total_visits = config.epochs * len(train)
    if config.naive:
        quota = 0
    n_admit = min(quota, total_visits)
    admit_at = sorted({(i * total_visits) // n_admit for i in range(n_admit)})

    rho = config.effective_rho()
    n_re_full = int(round(config.batch_size * rho))
    chunk = max(1, config.batch_size - n_re_full)

    data = _stack_sources(train, np.zeros(len(train), dtype=bool))
    cache = _PassCache(pool, tr, vocab)
    stores = cache.stores
    epoch_losses = []
    visit = next_admit = admitted = 0
    for _ in range(config.epochs):
        order = np.array(order_rng.permutation(len(train)), dtype=np.int64)
        step_losses = []
        for start in range(0, len(order), chunk):
            idxs = order[start : start + chunk]
            end = visit + len(idxs)
            while next_admit < len(admit_at) and admit_at[next_admit] < end:
                entry = admit_exemplar(pool, train[idxs[admit_at[next_admit] - visit]],
                                       admit_rng)
                if entry is not None:
                    admitted += 1
                    stores.invalidate(entry)
                next_admit += 1
            visit = end
            batch = data.take(idxs)
            if rho > 0:
                stores.refresh()
                n_stored = int(stores.lengths.sum())
                if n_stored:
                    want = int(round(len(idxs) * rho / (1.0 - rho)))
                    picks = replay_rng.randint_block(np.full(want, n_stored))
                    batch = batch.concat(stores.replays(picks))
            loss, grads, _ = _loss_and_grads(batch, pool, tr, config, ab_rng, cache)
            opt.step(tr, grads, config)
            step_losses.append(loss)
        epoch_losses.append(float(np.mean(step_losses)))
    steps_per_epoch = (len(train) + chunk - 1) // chunk
    return {"epoch_losses": epoch_losses, "admitted": admitted,
            "steps": config.epochs * steps_per_epoch}


# -- inference --------------------------------------------------------------------


def predict_ranked(instances, pool: PromptPool, tr: TrainableSet, vocab: PredicateVocab,
                   config: TrainConfig, candidates=None, ab_rng: SeededRng | None = None,
                   batch_size: int = 256) -> Rankings:
    """Ranked predicates and their scores for a sequence of instances, one
    ``Rankings`` row per instance.

    Forward-only; never admits or mutates. Pool, mapper and decoder are
    frozen for the whole call, so the stored exemplars are encoded once per
    call, not per batch. Ablation randomness (random prompts/exemplars/order)
    still applies when configured, via ``ab_rng``.
    """
    needs_rng = config.random_prompts or config.random_exemplar or config.shuffle_order
    if needs_rng and ab_rng is None:
        raise ValueError("configured ablations need an rng at inference")
    if not len(instances):
        return rank_predicates_batch(np.empty((0, vocab.n_mask, tr.scorer.v)), vocab,
                                     candidates=candidates)
    data = _stack_sources(instances, np.zeros(len(instances), dtype=bool))
    cache = _PassCache(pool, tr, vocab)
    cache.freeze(pool, tr, config, min(batch_size, len(instances)))
    labels, scores = [], []
    for start in range(0, len(instances), batch_size):
        fw = _forward(data.take(slice(start, start + batch_size)), pool, tr, config,
                      ab_rng, cache)
        ranked = rank_predicates_batch(fw.probs(), vocab, candidates=candidates)
        labels.append(ranked.labels)
        scores.append(ranked.scores)
    return Rankings(np.concatenate(labels), np.concatenate(scores))


# -- checkpoints -------------------------------------------------------------------


def save_checkpoint(path, tr: TrainableSet, config: TrainConfig, pool_path: str) -> None:
    """LSGG-CKPT 1: config echo, pool file reference, and all non-pool arrays."""
    with open(path, "w") as fh:
        fh.write(f"{CKPT_MAGIC} {CKPT_VERSION}\n")
        fh.write(f"pool {pool_path}\n")
        for key in sorted(vars(config)):
            fh.write(f"config {key}={getattr(config, key)}\n")
        fh.write(f"scorer_trainable {int(tr.scorer.trainable)}\n")
        fh.write(f"mapper_meta {tr.mapper.d_tok} {tr.mapper.depth}\n")
        for kind in KINDS:
            fh.write(f"mapper_kind {kind} {tr.mapper.feat_dims[kind]} "
                     f"{tr.mapper.token_counts[kind]} {tr.mapper.proj_counts[kind]}\n")
        for name, arr in tr.checkpoint_items():
            shape = ",".join(str(s) for s in arr.shape)
            fh.write(f"array {name} {shape} {pack_floats(arr)}\n")


class CheckpointFormatError(ValueError):
    pass


def load_checkpoint(path):
    """Returns (arrays by name, config echo dict, pool path, metadata dict)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0].split() != [CKPT_MAGIC, str(CKPT_VERSION)]:
        raise CheckpointFormatError(f"bad checkpoint header: {lines[0] if lines else ''!r}")
    arrays, config_echo, meta = {}, {}, {"kinds": {}}
    pool_path = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tag, _, rest = line.partition(" ")
        if tag == "pool":
            pool_path = rest
        elif tag == "config":
            key, _, val = rest.partition("=")
            config_echo[key] = val
        elif tag == "scorer_trainable":
            meta["scorer_trainable"] = bool(int(rest))
        elif tag == "mapper_meta":
            d_tok, depth = rest.split()
            meta["d_tok"], meta["depth"] = int(d_tok), int(depth)
        elif tag == "mapper_kind":
            kind, d_in, n_tok, l_proj = rest.split()
            meta["kinds"][kind] = (int(d_in), int(n_tok), int(l_proj))
        elif tag == "array":
            name, shape_s, payload = rest.split(" ", 2)
            shape = tuple(int(s) for s in shape_s.split(","))
            arrays[name] = unpack_floats(payload, shape)
        else:
            raise CheckpointFormatError(f"line {lineno}: unknown record {tag!r}")
    if pool_path is None:
        raise CheckpointFormatError("checkpoint is missing its pool reference")
    return arrays, config_echo, pool_path, meta
