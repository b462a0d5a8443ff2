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
from typing import NamedTuple

import numpy as np

from .ioutil import array_record, data_lines, put_once, read_array
from .numerics import softmax
from .prompt_pool import PromptPool, _relation_norm, admit_exemplar, retrieve_entries
from .rng import SeededRng
from .scorer import (PredicateVocab, Rankings, ScorerParams, position_weights,
                     rank_predicates_batch)
from .token_mapper import (KINDS, MapperParams, encode_batch, encode_batch_backward,
                           init_grads)

CKPT_MAGIC = "LSGG-CKPT"
CKPT_VERSION = 2
EVAL_BATCH = 256  # instances per inference pass


@dataclass
class TrainConfig:
    lam: float = 0.5  # weight of the key-alignment loss
    lr: float = 0.002
    weight_decay: float = 1e-4
    epochs: int = 20
    batch_size: int = 64
    rho: float = 0.25  # fraction of each batch drawn from the pool
    k_retrieve: int = 3
    scorer_lr_scale: float = 0.1  # applied when the decoder is unfrozen
    # ablation switches
    random_prompts: bool = False  # ignore keys, pick K entries at random
    random_exemplar: bool = False  # ignore relation similarity inside stores
    naive: bool = False  # single prompt, no exemplars, no replay, no admissions

    def validate(self) -> None:
        if self.lam < 0:
            raise ValueError("loss weight must be >= 0")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rehearsal ratio must lie in [0, 1)")
        if self.lr < 0:  # lr == 0 is the diagnostic no-op case
            raise ValueError("learning rate must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be >= 0")
        if self.scorer_lr_scale < 0:
            raise ValueError("scorer learning-rate scale must be >= 0")
        if self.epochs < 1 or self.batch_size < 1 or self.k_retrieve < 1:
            raise ValueError("epochs, batch size, and K must be >= 1")
        if self.random_prompts and self.random_exemplar:
            raise ValueError("random_prompts and random_exemplar are separate ablations")

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
        """Every trainable array by name; the pool as its two arrays
        ``pool.v`` (prompts) and ``pool.k`` (keys)."""
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


def loss_total(l2: float, l3: float, config: TrainConfig) -> float:
    for name, val in (("l2", l2), ("l3", l3)):
        if not np.isfinite(val):
            raise ValueError(f"loss component {name} is not finite: {val}")
    return config.lam * l2 + l3


# -- optimizer -------------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay; dense update over all registered
    parameters each step (absent gradients count as zero). Gradients are
    looked up by ``TrainableSet.param_items`` names.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self):
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0
        self._work: dict = {}  # two scratch arrays per parameter

    def step(self, trainables: TrainableSet, grads: dict, config: TrainConfig) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, param in trainables.param_items():
            g = grads.get(name, 0.0)
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
class _Batch:
    feats: dict  # kind -> (B, d_kind)
    targets: np.ndarray  # (B,) predicate ids
    replay: np.ndarray  # (B,) bool

    def __len__(self) -> int:
        return len(self.targets)

    def concat(self, other: "_Batch") -> "_Batch":
        return _Batch({kind: np.concatenate([f, other.feats[kind]])
                       for kind, f in self.feats.items()},
                      np.concatenate([self.targets, other.targets]),
                      np.concatenate([self.replay, other.replay]))


class _Ranking(NamedTuple):
    """Key retrieval of a batch's rows, ``retrieve_entries``' results: top
    (B, k) entries, cosines (B, n_t), context norms (B,), key norms (n_t,)."""

    top: np.ndarray
    sims: np.ndarray
    cnorms: np.ndarray
    knorms: np.ndarray

    def concat(self, other: "_Ranking") -> "_Ranking":
        """The rows of ``self`` then ``other``, ranked against the same keys."""
        return _Ranking(np.concatenate([self.top, other.top]),
                        np.concatenate([self.sims, other.sims]),
                        np.concatenate([self.cnorms, other.cnorms]), self.knorms)


def _retrieve(batch: _Batch, pool: PromptPool, config: TrainConfig) -> _Ranking:
    """The batch's rows ranked by key cosine, K entries each."""
    k = min(config.effective_k(), pool.n_t)
    return _Ranking(*retrieve_entries(pool.keys, batch.feats["c"], k))


def _queries(rows) -> _Batch:
    """The rows of a relation table as query items: features and targets."""
    return _Batch(rows.feats, rows.pred, np.zeros(len(rows), dtype=bool))


def _replays(pool: PromptPool, picks: np.ndarray) -> _Batch:
    """Replayed items at positions ``picks`` of all stores concatenated."""
    ends = np.cumsum(pool.store_len)
    e = np.searchsorted(ends, picks, side="right")
    s = picks - (ends[e] - pool.store_len[e])
    return _Batch({kind: f[e, s] for kind, f in pool.store_feats.items()},
                  pool.store_labels[e, s], np.ones(len(picks), dtype=bool))


def _check_label_tokens(tr: TrainableSet, vocab: PredicateVocab) -> None:
    if vocab.token_ids.max() >= tr.scorer.v:
        raise ValueError(f"label tokens exceed the decoder vocabulary of {tr.scorer.v}")


def _token_table(pool: PromptPool, tr: TrainableSet, ent: np.ndarray, slot: np.ndarray,
                 room: int):
    """The token table every prompt row is gathered from: the prompts, the
    exemplars of store slots (ent, slot) encoded in that order, the label
    embeddings, the mask rows, and room for ``room`` items' query rows.

    Returns (table; slot_rows (n_t, n_e), the exemplar index of each
    encoded slot, -1 elsewhere; the offsets of the exemplars, label
    embeddings, mask rows and query rows; the exemplars' features by kind,
    None when there are none)."""
    d_tok, n_ex_rows = pool.d_tok, tr.mapper.exemplar_rows()
    slot_rows = np.full((pool.n_t, pool.n_e), -1, dtype=np.int64)
    slot_rows[ent, slot] = np.arange(ent.size)
    off_ex = pool.n_t * pool.n_p
    off_emb = off_ex + ent.size * n_ex_rows
    off_mask = off_emb + tr.scorer.v
    off_q = off_mask + tr.y_mask.shape[0]
    table = np.empty((off_q + room * n_ex_rows, d_tok))
    table[:off_ex] = pool.prompts.reshape(-1, d_tok)
    ex_feats = None
    if ent.size:
        ex_feats = {kind: f[ent, slot] for kind, f in pool.store_feats.items()}
        _encode_into(table[off_ex:off_emb].reshape(ent.size, n_ex_rows, d_tok), tr.mapper,
                     ex_feats)
    table[off_emb:off_mask] = tr.scorer.emb
    table[off_mask:off_q] = tr.y_mask
    return table, slot_rows, (off_ex, off_emb, off_mask, off_q), ex_feats


def _freeze_table(pool: PromptPool, tr: TrainableSet, config: TrainConfig, batch_size: int):
    """The token table of one ``predict_ranked`` call, during which pool,
    mapper and decoder do not move, with every filled store slot encoded once
    (when context segments show exemplars) and room for ``batch_size`` items'
    query rows: (table, slot_rows, offsets) of ``_token_table``."""
    filled = np.arange(pool.n_e) < pool.store_len[:, None]
    filled &= _n_context(config, pool) > 0  # else no segment shows an exemplar
    return _token_table(pool, tr, *np.nonzero(filled), batch_size)[:3]


def _kind_slices(mapper: MapperParams):
    slices, start = {}, 0
    for kind in KINDS:
        n = mapper.token_counts[kind]
        slices[kind] = slice(start, start + n)
        start += n
    return slices


def _encode_into(blocks: np.ndarray, mapper: MapperParams, feats: dict) -> None:
    """Write the token blocks of ``feats`` into ``blocks`` (B, rows_ex,
    d_tok), each kind into its rows."""
    for kind, rows in _kind_slices(mapper).items():
        blocks[:, rows] = encode_batch(mapper, feats[kind], kind)


def _random_prompts(ab_rng: SeededRng | None, sims: np.ndarray, k: int) -> np.ndarray:
    """k distinct random entries per row of ``sims``, drawn row by row as a
    partial Fisher-Yates shuffle with ``randint(n_t - i)`` at step i, then
    ordered by descending similarity (ties: lower index first)."""
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


def _nearest_slots(f_r: np.ndarray, entries: np.ndarray, pool: PromptPool) -> np.ndarray:
    """Per (item, entry) pair the store slot with the highest relation-feature
    cosine (ties: earliest slot), -1 for an empty store. Raises ValueError
    for an item with a zero or non-finite ``f_r`` that meets a filled store."""
    lengths = pool.store_len[entries]
    slots = np.full(entries.shape, -1, dtype=np.int64)
    if not lengths.any():
        return slots
    rnorm = np.sqrt(np.vecdot(f_r, f_r))
    compared = rnorm[lengths.any(axis=1)]
    if not np.isfinite(compared).all() or (compared == 0.0).any():
        raise ValueError("query relation feature is degenerate")
    for n in np.unique(lengths[lengths > 0]):  # one BLAS shape per store length
        b, c = np.nonzero(lengths == n)
        ent = entries[b, c]
        sims = np.matmul(pool.store_feats["r"][ent, :n], f_r[b][:, :, None])[:, :, 0]
        sims /= pool.store_rnorm[ent, :n] * rnorm[b, None]
        slots[b, c] = np.argmax(sims, axis=1)
    return slots


def _n_context(config: TrainConfig, pool: PromptPool) -> int:
    """Context segments per prompt: one per retrieved entry after the first."""
    return min(config.effective_k(), pool.n_t) - 1


def _select(batch: _Batch, ranked: _Ranking, pool: PromptPool, config: TrainConfig,
            ab_rng: SeededRng | None):
    """Prompt and exemplar choice for the whole batch from ``ranked``, its
    rows' key retrieval.

    Returns (selection (B, k) entries, query entry first; their key cosines;
    slots (B, k-1): the store slot each context entry shows, -1 if empty).
    """
    top, sims = ranked.top, ranked.sims
    n_ctx = _n_context(config, pool)
    selection = _random_prompts(ab_rng, sims, top.shape[1]) if config.random_prompts else top
    context = selection[:, 1 : 1 + n_ctx]
    if config.random_exemplar:
        slots = _random_slots(ab_rng, pool.store_len[context])
    else:
        slots = _nearest_slots(batch.feats["r"], context, pool)
    return selection, np.take_along_axis(sims, selection, axis=1), slots


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
    ex_feats: dict | None  # None at inference or when no segment shows an exemplar
    offsets: tuple  # token-table starts: exemplars, label embeddings, masks, queries

    def probs(self) -> np.ndarray:
        """(B, n_mask, V) slot distributions in batch order."""
        out = np.empty((len(self.selection),) + self.groups[0].probs.shape[1:])
        for g in self.groups:
            out[g.items] = g.probs
        return out


def _forward(batch: _Batch, ranked: _Ranking, pool: PromptPool, tr: TrainableSet,
             vocab: PredicateVocab, config: TrainConfig, ab_rng: SeededRng | None,
             frozen: tuple | None) -> _Pass:
    """The batch's slot distributions, against the ``_freeze_table`` table
    ``frozen`` at inference, or at training (None) a table of the batch's
    own exemplars."""
    scorer, d_tok, n_p = tr.scorer, pool.d_tok, pool.n_p
    n_b, n_mask = len(batch), tr.y_mask.shape[0]
    if n_mask != scorer.n_mask:
        raise ValueError(f"{n_mask} mask rows but decoder expects {scorer.n_mask}")
    n_ex_rows = tr.mapper.exemplar_rows()
    selection, sims, slots = _select(batch, ranked, pool, config, ab_rng)
    n_ctx = slots.shape[1]

    # the exemplar each context segment shows, as a block of the token table
    pb, pc = np.nonzero(slots >= 0)
    ent, slot = selection[pb, pc + 1], slots[pb, pc]
    label = np.zeros(slots.shape, dtype=np.int64)
    label[pb, pc] = vocab.check_ids(pool.store_labels[ent, slot])
    if frozen is not None:  # inference: every stored exemplar is encoded
        (table, slot_rows, offsets), ex_feats = frozen, None
    else:  # training: the batch's exemplars, once each in first-seen order
        # flat slot e * n_e + s names an exemplar: stores change only between steps
        first = np.sort(np.unique(ent * pool.n_e + slot, return_index=True)[1])
        table, slot_rows, offsets, ex_feats = _token_table(pool, tr, ent[first],
                                                           slot[first], n_b)
    shown = np.full(slots.shape, -1, dtype=np.int64)
    shown[pb, pc] = slot_rows[ent, slot]
    off_ex, off_emb, off_mask, off_q = offsets
    # the query blocks fill the table's whole query room in one product per
    # kind, zero rows padding a short batch: BLAS rounds a product's rows by
    # its row count (one row takes a matrix-vector path, a few rows a
    # small-matrix kernel), so a fixed count keeps an item's numbers
    # independent of its batch
    room = (len(table) - off_q) // n_ex_rows
    feats = {kind: np.concatenate([f, np.zeros((room - n_b, f.shape[1]))])
             for kind, f in batch.feats.items()} if room > n_b else batch.feats
    _encode_into(table[off_q:].reshape(room, n_ex_rows, d_tok), tr.mapper, feats)

    # context segments in ascending similarity
    ctx_entry = selection[:, n_ctx:0:-1]
    ctx_shown = shown[:, ::-1]
    ctx_label = label[:, ::-1]

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
                pieces.append(off_emb + vocab.token_ids[ctx_label[items, c]])
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
    return _Pass(groups=groups, selection=selection, sims=sims, ex_feats=ex_feats,
                 offsets=offsets)


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


def _loss_and_grads(batch: _Batch, ranked: _Ranking, pool: PromptPool, tr: TrainableSet,
                    vocab: PredicateVocab, config: TrainConfig, ab_rng: SeededRng | None):
    """Mean total loss, gradients keyed as ``TrainableSet.param_items``, and
    the raw loss parts, for ``batch`` and its rows' key retrieval ``ranked``."""
    fw = _forward(batch, ranked, pool, tr, vocab, config, ab_rng, None)
    scorer = tr.scorer
    n_b, d_tok, n_mask = len(batch), scorer.d_tok, scorer.n_mask
    n_ex_rows = tr.mapper.exemplar_rows()
    inv = 1.0 / n_b
    tuning = scorer.trainable
    targets = vocab.check_ids(batch.targets)
    toks, counts = vocab.token_ids[targets], vocab.token_counts[targets]

    # prompt-row gradients; the query block rows go straight to d_q, the rest
    # are summed into the token table in item order
    d_q = np.empty((n_b, n_ex_rows, d_tok))
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

    # key alignment, query items only
    query = np.flatnonzero(~batch.replay)
    sims = fw.sims[query]
    l2_sum = _ordered_sum(1.0 - sims.ravel())
    entries = fw.selection[query].ravel()
    u = np.repeat(batch.feats["c"][query] / ranked.cnorms[query, None], sims.shape[1], axis=0)
    knorm = ranked.knorms[entries, None]
    coeff = config.lam * inv
    terms = coeff * (-(u / knorm) + sims.reshape(-1, 1) * pool.keys[entries] / (knorm * knorm))
    grads["pool.k"] = _scatter_rows(entries, terms, pool.n_t)

    mapper_grads = init_grads(tr.mapper)
    slices = _kind_slices(tr.mapper)
    d_ex = d_table[off_ex:off_emb].reshape(-1, n_ex_rows, d_tok)
    for kind in KINDS:
        encode_batch_backward(kind, batch.feats[kind], d_q[:, slices[kind], :], mapper_grads)
        if fw.ex_feats is not None:
            encode_batch_backward(kind, fw.ex_feats[kind], d_ex[:, slices[kind], :], mapper_grads)
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
    loss = loss_total(l2_sum * inv, l3_sum * inv, config)
    parts = {"l2": l2_sum * inv, "l3": l3_sum * inv}
    return loss, grads, parts


# -- stage loop ------------------------------------------------------------------


def stage_quota(pool: PromptPool, n_stages: int) -> int:
    return (pool.n_t * pool.n_e) // n_stages


def train_stage(stage, pool: PromptPool, tr: TrainableSet, vocab: PredicateVocab,
                config: TrainConfig, opt: AdamW, rng: SeededRng,
                quota: int = 0) -> dict:
    """Train on one stage's train split ``stage.train`` (``datastream.Rows``
    or a ``RelationTable``) with rehearsal and pool admissions; each batch
    takes its rows out of the split.

    Only this stage's data and the pool are visible here; earlier stages reach
    the loop solely through stored exemplars. ``quota`` admissions are spread
    evenly over the stage's full visit stream (epochs x instances); the
    pool stays untouched when the quota is 0 or the naive path is active.

    Each step ranks its query rows once, before its admissions. An offered
    row is routed to its top-1 entry in that ranking, its relation norm is
    taken once over the step's offered rows, and the forward pass reads the
    same ranking joined by the replayed rows' own. This is exact: no key
    moves between a step's admissions and its forward pass, and a row's
    cosines and norm have the same bits alone or in a batch. A degenerate
    context feature in any query row of a step, or relation feature in an
    offered row, raises ValueError before any of the step's admissions.
    """
    config.validate()
    train = stage.train
    if not len(train):
        raise ValueError("stage train split is empty")
    ab_rng = rng.derive("ablation")
    replay_rng = rng.derive("replay")
    admit_rng = rng.derive("admit")
    order_rng = rng.derive("order")

    total_visits = config.epochs * len(train)
    if config.naive:
        quota = 0
    n_admit = min(quota, total_visits)
    admit_at = np.arange(n_admit) * total_visits // n_admit  # ascending and distinct

    rho = config.effective_rho()
    n_re_full = int(round(config.batch_size * rho))
    chunk = max(1, config.batch_size - n_re_full)

    _check_label_tokens(tr, vocab)
    epoch_losses = []
    visit = admitted = 0
    for _ in range(config.epochs):
        order = np.array(order_rng.permutation(len(train)), dtype=np.int64)
        step_losses = []
        for start in range(0, len(order), chunk):
            idxs = order[start : start + chunk]
            batch = _queries(train.take(idxs))
            ranked = _retrieve(batch, pool, config)
            end = visit + len(idxs)
            # batch positions of the rows offered in this step
            offered = admit_at[(visit <= admit_at) & (admit_at < end)] - visit
            if offered.size:
                rnorms = _relation_norm(batch.feats["r"][offered])
                for p, rnorm in zip(offered.tolist(), rnorms):
                    feats = {kind: f[p] for kind, f in batch.feats.items()}
                    if admit_exemplar(pool, int(ranked.top[p, 0]), feats,
                                      int(batch.targets[p]), rnorm, admit_rng) is not None:
                        admitted += 1
            visit = end
            if rho > 0:
                n_stored = pool.total_stored()
                if n_stored:
                    want = int(round(len(idxs) * rho / (1.0 - rho)))
                    picks = replay_rng.randint_block(np.full(want, n_stored))
                    replays = _replays(pool, picks)
                    batch = batch.concat(replays)
                    ranked = ranked.concat(_retrieve(replays, pool, config))
            loss, grads, _ = _loss_and_grads(batch, ranked, pool, tr, vocab, config, ab_rng)
            opt.step(tr, grads, config)
            step_losses.append(loss)
        epoch_losses.append(float(np.mean(step_losses)))
    steps_per_epoch = (len(train) + chunk - 1) // chunk
    return {"epoch_losses": epoch_losses, "admitted": admitted,
            "steps": config.epochs * steps_per_epoch}


# -- inference --------------------------------------------------------------------


def predict_ranked(instances, pool: PromptPool, tr: TrainableSet, vocab: PredicateVocab,
                   config: TrainConfig, candidates=None, ab_rng: SeededRng | None = None,
                   batch_size: int = EVAL_BATCH) -> Rankings:
    """The first-ranked predicate of each instance of ``instances``, a split
    (``datastream.Rows``) or a ``RelationTable``, and its score: a
    ``Rankings`` of shape (N, 1).

    Forward-only; never admits or mutates. The call freezes its own state
    once (``_freeze_table``: stored exemplars encoded once) and runs
    ``batch_size`` instances at a time, each batch taking its rows out of
    ``instances``. Every batch's query blocks are encoded as one product of
    ``batch_size`` rows, so an instance's numbers do not depend on its
    batch, and ablation randomness (random prompts/exemplars, via
    ``ab_rng``) is drawn row by row: one call over several splits
    concatenated gives each split what a call of its own would.
    """
    config.validate()
    needs_rng = config.random_prompts or config.random_exemplar
    if needs_rng and ab_rng is None:
        raise ValueError("configured ablations need an rng at inference")
    n = len(instances)
    labels, scores = np.empty((n, 1), dtype=np.int64), np.empty((n, 1))
    if not n:
        return Rankings(labels, scores)
    _check_label_tokens(tr, vocab)
    frozen = _freeze_table(pool, tr, config, batch_size)
    for start in range(0, n, batch_size):
        batch = _queries(instances.take(slice(start, start + batch_size)))
        # only the distributions outlive the pass, so one batch's gathered
        # prompt rows are freed before the next batch gathers its own
        probs = _forward(batch, _retrieve(batch, pool, config), pool, tr, vocab, config, ab_rng,
                         frozen).probs()
        ranked = rank_predicates_batch(probs, vocab, candidates=candidates)
        rows = slice(start, start + len(batch))
        labels[rows], scores[rows] = ranked.labels[:, :1], ranked.scores[:, :1]
    return Rankings(labels, scores)


# -- checkpoints -------------------------------------------------------------------


def save_checkpoint(path, tr: TrainableSet, config_echo: dict, pool_path: str) -> None:
    """LSGG-CKPT 2: the pool file reference, the run's config echo
    (``harness.config_to_kv``), and every non-pool array."""
    with open(path, "w") as fh:
        fh.write(f"{CKPT_MAGIC} {CKPT_VERSION}\n")
        fh.write(f"pool {pool_path}\n")
        for key, val in config_echo.items():
            fh.write(f"config {key}={val}\n")
        for name, arr in tr.checkpoint_items():
            fh.write(array_record(name, arr))


class CheckpointFormatError(ValueError):
    pass


def load_checkpoint(path):
    """Returns (arrays by name, config echo dict, pool path); any malformed
    content, a repeated record among it, raises CheckpointFormatError."""
    lines = data_lines(path)
    _, head = next(lines, (None, ""))
    if head.split() != [CKPT_MAGIC, str(CKPT_VERSION)]:
        raise CheckpointFormatError(f"bad checkpoint header: {head!r}")
    arrays, config_echo, refs = {}, {}, {}
    for lineno, text in lines:
        tag, _, rest = text.partition(" ")
        try:
            if tag == "pool":
                put_once(refs, tag, rest, lineno)
            elif tag == "config":
                key, _, val = rest.partition("=")
                put_once(config_echo, key, val, lineno)
            elif tag == "array":
                read_array(arrays, lineno, rest)
            else:
                raise ValueError(f"line {lineno}: unknown record {tag!r}")
        except ValueError as exc:
            raise CheckpointFormatError(str(exc)) from None
    if "pool" not in refs:
        raise CheckpointFormatError("checkpoint is missing its pool reference")
    return arrays, config_echo, refs["pool"]
