"""Per-item reference for the batched training and eval passes.

Each item is retrieved, assembled, scored and back-propagated on its own,
one ``assemble_prompt``/``score`` call at a time, and the optimizer updates
each named array with whole-array expressions. This is the plain form of the arithmetic that
``lsgg.trainer`` batches; ``test_batched_equivalence.py`` requires the two to
agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lsgg.prompt_pool import PromptPool
from lsgg.rng import SeededRng
from lsgg.scorer import PredicateVocab, position_weights
from lsgg.token_mapper import KINDS, encode_batch, encode_batch_backward, init_grads
from lsgg.trainer import TrainConfig, TrainableSet, loss_total

from oracles import (Item, RowCache, admit, assemble_prompt, choice_without_replacement,
                     loss_predicate_ce, records_of, score, stored_exemplar)


class AdamW:
    """Dense AdamW over ``param_items()``: one update per named array."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0

    def step(self, trainables: TrainableSet, grads: dict, config: TrainConfig) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, param in trainables.param_items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(param)
            m = self.m.setdefault(name, np.zeros_like(param))
            v = self.v.setdefault(name, np.zeros_like(param))
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            lr = config.lr * (config.scorer_lr_scale if name.startswith("scorer.") else 1.0)
            step = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            param -= lr * (step + config.weight_decay * param)


@dataclass
class _ForwardState:
    prompts: list
    probs: list
    weights: list
    bases: list
    q_blocks: np.ndarray
    q_feats: dict
    uniq_ex: list
    ex_blocks: np.ndarray | None
    ex_feats: dict
    ex_index: dict
    selections: list
    f_cs: list
    cnorms: list
    keys: RowCache


def _kind_slices(mapper):
    slices, start = {}, 0
    for kind in KINDS:
        n = mapper.token_counts[kind]
        slices[kind] = slice(start, start + n)
        start += n
    return slices


class _RetrievalCtx:
    """Key matrix and per-entry store relation rows, valid while the pool is
    unchanged."""

    def __init__(self, pool: PromptPool):
        self.pool = pool
        self.keys = RowCache(pool.keys.copy())
        self._stores: dict = {}

    def store_cache(self, entry_idx: int) -> RowCache:
        cache = self._stores.get(entry_idx)
        if cache is None:
            n = self.pool.store_len[entry_idx]
            cache = RowCache(self.pool.store_feats["r"][entry_idx, :n])
            self._stores[entry_idx] = cache
        return cache


def _select(ctx: _RetrievalCtx, inst, config: TrainConfig, ab_rng):
    pool = ctx.pool
    f_c = np.asarray(inst.f_c, dtype=float)
    cnorm = float(np.linalg.norm(f_c))
    if cnorm == 0.0 or not np.all(np.isfinite(f_c)):
        raise ValueError("query context feature is degenerate")
    sims = ctx.keys.cosines(f_c, cnorm)
    k = min(config.effective_k(), pool.n_t)
    if config.random_prompts:
        chosen = choice_without_replacement(ab_rng, pool.n_t, k)
        chosen.sort(key=lambda i: (-sims[i], i))
        selection = [(int(i), float(sims[i])) for i in chosen]
    else:
        order = np.argsort(-sims, kind="stable")
        selection = [(int(i), float(sims[i])) for i in order[:k]]
    exemplars = []  # flat store slot e * n_e + s of each context segment's exemplar
    if not config.naive:
        f_r = None
        for idx, _ in selection[1:]:
            n = int(pool.store_len[idx])
            if not n:
                exemplars.append(None)
            elif config.random_exemplar:
                exemplars.append(idx * pool.n_e + ab_rng.randint(n))
            else:
                if f_r is None:
                    f_r = np.asarray(inst.f_r, dtype=float)
                    rnorm = float(np.linalg.norm(f_r))
                store_sims = ctx.store_cache(idx).cosines(f_r, rnorm)
                exemplars.append(idx * pool.n_e + int(np.argmax(store_sims)))
    return selection, exemplars, f_c, cnorm


def _forward(items, pool, tr, vocab, config, ab_rng, ctx=None) -> _ForwardState:
    feats = {kind: np.stack([np.asarray(getattr(it.source, f"f_{kind}"), dtype=float)
                             for it in items]) for kind in KINDS}
    q_blocks = np.concatenate([encode_batch(tr.mapper, feats[k], k) for k in KINDS], axis=1)

    if ctx is None:
        ctx = _RetrievalCtx(pool)
    selections, ex_lists, f_cs, cnorms = [], [], [], []
    uniq_ex, ex_index = [], {}
    for it in items:
        selection, exemplars, f_c, cnorm = _select(ctx, it.source, config, ab_rng)
        selections.append(selection)
        ex_lists.append(exemplars)
        f_cs.append(f_c)
        cnorms.append(cnorm)
        for ex in exemplars:
            if ex is not None and ex not in ex_index:
                ex_index[ex] = len(uniq_ex)
                uniq_ex.append(ex)

    ex_blocks, ex_feats = None, {}
    if uniq_ex:
        ent, slot = np.divmod(np.array(uniq_ex), pool.n_e)
        ex_feats = {kind: pool.store_feats[kind][ent, slot] for kind in KINDS}
        ex_blocks = np.concatenate([encode_batch(tr.mapper, ex_feats[k], k) for k in KINDS],
                                   axis=1)

    prompts, probs, weights, bases = [], [], [], []
    for i in range(len(items)):
        pairs = [None if ex is None else
                 (ex, int(pool.store_labels.flat[ex]), ex_blocks[ex_index[ex]])
                 for ex in ex_lists[i]]
        prompt = assemble_prompt(pool, selections[i], pairs, q_blocks[i], tr.y_mask,
                                 tr.scorer.emb, vocab)
        w = position_weights(tr.scorer, prompt.n_rows)
        base = w @ prompt.rows
        prompts.append(prompt)
        probs.append(score(tr.scorer, prompt, w=w, base=base))
        weights.append(w)
        bases.append(base)
    return _ForwardState(prompts=prompts, probs=probs, weights=weights, bases=bases,
                         q_blocks=q_blocks, q_feats=feats, uniq_ex=uniq_ex,
                         ex_blocks=ex_blocks, ex_feats=ex_feats, ex_index=ex_index,
                         selections=selections, f_cs=f_cs, cnorms=cnorms, keys=ctx.keys)


def batch_loss_and_grads(items, pool, tr, vocab, config, ab_rng=None):
    """Mean total loss and per-name gradients, one item at a time."""
    state = _forward(items, pool, tr, vocab, config, ab_rng)
    n = len(items)
    inv = 1.0 / n
    scorer_train = tr.scorer.trainable

    grads = {name: np.zeros_like(arr) for name, arr in tr.param_items()}
    mapper_grads = init_grads(tr.mapper)
    d_q_blocks = np.zeros_like(state.q_blocks)
    d_ex_blocks = None if state.ex_blocks is None else np.zeros_like(state.ex_blocks)

    l2_sum = l3_sum = 0.0
    for i, it in enumerate(items):
        prompt, p = state.prompts[i], state.probs[i]
        w, base = state.weights[i], state.bases[i]
        target = int(it.source.predicate)
        toks = vocab.tokens[target]
        l3_sum += loss_predicate_ce(p, target, vocab)

        d_rows = np.zeros_like(prompt.rows)
        d_base = np.zeros(tr.scorer.d_tok)
        for j, t in enumerate(toks):
            d_logits = p[j].copy()
            d_logits[t] -= 1.0
            d_logits *= inv
            pooled = base + prompt.rows[prompt.mask_positions[j]]
            if scorer_train:
                grads["scorer.readout"][j] += np.outer(d_logits, pooled)
            d_pooled = tr.scorer.readout[j].T @ d_logits
            d_base += d_pooled
            d_rows[prompt.mask_positions[j]] += d_pooled
        d_rows += w[:, None] * d_base[None, :]
        if scorer_train:
            g = prompt.rows @ d_base
            grads["scorer.pos_weight"][: prompt.n_rows] += w * (g - float(w @ g))

        for seg in prompt.segments:
            grads["pool.v"][seg.entry_index] += d_rows[seg.prompt_start:
                                                       seg.prompt_start + seg.n_prompt]
            if seg.is_query:
                d_q_blocks[i] += d_rows[seg.exemplar_start:
                                        seg.exemplar_start + seg.n_exemplar]
            elif seg.exemplar is not None:
                u = state.ex_index[seg.exemplar]
                d_ex_blocks[u] += d_rows[seg.exemplar_start:
                                         seg.exemplar_start + seg.n_exemplar]
                if scorer_train:
                    for pos, tok in enumerate(seg.label_tokens):
                        grads["scorer.emb"][tok] += d_rows[seg.label_start + pos]
        grads["y_mask"] += d_rows[prompt.mask_positions]

        if not it.replay:
            u = state.f_cs[i] / state.cnorms[i]
            coeff = config.lam * inv
            for idx, sim in state.selections[i]:
                l2_sum += 1.0 - sim
                knorm = state.keys.norms[idx]
                k = pool.keys[idx]
                grads["pool.k"][idx] += coeff * (-(u / knorm) + sim * k / (knorm * knorm))

    slices = _kind_slices(tr.mapper)
    for kind in KINDS:
        encode_batch_backward(kind, state.q_feats[kind],
                              d_q_blocks[:, slices[kind], :], mapper_grads)
        if state.uniq_ex:
            encode_batch_backward(kind, state.ex_feats[kind],
                                  d_ex_blocks[:, slices[kind], :], mapper_grads)
    for name, g in mapper_grads.items():
        grads[f"mapper.{name}"] += g

    loss = loss_total(l2_sum * inv, l3_sum * inv, config)
    parts = {"l2": l2_sum * inv, "l3": l3_sum * inv}
    return loss, grads, parts


def train_stage(stage, pool, tr, vocab, config, opt: AdamW, rng: SeededRng,
                quota: int = 0) -> dict:
    """The stage loop with a fresh retrieval context per batch, over the
    train split's rows as instance objects."""
    train = records_of(stage.train)
    ab_rng = rng.derive("ablation")
    replay_rng = rng.derive("replay")
    admit_rng = rng.derive("admit")
    order_rng = rng.derive("order")

    total_visits = config.epochs * len(train)
    if config.naive:
        quota = 0
    n_admit = min(quota, total_visits)
    admit_at = set()
    if n_admit > 0:
        admit_at = {(i * total_visits) // n_admit for i in range(n_admit)}

    rho = config.effective_rho()
    n_re_full = int(round(config.batch_size * rho))
    chunk = max(1, config.batch_size - n_re_full)

    epoch_losses = []
    visit = 0
    admitted = 0
    for _ in range(config.epochs):
        order = order_rng.permutation(len(train))
        step_losses = []
        for start in range(0, len(order), chunk):
            idxs = order[start : start + chunk]
            batch = []
            for idx in idxs:
                inst = train[idx]
                if visit in admit_at:
                    if admit(pool, inst, admit_rng) is not None:
                        admitted += 1
                visit += 1
                batch.append(Item(source=inst, replay=False))
            if rho > 0:
                stored = [(e, s) for e in range(pool.n_t) for s in range(pool.store_len[e])]
                if stored:
                    want = int(round(len(idxs) * rho / (1.0 - rho)))
                    for _ in range(want):
                        e, s = stored[replay_rng.randint(len(stored))]
                        batch.append(Item(source=stored_exemplar(pool, e, s), replay=True))
            loss, grads, _ = batch_loss_and_grads(batch, pool, tr, vocab, config, ab_rng)
            opt.step(tr, grads, config)
            step_losses.append(loss)
        epoch_losses.append(float(np.mean(step_losses)))
    return {"epoch_losses": epoch_losses, "admitted": admitted}


def rank_predicates(dist, vocab: PredicateVocab, candidates=None) -> list:
    labels = vocab.labels() if candidates is None else sorted(candidates)
    with np.errstate(divide="ignore"):
        logdist = np.log(dist)
    scored = []
    for label in labels:
        toks = vocab.tokens[label]
        total = sum(logdist[j, t] for j, t in enumerate(toks))
        scored.append((label, float(total / len(toks))))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def predict_ranked(instances, pool, tr, vocab, config, candidates=None, ab_rng=None,
                   batch_size: int = 256) -> list:
    """Per instance of the table ``instances``, its ranked (label, score) list."""
    out = []
    ctx = _RetrievalCtx(pool)
    instances = records_of(instances)
    for start in range(0, len(instances), batch_size):
        group = [Item(source=inst, replay=False)
                 for inst in instances[start : start + batch_size]]
        state = _forward(group, pool, tr, vocab, config, ab_rng, ctx=ctx)
        for p in state.probs:
            out.append(rank_predicates(p, vocab, candidates=candidates))
    return out
