"""In-context prompt assembly and the frozen decoder that scores mask slots.

The decoder is a seeded, frozen pooled linear readout: for mask slot j the
token rows are condensed to ``pooled_j = sum_i w_i row_i + row_{mask_j}``
(w = softmax of a positional weight vector, all-zero init = uniform mean) and
``p_j = softmax(R_j pooled_j)`` over the word-token vocabulary. Any richer
frozen decoder can replace it behind the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import softmax
from .rng import SeededRng

PAD_TOKEN = 0


@dataclass
class PredicateVocab:
    """Word tokenization for predicate labels over a closed vocabulary.

    Token id 0 is padding; real words get ids 1..n_words in sorted order.
    """

    words: list  # index (token id - 1) -> word
    tokens: dict  # predicate label id -> tuple of token ids (no padding)
    n_mask: int  # max token count over predicates; number of mask slots

    @property
    def n_word_tokens(self) -> int:
        return len(self.words) + 1  # + padding

    def padded(self, predicate: int) -> tuple:
        toks = self.tokens[predicate]
        return toks + (PAD_TOKEN,) * (self.n_mask - len(toks))

    def labels(self) -> list:
        return sorted(self.tokens)

    def token_table(self, labels=None):
        """Padded token ids (L, n_mask) and token counts (L,) of ``labels``
        (default: every label, ascending)."""
        labels = self.labels() if labels is None else list(labels)
        for label in labels:
            if not self.tokens.get(label):
                raise ValueError(f"predicate {label} has no tokens")
        padded = np.array([self.padded(label) for label in labels], dtype=np.int64)
        counts = np.array([len(self.tokens[label]) for label in labels], dtype=np.int64)
        return padded.reshape(len(labels), self.n_mask), counts


def build_vocab(names: dict) -> PredicateVocab:
    """names: predicate label id -> name string (whitespace-separated words)."""
    if not names:
        raise ValueError("empty predicate vocabulary")
    words = sorted({w for name in names.values() for w in name.split()})
    if not words:
        raise ValueError("a predicate has zero words")
    wid = {w: i + 1 for i, w in enumerate(words)}
    tokens = {}
    for label, name in names.items():
        parts = name.split()
        if not parts:
            raise ValueError(f"predicate {label} has zero words")
        tokens[int(label)] = tuple(wid[w] for w in parts)
    n_mask = max(len(t) for t in tokens.values())
    return PredicateVocab(words=words, tokens=tokens, n_mask=n_mask)


def save_vocab(vocab: PredicateVocab, path) -> None:
    inv = {i + 1: w for i, w in enumerate(vocab.words)}
    with open(path, "w") as fh:
        for label in vocab.labels():
            fh.write(f"{label} {' '.join(inv[t] for t in vocab.tokens[label])}\n")


def load_vocab(path) -> PredicateVocab:
    names = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: need '<label_id> <word> [...]'")
            try:
                label = int(parts[0])
            except ValueError:
                raise ValueError(f"line {lineno}: label id must be an integer") from None
            if label in names:
                raise ValueError(f"line {lineno}: duplicate label {label}")
            names[label] = " ".join(parts[1:])
    return build_vocab(names)


def default_vocab(n_pred: int) -> PredicateVocab:
    return build_vocab({p: f"rel{p}" for p in range(n_pred)})


# -- frozen decoder ------------------------------------------------------------


@dataclass
class ScorerParams:
    emb: np.ndarray  # (V, d_tok) word-token embedding table (labels, padding)
    readout: np.ndarray  # (n_mask, V, d_tok) per-mask-slot readout matrices
    pos_weight: np.ndarray  # (max_rows,) positional logit vector; zeros = uniform
    trainable: bool = False  # flipped on only in scorer-finetune mode

    @property
    def v(self) -> int:
        return self.emb.shape[0]

    @property
    def d_tok(self) -> int:
        return self.emb.shape[1]

    @property
    def n_mask(self) -> int:
        return self.readout.shape[0]

    def param_items(self):
        yield "scorer.emb", self.emb
        yield "scorer.readout", self.readout
        yield "scorer.pos_weight", self.pos_weight


def init_scorer(v: int, d_tok: int, n_mask: int, max_rows: int, rng: SeededRng) -> ScorerParams:
    if min(v, d_tok, n_mask, max_rows) < 1:
        raise ValueError("scorer sizes must be >= 1")
    emb = rng.normal((v, d_tok)) / np.sqrt(d_tok)
    readout = rng.normal((n_mask, v, d_tok)) / np.sqrt(d_tok)
    return ScorerParams(emb=emb, readout=readout, pos_weight=np.zeros(max_rows))


# -- assembly ------------------------------------------------------------------


@dataclass
class Segment:
    """One [prompt; exemplar; label] block plus row bookkeeping for backprop."""

    entry_index: int
    similarity: float
    is_query: bool
    prompt_start: int
    n_prompt: int
    exemplar: object = None  # the Exemplar shown in a context segment, if any
    exemplar_start: int = -1
    n_exemplar: int = 0
    label_tokens: tuple = ()  # padded token ids (context segments only)
    label_start: int = -1
    n_label: int = 0


@dataclass
class AssembledPrompt:
    rows: np.ndarray  # (N, d_tok)
    segments: list
    mask_positions: list  # row indices of the mask slots, in slot order

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def check_invariants(self) -> None:
        if not self.segments or not self.segments[-1].is_query:
            raise AssertionError("query segment must be last")
        if any(s.is_query for s in self.segments[:-1]):
            raise AssertionError("query segment must be unique")


def assemble_prompt(pool, selection, exemplars, query_block: np.ndarray,
                    mask_block: np.ndarray, emb: np.ndarray, vocab: PredicateVocab,
                    order_rng: SeededRng | None = None) -> AssembledPrompt:
    """Assemble the in-context token sequence for one query.

    selection: (entry index, similarity) pairs in descending similarity, as
    retrieval returns them; the most similar entry hosts the query segment.
    exemplars: aligned with selection[1:], each (Exemplar, token block) or
    None; None (empty store) drops that segment's exemplar and label rows.
    query_block: the query's encoded feature rows; mask_block: the learnable
    mask-slot rows; emb: frozen embedding table supplying label rows.

    Layout is ascending similarity, so the most similar prompt sits adjacent
    to the query segment, which always comes last. order_rng, when given,
    shuffles context segments (the ordering ablation); the query stays last.
    """
    if len(selection) < 1:
        raise ValueError("need at least one retrieved prompt")
    if len(exemplars) != len(selection) - 1:
        raise ValueError("one exemplar slot per context entry required")
    d_tok = pool.d_tok
    for name, block in (("query", query_block), ("mask", mask_block), ("embedding", emb)):
        if block.ndim != 2 or block.shape[1] != d_tok:
            raise ValueError(f"{name} rows must be 2-D with width {d_tok}")

    context = [(idx, sim, ex) for (idx, sim), ex in zip(selection[1:], exemplars)]
    context.reverse()  # ascending similarity: least similar first
    if order_rng is not None:
        order_rng.shuffle(context)

    parts, segments = [], []
    row = 0

    def push(block) -> int:
        nonlocal row
        parts.append(block)
        start = row
        row += block.shape[0]
        return start

    for entry_idx, sim, ex in context:
        seg = Segment(entry_index=entry_idx, similarity=float(sim), is_query=False,
                      prompt_start=push(pool.prompts[entry_idx]), n_prompt=pool.n_p)
        if ex is not None:
            exemplar, block = ex
            seg.exemplar = exemplar
            seg.exemplar_start = push(block)
            seg.n_exemplar = block.shape[0]
            seg.label_tokens = vocab.padded(exemplar.predicate)
            seg.label_start = push(emb[list(seg.label_tokens)])
            seg.n_label = len(seg.label_tokens)
        segments.append(seg)

    q_idx, q_sim = selection[0]
    qseg = Segment(entry_index=int(q_idx), similarity=float(q_sim), is_query=True,
                   prompt_start=push(pool.prompts[q_idx]), n_prompt=pool.n_p)
    qseg.exemplar_start = push(query_block)
    qseg.n_exemplar = query_block.shape[0]
    mask_start = push(mask_block)
    segments.append(qseg)

    prompt = AssembledPrompt(
        rows=np.concatenate(parts, axis=0),
        segments=segments,
        mask_positions=list(range(mask_start, mask_start + mask_block.shape[0])),
    )
    prompt.check_invariants()
    return prompt


def position_weights(params: ScorerParams, n_rows: int) -> np.ndarray:
    if n_rows > params.pos_weight.shape[0]:
        raise ValueError(
            f"sequence of {n_rows} rows exceeds positional capacity {params.pos_weight.shape[0]}"
        )
    return softmax(params.pos_weight[:n_rows])


def score(params: ScorerParams, x: AssembledPrompt,
          w: np.ndarray = None, base: np.ndarray = None) -> np.ndarray:
    """Per-mask-slot probability rows over the token vocabulary, (n_mask, V).

    Callers that already hold the positional weights w and the pooled row
    base = w @ rows (the training loop reuses both for the backward pass) may
    pass them in; the math is identical either way.
    """
    if x.rows.shape[1] != params.d_tok:
        raise ValueError(f"prompt width {x.rows.shape[1]} != decoder width {params.d_tok}")
    if len(x.mask_positions) != params.n_mask:
        raise ValueError(f"{len(x.mask_positions)} mask rows but decoder expects {params.n_mask}")
    if w is None:
        w = position_weights(params, x.n_rows)
    if base is None:
        base = w @ x.rows
    out = np.empty((params.n_mask, params.v))
    for j, mpos in enumerate(x.mask_positions):
        pooled = base + x.rows[mpos]
        out[j] = softmax(params.readout[j] @ pooled)
    return out


@dataclass
class Rankings:
    """Ranked predicates for N distributions: row i of ``labels`` holds the
    candidate labels best first, and row i of ``scores`` their scores.
    ``rankings[i]`` is row i as a list of (label, score) pairs."""

    labels: np.ndarray  # (N, C) int64
    scores: np.ndarray  # (N, C) float64

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> list:
        return list(zip(self.labels[i].tolist(), self.scores[i].tolist()))


def rank_predicates(distributions: np.ndarray, vocab: PredicateVocab,
                    candidates=None) -> list:
    """Rank predicates by length-normalized summed log-probability.

    Scores each candidate's word tokens against the per-slot distributions
    (slot j scores token j), ignoring padding; ties order by label id.
    Returns (label, score) pairs, best first.
    """
    dist = np.asarray(distributions, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != vocab.n_mask:
        raise ValueError(f"need {vocab.n_mask} distribution rows, got {dist.shape}")
    return rank_predicates_batch(dist[None], vocab, candidates)[0]


def rank_predicates_batch(distributions: np.ndarray, vocab: PredicateVocab,
                          candidates=None) -> Rankings:
    """``rank_predicates`` for a stack of (n_mask, V) distributions at once."""
    dist = np.asarray(distributions, dtype=float)
    if dist.ndim != 3 or dist.shape[1] != vocab.n_mask:
        raise ValueError(f"need (B, {vocab.n_mask}, V) distributions, got {dist.shape}")
    labels = vocab.labels() if candidates is None else sorted(candidates)
    toks, counts = vocab.token_table(labels)
    with np.errstate(divide="ignore"):
        logdist = np.log(dist)
    total = np.zeros((dist.shape[0], len(labels)))
    for j in range(vocab.n_mask):  # slots in order, as a running sum
        scored = j < counts
        total[:, scored] += logdist[:, j, toks[scored, j]]
    scores = total / counts
    order = np.argsort(-scores, axis=1, kind="stable")  # labels ascend: ties by id
    return Rankings(np.asarray(labels, dtype=np.int64)[order],
                    np.take_along_axis(scores, order, axis=1))
