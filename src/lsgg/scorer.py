"""Predicate vocabulary, the frozen decoder that scores mask slots, and
predicate ranking.

The decoder is a seeded, frozen pooled linear readout: for mask slot j the
token rows are condensed to ``pooled_j = sum_i w_i row_i + row_{mask_j}``
(w = softmax of a positional weight vector, all-zero init = uniform mean) and
``p_j = softmax(R_j pooled_j)`` over the word-token vocabulary. Any richer
frozen decoder can replace it behind the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ioutil import data_lines
from .numerics import softmax
from .rng import SeededRng

PAD_TOKEN = 0


@dataclass
class PredicateVocab:
    """Word tokenization for predicate ids 0..L-1 over a closed vocabulary.

    Token id 0 is padding; real words get ids 1..n_words in sorted order.
    A predicate id is the row of its tokens in every label table.
    """

    words: list  # index (token id - 1) -> word
    tokens: tuple  # predicate id -> tuple of token ids (no padding)
    token_ids: np.ndarray  # (L, n_mask) int64 token ids, padded with PAD_TOKEN
    token_counts: np.ndarray  # (L,) int64 token count per predicate

    @property
    def n_word_tokens(self) -> int:
        return len(self.words) + 1  # + padding

    @property
    def n_labels(self) -> int:
        return len(self.tokens)

    @property
    def n_mask(self) -> int:  # max token count over predicates; number of mask slots
        return self.token_ids.shape[1]

    def check_ids(self, predicates) -> np.ndarray:
        """``predicates`` as int64 label-table rows; raises ValueError for an
        id outside 0..L-1, so a negative id never wraps."""
        ids = np.asarray(predicates, dtype=np.int64)
        bad = (ids < 0) | (ids >= self.n_labels)
        if bad.any():
            raise ValueError(f"predicate {ids[bad][0]} has no tokens")
        return ids


def build_vocab(names: dict) -> PredicateVocab:
    """names: predicate id -> name string (whitespace-separated words); the
    ids must be exactly 0..L-1."""
    if not names:
        raise ValueError("empty predicate vocabulary")
    names = {int(label): name for label, name in names.items()}
    missing = set(range(len(names))) - names.keys()
    if missing:
        raise ValueError(f"predicate ids must be 0..{len(names) - 1}: {min(missing)} is missing")
    words = sorted({w for name in names.values() for w in name.split()})
    if not words:
        raise ValueError("a predicate has zero words")
    wid = {w: i + 1 for i, w in enumerate(words)}
    tokens = []
    for label in range(len(names)):
        parts = names[label].split()
        if not parts:
            raise ValueError(f"predicate {label} has zero words")
        tokens.append(tuple(wid[w] for w in parts))
    counts = np.array([len(t) for t in tokens], dtype=np.int64)
    token_ids = np.full((len(tokens), counts.max()), PAD_TOKEN, dtype=np.int64)
    for label, toks in enumerate(tokens):
        token_ids[label, : len(toks)] = toks
    return PredicateVocab(words=words, tokens=tuple(tokens), token_ids=token_ids,
                          token_counts=counts)


def save_vocab(vocab: PredicateVocab, path) -> None:
    inv = {i + 1: w for i, w in enumerate(vocab.words)}
    with open(path, "w") as fh:
        for label, toks in enumerate(vocab.tokens):
            fh.write(f"{label} {' '.join(inv[t] for t in toks)}\n")


def load_vocab(path) -> PredicateVocab:
    names = {}
    for lineno, text in data_lines(path):
        parts = text.split()
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


def position_weights(params: ScorerParams, n_rows: int) -> np.ndarray:
    if n_rows > params.pos_weight.shape[0]:
        raise ValueError(
            f"sequence of {n_rows} rows exceeds positional capacity {params.pos_weight.shape[0]}"
        )
    return softmax(params.pos_weight[:n_rows])


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


def rank_predicates_batch(distributions: np.ndarray, vocab: PredicateVocab,
                          candidates=None) -> Rankings:
    """Rank predicates for a stack of (B, n_mask, V) slot distributions by
    length-normalized summed log-probability.

    Scores each candidate's word tokens against each item's per-slot
    distributions (slot j scores token j), ignoring padding; ties order by
    label id. Row i of the result ranks item i's candidates best first.
    """
    dist = np.asarray(distributions, dtype=float)
    if dist.ndim != 3 or dist.shape[1] != vocab.n_mask:
        raise ValueError(f"need (B, {vocab.n_mask}, V) distributions, got {dist.shape}")
    labels = (np.arange(vocab.n_labels) if candidates is None
              else vocab.check_ids(sorted(candidates)))
    toks, counts = vocab.token_ids[labels], vocab.token_counts[labels]
    with np.errstate(divide="ignore"):
        logdist = np.log(dist)
    total = np.zeros((dist.shape[0], len(labels)))
    for j in range(vocab.n_mask):  # slots in order, as a running sum
        scored = j < counts
        total[:, scored] += logdist[:, j, toks[scored, j]]
    scores = total / counts
    order = np.argsort(-scores, axis=1, kind="stable")  # labels ascend: ties by id
    return Rankings(labels[order], np.take_along_axis(scores, order, axis=1))
