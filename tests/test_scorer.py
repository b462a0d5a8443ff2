"""Frozen decoder and prompt assembly: vocabulary handling, sequence layout,
probability arithmetic against a direct oracle, and predicate ranking."""

import math

import numpy as np
import pytest

from lsgg.numerics import softmax
from lsgg.rng import SeededRng
from lsgg.scorer import (PAD_TOKEN, build_vocab, default_vocab, init_scorer, load_vocab,
                         position_weights, rank_predicates_batch, save_vocab)
from lsgg.token_mapper import KINDS, encode_batch, init_mapper

import reference_trainer as ref
from conftest import TinyWorld, random_instance
from oracles import AssembledPrompt, assemble_prompt, score


# -- vocabulary ---------------------------------------------------------------


def test_build_vocab_tokenization():
    vocab = build_vocab({0: "on", 1: "sitting on", 2: "under"})
    assert vocab.n_mask == 2
    assert vocab.words == ["on", "sitting", "under"]  # sorted, ids 1..3
    assert vocab.tokens[0] == (1,)
    assert vocab.tokens[1] == (2, 1)  # shared word "on" reuses token id 1
    assert vocab.tokens[2] == (3,)
    assert vocab.token_ids.tolist() == [[1, PAD_TOKEN], [2, 1], [3, PAD_TOKEN]]
    assert vocab.token_counts.tolist() == [1, 2, 1]
    assert vocab.n_labels == 3
    assert vocab.n_word_tokens == 4  # 3 words + padding


def test_build_vocab_rejects_degenerate():
    with pytest.raises(ValueError):
        build_vocab({})
    with pytest.raises(ValueError):
        build_vocab({0: "  "})


@pytest.mark.parametrize("names,missing", [({0: "on", 2: "under"}, 1),
                                           ({-1: "on", 0: "under"}, 1), ({1: "on"}, 0),
                                           ({3: "standing next to", 0: "on", 7: "near"}, 1)])
def test_build_vocab_refuses_ids_other_than_0_to_l(names, missing):
    with pytest.raises(ValueError, match=f": {missing} is missing"):
        build_vocab(names)


def test_vocab_file_round_trip(tmp_path):
    vocab = build_vocab({2: "standing next to", 0: "on", 1: "near"})
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    assert path.read_text().splitlines()[0] == "0 on"
    back = load_vocab(path)
    assert back.words == vocab.words
    assert back.tokens == vocab.tokens
    assert np.array_equal(back.token_ids, vocab.token_ids)
    assert np.array_equal(back.token_counts, vocab.token_counts)


def test_vocab_file_errors(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("0 on\nnotanint word\n")
    with pytest.raises(ValueError, match="line 2"):
        load_vocab(path)
    path.write_text("0 on\n0 under\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_vocab(path)
    path.write_text("5\n")
    with pytest.raises(ValueError, match="line 1"):
        load_vocab(path)
    for text in ("0 on\n2 under\n", "-1 on\n0 under\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=": 1 is missing"):
            load_vocab(path)


def test_default_vocab_single_word_per_label():
    vocab = default_vocab(5)
    assert vocab.n_mask == 1
    assert vocab.n_labels == 5


# -- assembly -----------------------------------------------------------------


def build_assembly_world(two_word=False, k=3, seed=0):
    w = TinyWorld(seed=seed, n_t=6, n_p=8, k_retrieve=k, d_tok=8,
                  two_word_labels=two_word)
    return w


def selection_for(w, k):
    # descending similarities with distinct entries, as retrieval provides
    return [(i, 1.0 - 0.1 * i) for i in range(k)]


def exemplar_block(w, ex):
    """The exemplar's token rows: its features' blocks in ``KINDS`` order."""
    return np.concatenate([encode_batch(w.mapper, getattr(ex, f"f_{kind}"), kind)[0]
                           for kind in KINDS])


def exemplar_pairs(w, selection):
    """(flat store slot, label, token block) per context entry."""
    out = []
    for idx, _ in selection[1:]:
        inst = w.instance(predicate=idx % w.n_pred)
        out.append((idx * w.pool.n_e, inst.predicate, exemplar_block(w, inst)))
    return out


def query_rows(w):
    return exemplar_block(w, w.instance(predicate=0))


def test_assembly_row_arithmetic_defaults():
    # K segments of (n_p prompt + 12 exemplar + n_mask label/mask) rows
    w = build_assembly_world(k=3)
    sel = selection_for(w, 3)
    prompt = assemble_prompt(w.pool, sel, exemplar_pairs(w, sel), query_rows(w),
                             w.y_mask, w.scorer.emb, w.vocab)
    assert w.vocab.n_mask == 1
    assert prompt.n_rows == 3 * (8 + 12 + 1)
    assert len(prompt.mask_positions) == 1

    k1 = assemble_prompt(w.pool, sel[:1], [], query_rows(w), w.y_mask,
                         w.scorer.emb, w.vocab)
    assert k1.n_rows == 8 + 12 + 1


def test_assembly_row_arithmetic_two_mask_slots():
    w = build_assembly_world(two_word=True, k=3)
    assert w.vocab.n_mask == 2
    sel = selection_for(w, 3)
    prompt = assemble_prompt(w.pool, sel, exemplar_pairs(w, sel), query_rows(w),
                             w.y_mask, w.scorer.emb, w.vocab)
    assert prompt.n_rows == 3 * (8 + 12 + 2) == 66
    assert len(prompt.mask_positions) == 2


def test_assembly_orders_context_ascending_query_last():
    w = build_assembly_world(k=4)
    sel = selection_for(w, 4)
    prompt = assemble_prompt(w.pool, sel, exemplar_pairs(w, sel), query_rows(w),
                             w.y_mask, w.scorer.emb, w.vocab)
    prompt.check_invariants()
    segs = prompt.segments
    assert segs[-1].is_query and segs[-1].entry_index == 0
    context_sims = [s.similarity for s in segs[:-1]]
    assert context_sims == sorted(context_sims)  # ascending
    # most similar context segment sits adjacent to the query
    assert segs[-2].similarity == max(context_sims)


def test_assembly_row_content_matches_layout():
    w = build_assembly_world(two_word=True, k=2, seed=3)
    sel = [(2, 0.9), (5, 0.4)]
    pairs = exemplar_pairs(w, sel)
    qrows = query_rows(w)
    prompt = assemble_prompt(w.pool, sel, pairs, qrows, w.y_mask,
                             w.scorer.emb, w.vocab)
    _, label, ex_block = pairs[0]
    padded = tuple(w.vocab.token_ids[label].tolist())  # the oracle pads on its own
    label_rows = w.scorer.emb[list(padded)]
    expect = np.concatenate([
        w.pool.prompts[5], ex_block, label_rows,  # context segment (entry 5)
        w.pool.prompts[2], qrows, w.y_mask,       # query segment (entry 2)
    ])
    assert np.array_equal(prompt.rows, expect)
    seg = prompt.segments[0]
    assert seg.entry_index == 5 and not seg.is_query
    assert seg.label_tokens == padded
    assert prompt.mask_positions == [prompt.n_rows - 2, prompt.n_rows - 1]


def test_assembly_empty_store_drops_exemplar_rows():
    w = build_assembly_world(k=3)
    sel = selection_for(w, 3)
    prompt = assemble_prompt(w.pool, sel, [None, None], query_rows(w), w.y_mask,
                             w.scorer.emb, w.vocab)
    # two prompt-only context segments + full query segment
    assert prompt.n_rows == 8 + 8 + (8 + 12 + 1)
    for seg in prompt.segments[:-1]:
        assert seg.exemplar is None and seg.n_exemplar == 0 and seg.n_label == 0


def test_assembly_rejects_bad_inputs():
    w = build_assembly_world()
    with pytest.raises(ValueError):
        assemble_prompt(w.pool, [], [], query_rows(w), w.y_mask,
                        w.scorer.emb, w.vocab)
    with pytest.raises(ValueError):
        assemble_prompt(w.pool, selection_for(w, 2), [], query_rows(w), w.y_mask,
                        w.scorer.emb, w.vocab)  # missing exemplar slot


# -- decoding -----------------------------------------------------------------


def test_position_weights_uniform_at_zero_init():
    w = build_assembly_world()
    got = position_weights(w.scorer, 10)
    assert np.allclose(got, np.full(10, 0.1), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        position_weights(w.scorer, w.scorer.pos_weight.shape[0] + 1)


def test_score_matches_matrix_arithmetic_oracle():
    w = build_assembly_world(two_word=True, seed=7)
    w.scorer.pos_weight[:] = SeededRng(8).normal(w.scorer.pos_weight.shape[0])
    sel = selection_for(w, 3)
    prompt = assemble_prompt(w.pool, sel, exemplar_pairs(w, sel), query_rows(w),
                             w.y_mask, w.scorer.emb, w.vocab)
    got = score(w.scorer, prompt)
    assert got.shape == (w.vocab.n_mask, w.scorer.v)

    # direct recomputation: softmax over R_j (sum_i w_i row_i + row_mask_j)
    logits_w = w.scorer.pos_weight[: prompt.n_rows]
    exps = np.exp(logits_w - logits_w.max())
    weights = exps / exps.sum()
    pooled_base = weights @ prompt.rows
    for j, mpos in enumerate(prompt.mask_positions):
        pooled = pooled_base + prompt.rows[mpos]
        logits = w.scorer.readout[j] @ pooled
        expect = np.exp(logits - logits.max())
        expect /= expect.sum()
        assert np.allclose(got[j], expect, rtol=1e-12, atol=1e-300)
        assert float(got[j].sum()) == pytest.approx(1.0, abs=1e-9)


def test_score_precomputed_pooling_identical():
    w = build_assembly_world(seed=9)
    sel = selection_for(w, 2)
    prompt = assemble_prompt(w.pool, sel, exemplar_pairs(w, sel), query_rows(w),
                             w.y_mask, w.scorer.emb, w.vocab)
    weights = position_weights(w.scorer, prompt.n_rows)
    base = weights @ prompt.rows
    assert np.array_equal(score(w.scorer, prompt),
                          score(w.scorer, prompt, w=weights, base=base))


def test_score_zero_readout_gives_uniform():
    w = build_assembly_world(seed=10)
    w.scorer.readout[:] = 0.0
    sel = selection_for(w, 2)
    prompt = assemble_prompt(w.pool, sel, exemplar_pairs(w, sel), query_rows(w),
                             w.y_mask, w.scorer.emb, w.vocab)
    got = score(w.scorer, prompt)
    assert np.allclose(got, 1.0 / w.scorer.v, rtol=0, atol=1e-15)


def test_score_validates_shapes():
    w = build_assembly_world()
    sel = selection_for(w, 2)
    prompt = assemble_prompt(w.pool, sel, exemplar_pairs(w, sel), query_rows(w),
                             w.y_mask, w.scorer.emb, w.vocab)
    bad = AssembledPrompt(rows=prompt.rows[:, :4], segments=prompt.segments,
                          mask_positions=prompt.mask_positions)
    with pytest.raises(ValueError):
        score(w.scorer, bad)
    bad2 = AssembledPrompt(rows=prompt.rows, segments=prompt.segments,
                           mask_positions=prompt.mask_positions + [0])
    with pytest.raises(ValueError):
        score(w.scorer, bad2)


def test_frozen_scorer_reproducible_across_runs():
    a = init_scorer(10, 8, 2, 40, SeededRng(11))
    b = init_scorer(10, 8, 2, 40, SeededRng(11))
    assert np.array_equal(a.emb, b.emb)
    assert np.array_equal(a.readout, b.readout)
    assert np.array_equal(a.pos_weight, b.pos_weight)
    assert not a.trainable


# -- ranking ------------------------------------------------------------------


def rank_predicates(dist, vocab, candidates=None) -> list:
    """(label, score) pairs, best first, for one (n_mask, V) distribution."""
    return rank_predicates_batch(np.asarray(dist)[None], vocab, candidates)[0]


def test_rank_single_token_equals_distribution_argsort():
    vocab = default_vocab(4)  # tokens 1..4 for labels 0..3
    dist = np.array([[0.05, 0.3, 0.1, 0.15, 0.4]])
    ranked = rank_predicates(dist, vocab)
    labels = [p for p, _ in ranked]
    by_prob = sorted(range(4), key=lambda p: -dist[0, vocab.tokens[p][0]])
    assert labels == by_prob
    for p, s in ranked:
        assert s == pytest.approx(math.log(dist[0, vocab.tokens[p][0]]), abs=1e-12)


def test_rank_hand_case_two_predicates():
    vocab = build_vocab({0: "a", 1: "b"})  # tokens: a->1, b->2
    dist = np.array([[0.2, 0.5, 0.3]])
    ranked = rank_predicates(dist, vocab)
    assert [p for p, _ in ranked] == [0, 1]
    assert ranked[0][1] == pytest.approx(math.log(0.5), abs=1e-12)
    assert ranked[1][1] == pytest.approx(math.log(0.3), abs=1e-12)


def test_rank_length_normalization_and_padding():
    vocab = build_vocab({0: "x y", 1: "z"})  # n_mask = 2; z is single token
    # slot 0 distribution, slot 1 distribution over tokens (pad, x, y, z)
    dist = np.array([
        [0.1, 0.4, 0.1, 0.4],
        [0.25, 0.25, 0.4, 0.1],
    ])
    ranked = dict(rank_predicates(dist, vocab))
    tx, ty = vocab.tokens[0]
    tz = vocab.tokens[1][0]
    expect0 = (math.log(dist[0, tx]) + math.log(dist[1, ty])) / 2.0
    expect1 = math.log(dist[0, tz]) / 1.0  # padding slot never scored
    assert ranked[0] == pytest.approx(expect0, abs=1e-12)
    assert ranked[1] == pytest.approx(expect1, abs=1e-12)


def test_rank_matches_brute_force_over_random_cases():
    rng = SeededRng(12)
    names = {}
    for p in range(50):
        length = 1 + rng.randint(3)
        names[p] = " ".join(f"w{p}_{i}" for i in range(length))
    vocab = build_vocab(names)
    for _ in range(20):
        raw = rng.normal((vocab.n_mask, vocab.n_word_tokens))
        dist = np.stack([softmax(row) for row in raw])
        ranked = rank_predicates(dist, vocab)

        expect = []
        for p, toks in enumerate(vocab.tokens):
            s = sum(math.log(dist[j, t]) for j, t in enumerate(toks)) / len(toks)
            expect.append((p, s))
        expect.sort(key=lambda item: (-item[1], item[0]))
        assert [p for p, _ in ranked] == [p for p, _ in expect]
        for (pa, sa), (pb, sb) in zip(ranked, expect):
            assert sa == pytest.approx(sb, abs=1e-12)


def test_rank_candidate_filter_and_tie_break():
    vocab = default_vocab(4)
    uniform = np.full((1, 5), 0.2)
    ranked = rank_predicates(uniform, vocab)
    assert [p for p, _ in ranked] == [0, 1, 2, 3]  # exact ties: label id order
    subset = rank_predicates(uniform, vocab, candidates=[3, 1])
    assert [p for p, _ in subset] == [1, 3]


def test_rank_unsorted_candidates_equal_the_oracle():
    rng = SeededRng(13)
    vocab = build_vocab({p: " ".join(f"w{p}_{i}" for i in range(1 + p % 3)) for p in range(6)})
    for _ in range(5):
        dist = np.stack([softmax(row) for row in rng.normal((vocab.n_mask,
                                                              vocab.n_word_tokens))])
        assert rank_predicates(dist, vocab, candidates=[4, 0, 2]) == ref.rank_predicates(
            dist, vocab, candidates=[4, 0, 2])


@pytest.mark.parametrize("bad", [4, -1])  # 4 predicates: ids 0..3
def test_rank_refuses_out_of_range_candidates(bad):
    with pytest.raises(ValueError, match=f"predicate {bad} has no tokens"):
        rank_predicates(np.full((1, 5), 0.2), default_vocab(4), candidates=[0, bad])


def test_rank_validates_distribution_shape():
    vocab = default_vocab(3)
    with pytest.raises(ValueError):
        rank_predicates(np.full((2, 4), 0.25), vocab)  # vocab has n_mask = 1
