"""Feature-to-token mapping: each feature vector becomes a small block of
token embeddings through a per-kind linear projector plus learnable
soft-position vectors,

    block = reshape(W_phi f + b_phi, (n, d_tok)) + p

with n rows for a kind of token count n. Every row has its own projector
weights, so a kind's token count sets how many independent rows it carries.
This is the linear projector of LLaVA (Liu et al., 2023) into the decoder's
token space, with positions added.

Gradients are affine and computed in closed form; ``encode_batch`` /
``encode_batch_backward`` are the batched primitives the trainer uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import SeededRng

KINDS = ("c", "r", "s", "o")


@dataclass
class MapperParams:
    d_tok: int
    feat_dims: dict  # kind -> d_*
    token_counts: dict  # kind -> n_* (rows produced by the projector)
    proj_w: dict  # kind -> (n_*·d_tok, d_*)
    proj_b: dict  # kind -> (n_*·d_tok,)
    pos: dict  # kind -> (n_*, d_tok)

    def param_items(self):
        """Stable (name, array) iteration for optimizers and checkpoints."""
        for kind in KINDS:
            yield f"proj_w.{kind}", self.proj_w[kind]
            yield f"proj_b.{kind}", self.proj_b[kind]
            yield f"pos.{kind}", self.pos[kind]

    def exemplar_rows(self) -> int:
        return sum(self.token_counts[k] for k in KINDS)


def init_mapper(feat_dims: dict, d_tok: int, token_counts: dict, rng: SeededRng) -> MapperParams:
    counts = dict(token_counts)
    if sorted(feat_dims) != sorted(KINDS) or sorted(counts) != sorted(KINDS):
        raise ValueError(f"feature dims and token counts must cover kinds {KINDS}")
    if d_tok < 1 or min(counts.values()) < 1:
        raise ValueError("bad mapper sizes")
    proj_w, proj_b, pos = {}, {}, {}
    for kind in KINDS:
        d_in = feat_dims[kind]
        if d_in < 1:
            raise ValueError(f"bad feature dimension for kind {kind!r}")
        proj_w[kind] = rng.normal((counts[kind] * d_tok, d_in)) / np.sqrt(d_in)
        proj_b[kind] = np.zeros(counts[kind] * d_tok)
        pos[kind] = rng.normal((counts[kind], d_tok)) / np.sqrt(d_tok)
    return MapperParams(d_tok=d_tok, feat_dims=dict(feat_dims), token_counts=counts,
                        proj_w=proj_w, proj_b=proj_b, pos=pos)


def init_grads(params: MapperParams) -> dict:
    return {name: np.zeros_like(arr) for name, arr in params.param_items()}


def encode_batch(params: MapperParams, feats: np.ndarray, kind: str) -> np.ndarray:
    """Map a batch of same-kind features to token blocks (B, n_kind, d_tok)."""
    if kind not in KINDS:
        raise ValueError(f"unknown feature kind {kind!r}")
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    if feats.shape[1] != params.feat_dims[kind]:
        raise ValueError(
            f"kind {kind!r} expects dimension {params.feat_dims[kind]}, got {feats.shape[1]}"
        )
    out = feats @ params.proj_w[kind].T
    out += params.proj_b[kind]
    out = out.reshape(feats.shape[0], params.token_counts[kind], params.d_tok)
    out += params.pos[kind]
    return out


def encode_batch_backward(params: MapperParams, kind: str, feats: np.ndarray,
                          d_out: np.ndarray, grads: dict) -> None:
    """Accumulate into ``grads`` the parameter gradients of the encode of
    ``feats`` (B, d_in) that received ``d_out`` (B, n_kind, d_tok)."""
    grads[f"pos.{kind}"] += d_out.sum(axis=0)
    d_flat = d_out.reshape(feats.shape[0], -1)
    grads[f"proj_w.{kind}"] += d_flat.T @ feats
    grads[f"proj_b.{kind}"] += d_flat.sum(axis=0)
