"""Feature-to-token mapping: each feature vector becomes a small block of
token embeddings via a per-kind affine projector, learnable soft-position
vectors, and a shared depth-L token-mixing encoder.

Layer form (applied to the stacked rows X, row mean x_bar):

    X' = tanh(X W + 1 (x_bar U) + b)

so every row sees every other row through the mean term. The projector makes
as many rows as the block reads out; they are followed by the position
vectors, and the block read out is the rows at the position-vector slots
(the tail). The top layer computes only those n rows; its mean term still
spans all 2n. At depth 1 the tail entering it is the position block for
every item, so its product with W is taken once per batch. At depth 0 the
encoder is skipped and the block is reshape(W_phi f + b_phi) + p.

All gradients are computed analytically in closed form; ``encode_batch`` /
``encode_batch_backward`` are the batched primitives the trainer uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import SeededRng

KINDS = ("c", "r", "s", "o")
DEFAULT_TOKEN_COUNTS = {"c": 4, "r": 4, "s": 2, "o": 2}


@dataclass
class MapperParams:
    d_tok: int
    depth: int
    feat_dims: dict  # kind -> d_*
    token_counts: dict  # kind -> n_* (rows produced by the projector and read out)
    proj_w: dict  # kind -> (n_*·d_tok, d_*)
    proj_b: dict  # kind -> (n_*·d_tok,)
    pos: dict  # kind -> (n_*, d_tok)
    mix_w: list  # depth × (d_tok, d_tok)
    mix_u: list  # depth × (d_tok, d_tok)
    mix_b: list  # depth × (d_tok,)

    def param_items(self):
        """Stable (name, array) iteration for optimizers and checkpoints."""
        for kind in KINDS:
            yield f"proj_w.{kind}", self.proj_w[kind]
            yield f"proj_b.{kind}", self.proj_b[kind]
            yield f"pos.{kind}", self.pos[kind]
        for layer in range(self.depth):
            yield f"mix_w.{layer}", self.mix_w[layer]
            yield f"mix_u.{layer}", self.mix_u[layer]
            yield f"mix_b.{layer}", self.mix_b[layer]

    def exemplar_rows(self) -> int:
        return sum(self.token_counts[k] for k in KINDS)


def init_mapper(feat_dims: dict, d_tok: int = 64, token_counts=None, depth: int = 1,
                rng: SeededRng | None = None) -> MapperParams:
    if rng is None:
        raise ValueError("init_mapper requires an rng")
    counts = dict(DEFAULT_TOKEN_COUNTS if token_counts is None else token_counts)
    if sorted(feat_dims) != sorted(KINDS) or sorted(counts) != sorted(KINDS):
        raise ValueError(f"feature dims and token counts must cover kinds {KINDS}")
    if depth < 0 or d_tok < 1 or min(counts.values()) < 1:
        raise ValueError("bad mapper sizes")
    proj_w, proj_b, pos = {}, {}, {}
    for kind in KINDS:
        d_in = feat_dims[kind]
        if d_in < 1:
            raise ValueError(f"bad feature dimension for kind {kind!r}")
        proj_w[kind] = rng.normal((counts[kind] * d_tok, d_in)) / np.sqrt(d_in)
        proj_b[kind] = np.zeros(counts[kind] * d_tok)
        pos[kind] = rng.normal((counts[kind], d_tok)) / np.sqrt(d_tok)
    mix_w = [rng.normal((d_tok, d_tok)) / np.sqrt(d_tok) for _ in range(depth)]
    mix_u = [rng.normal((d_tok, d_tok)) / np.sqrt(d_tok) for _ in range(depth)]
    mix_b = [np.zeros(d_tok) for _ in range(depth)]
    return MapperParams(
        d_tok=d_tok, depth=depth, feat_dims=dict(feat_dims), token_counts=counts,
        proj_w=proj_w, proj_b=proj_b, pos=pos,
        mix_w=mix_w, mix_u=mix_u, mix_b=mix_b,
    )


def init_grads(params: MapperParams) -> dict:
    return {name: np.zeros_like(arr) for name, arr in params.param_items()}


@dataclass
class MapperKindCache:
    kind: str
    feats: np.ndarray  # (B, d_in)
    # X_0..X_depth, post-activation: (B, 2n, d_tok) below the top, and the top
    # X_depth only the read-out rows, (B, n, d_tok)
    states: list
    means: list = field(default_factory=list)  # row mean of each layer input, (B, d_tok)


def encode_batch(params: MapperParams, feats: np.ndarray, kind: str):
    """Map a batch of same-kind features to token blocks.

    Returns (out, cache): out is (B, n_kind, d_tok); the cache feeds
    ``encode_batch_backward``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown feature kind {kind!r}")
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    if feats.shape[1] != params.feat_dims[kind]:
        raise ValueError(
            f"kind {kind!r} expects dimension {params.feat_dims[kind]}, got {feats.shape[1]}"
        )
    b = feats.shape[0]
    n = params.token_counts[kind]
    proj = feats @ params.proj_w[kind].T
    proj += params.proj_b[kind]
    proj = proj.reshape(b, n, params.d_tok)
    if params.depth == 0:
        out = proj + params.pos[kind]
        cache = MapperKindCache(kind=kind, feats=feats, states=[out])
        return out, cache
    x = np.empty((b, 2 * n, params.d_tok))
    x[:, :n] = proj
    x[:, n:] = params.pos[kind]
    cache = MapperKindCache(kind=kind, feats=feats, states=[x])
    for layer in range(params.depth):
        mean = np.add.reduce(x, axis=1)  # (B, d_tok) row mean, as x.mean(axis=1)
        mean /= 2 * n
        w = params.mix_w[layer]
        if layer < params.depth - 1:
            z = x @ w
        elif layer == 0:  # every item's tail is the position block
            z = np.empty((b, n, params.d_tok))
            z[:] = (x[0] @ w)[n:]
        else:  # a one-row product is a gemv, which rounds apart from a gemm row
            z = (x[:, n - (n == 1):] @ w)[:, -n:]
        z += (mean @ params.mix_u[layer])[:, None, :]
        z += params.mix_b[layer]
        x = np.tanh(z, out=z)
        cache.means.append(mean)
        cache.states.append(x)
    return x, cache


def encode_batch_backward(params: MapperParams, cache: MapperKindCache,
                          d_out: np.ndarray, grads: dict) -> None:
    """Accumulate parameter gradients for one batched encode into ``grads``."""
    kind = cache.kind
    b = cache.feats.shape[0]
    n = params.token_counts[kind]
    if params.depth == 0:
        d_proj = d_out
        grads[f"pos.{kind}"] += d_out.sum(axis=0)
    else:
        rows = 2 * n
        d_x = None
        for layer in range(params.depth - 1, -1, -1):
            x_out = cache.states[layer + 1]
            x_in = cache.states[layer]
            w = params.mix_w[layer]
            top = d_x is None
            if top:  # only the read-out rows carry gradient; x_out holds just those
                d_z = np.zeros_like(x_in)
                tail = x_out * x_out
                np.subtract(1.0, tail, out=tail)
                tail *= d_out
                d_z[:, n:] = tail
            else:
                d_z = x_out * x_out
                np.subtract(1.0, d_z, out=d_z)
                d_z *= d_x
            dz_rowsum = d_z.sum(axis=1)  # (B, d_tok)
            mean = cache.means[layer]
            # over all 2n rows: without d_z's zero head rows the product blocks
            # its sum differently, and its bits change
            grads[f"mix_w.{layer}"] += (x_in.reshape(-1, params.d_tok).T
                                        @ d_z.reshape(-1, params.d_tok))
            grads[f"mix_u.{layer}"] += mean.T @ dz_rowsum
            grads[f"mix_b.{layer}"] += dz_rowsum.sum(axis=0)
            d_mean = (dz_rowsum @ params.mix_u[layer].T)[:, None, :] / rows
            if top:  # the head rows of d_z are zero: their d_x is the mean term
                d_x = np.empty_like(x_in)
                d_x[:, :n] = d_mean
                # per item, and 2 rows for a one-token kind, as in encode_batch
                d_x[:, n:] = (d_z[:, n - (n == 1):] @ w.T)[:, -n:]
                d_x[:, n:] += d_mean
            else:
                d_x = d_z @ w.T
                d_x += d_mean
        d_proj = d_x[:, :n, :]
        grads[f"pos.{kind}"] += d_x[:, n:, :].sum(axis=0)
    d_flat = d_proj.reshape(b, n * params.d_tok)
    grads[f"proj_w.{kind}"] += d_flat.T @ cache.feats
    grads[f"proj_b.{kind}"] += d_flat.sum(axis=0)
