"""Softmax attention in all its configured forms.

One scaled-dot-product core (qkv_attention) drives everything: multi-head
self and cross attention, causal and sparse-field masking, additive and
multiplicative locality priors, relative-position attention, multi-query
attention, and cached incremental decoding.

Masks are described by MaskSpec, which unifies four mechanisms:
  - causal:         -inf strictly above the diagonal
  - field:          boolean retained-position sets per row
  - additive:       arbitrary penalty matrix added to scaled logits
  - multiplicative: matrix in [0,1] multiplied into scaled logits
plus an optional two-branch mixture that blends the score softmax with a
prior softmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .embedding import RprTable


class EmptySourceError(ValueError):
    """Cross attention against an empty encoder output."""


class CacheLayerError(IndexError):
    """A cache was addressed with a layer index it does not hold."""


@dataclass
class OpCounter:
    """Tallies multiply-add work where attention actually spends it."""

    multiply_adds: int = 0

    def add(self, n: int):
        self.multiply_adds += int(n)


# ---------------------------------------------------------------------------
# MaskSpec
# ---------------------------------------------------------------------------


NEG_INF = -np.inf


@dataclass
class MaskSpec:
    """What each query position may attend to, and at what penalty.

    ``field`` is a boolean allowed matrix; ``additive`` may contain -inf;
    ``multiplicative`` entries lie in [0,1]. ``mixture_beta`` switches on
    the blended form (1-beta)*Softmax(scores) + beta*Softmax(mixture_prior),
    with any field/causal structure applied to both branches.
    """

    mode: str = "none"
    additive: Optional[object] = None        # np.ndarray or Tensor
    multiplicative: Optional[np.ndarray] = None
    field: Optional[np.ndarray] = None       # boolean (n_q, n_k)
    gamma: float = 0.0
    mixture_beta: Optional[float] = None
    mixture_prior: Optional[np.ndarray] = None
    sparsity: Optional[float] = None         # retained / n^2 for field masks
    random_pairs: Optional[list] = None      # recorded hybrid random draws

    def field_sets(self) -> list[np.ndarray]:
        """Retained positions per row, as index arrays."""
        if self.field is None:
            raise ValueError("mask has no field component")
        return [np.flatnonzero(row) for row in self.field]

    def field_additive(self) -> Optional[np.ndarray]:
        if self.field is None:
            return None
        out = np.zeros(self.field.shape)
        out[~self.field] = NEG_INF
        return out

    def combine(self, other: "MaskSpec") -> "MaskSpec":
        """Intersection of permissions, sum of penalties, product of gates."""
        if other is None:
            return self
        add_parts = [p for p in (self.additive, other.additive) if p is not None]
        if len(add_parts) == 2:
            additive = T.add(add_parts[0], add_parts[1]) \
                if any(isinstance(p, T.Tensor) for p in add_parts) \
                else add_parts[0] + add_parts[1]
        else:
            additive = add_parts[0] if add_parts else None
        if self.field is not None and other.field is not None:
            fld = self.field & other.field
        else:
            fld = self.field if self.field is not None else other.field
        if self.multiplicative is not None and other.multiplicative is not None:
            mult = self.multiplicative * other.multiplicative
        else:
            mult = (self.multiplicative if self.multiplicative is not None
                    else other.multiplicative)
        beta = self.mixture_beta if self.mixture_beta is not None else other.mixture_beta
        prior = self.mixture_prior if self.mixture_prior is not None else other.mixture_prior
        return MaskSpec(mode="additive", additive=additive, multiplicative=mult,
                        field=fld, gamma=self.gamma + other.gamma,
                        mixture_beta=beta, mixture_prior=prior,
                        random_pairs=self.random_pairs or other.random_pairs)


def causal_mask(n: int) -> MaskSpec:
    """Zeros on and below the diagonal, -inf strictly above it."""
    if n < 1:
        raise ValueError("causal_mask needs n >= 1")
    m = np.zeros((n, n))
    m[np.triu_indices(n, k=1)] = NEG_INF
    return MaskSpec(mode="causal", additive=m)


def local_prior(kind: str, n: int, gamma: float, sigma=None,
                beta: Optional[float] = None) -> MaskSpec:
    """Distance penalty favouring nearby positions.

    kind "abs" uses G(i,j) = |i-j|; kind "gaussian" uses
    G(i,j) = (i-j)^2 / (2 sigma_i^2) with sigma scalar or per-row. The
    penalty enters as -gamma*G. With ``beta`` set, the penalty instead
    forms the prior branch of a two-softmax mixture.
    """
    if gamma < 0:
        raise ValueError("penalty weight gamma must be >= 0")
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    if kind == "abs":
        g = np.abs(i - j).astype(np.float64)
    elif kind == "gaussian":
        if sigma is None:
            raise ValueError("gaussian prior needs sigma")
        sig = np.asarray(sigma, dtype=np.float64)
        if sig.ndim == 1:
            sig = sig[:, None]
        if np.any(sig <= 0):
            raise ValueError("sigma must be positive")
        g = (i - j) ** 2 / (2.0 * sig ** 2)
    else:
        raise ValueError(f"unknown prior kind {kind!r}")
    penalty = -gamma * g
    if beta is not None:
        if not 0.0 <= beta <= 1.0:
            raise ValueError("mixture weight beta must lie in [0,1]")
        return MaskSpec(mode="additive", gamma=gamma,
                        mixture_beta=beta, mixture_prior=penalty)
    return MaskSpec(mode="additive", additive=penalty, gamma=gamma)


def local_decay_matrix(n: int, sigma: float) -> MaskSpec:
    """Multiplicative locality gate in [0,1] with ones on the diagonal."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    g = np.exp(-((i - j) ** 2) / (2.0 * sigma ** 2))
    return MaskSpec(mode="multiplicative", multiplicative=g)


def make_attention_field(pattern: str, n: int, causal: bool = False, *,
                         window: Optional[int] = None,
                         chunk: Optional[int] = None,
                         stride: Optional[int] = None,
                         dilation: int = 1,
                         global_positions: Sequence[int] = (),
                         n_random: int = 0,
                         rng: Optional[T.Rng] = None) -> MaskSpec:
    """Sparse retained-position sets: window, chunked, strided, dilated,
    or a hybrid union of global + window + seeded random positions.

    Decoder use (causal=True) intersects every set with {j <= i}. The
    sparsity ratio retained/n^2 is recorded on the returned MaskSpec.
    """
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    if pattern == "window":
        if window is None or window < 1:
            raise ValueError("window pattern needs window >= 1")
        allowed = np.abs(i - j) <= (window - 1)
    elif pattern == "chunked":
        if chunk is None or chunk < 1:
            raise ValueError("chunked pattern needs chunk >= 1")
        allowed = (i // chunk) == (j // chunk)
    elif pattern == "strided":
        if stride is None or stride < 1:
            raise ValueError("strided pattern needs stride >= 1")
        allowed = ((i - j) % stride) == 0
    elif pattern == "dilated":
        if window is None or window < 1 or dilation < 1:
            raise ValueError("dilated pattern needs window >= 1, dilation >= 1")
        off = np.abs(i - j)
        allowed = (off <= (window - 1) * dilation) & (off % dilation == 0)
    elif pattern == "hybrid":
        w = window if window is not None else 1
        allowed = np.abs(i - j) <= (w - 1)
        for g in global_positions:
            if not 0 <= g < n:
                raise ValueError(f"global position {g} outside sequence")
            allowed[g, :] = True
            allowed[:, g] = True
        pairs = []
        if n_random > 0:
            if rng is None:
                raise ValueError("hybrid random component needs an rng")
            for row in range(n):
                cols = rng.integers(0, n, (n_random,))
                for c in np.atleast_1d(cols):
                    allowed[row, int(c)] = True
                    pairs.append((row, int(c)))
        return _field_spec(allowed, causal, pairs)
    else:
        raise ValueError(f"unknown field pattern {pattern!r}")
    return _field_spec(allowed, causal, None)


def _field_spec(allowed: np.ndarray, causal: bool, pairs) -> MaskSpec:
    n = allowed.shape[0]
    if causal:
        allowed = allowed & (np.arange(n)[None, :] <= np.arange(n)[:, None])
    return MaskSpec(mode="field", field=allowed,
                    sparsity=float(allowed.sum()) / float(n * n),
                    random_pairs=pairs)


def _mask_parts(mask, n_q: int, n_k: int):
    """Normalize a mask argument to (additive, multiplicative, mixture)."""
    if mask is None:
        return None, None, None
    if isinstance(mask, (np.ndarray, T.Tensor)):
        return mask, None, None
    if not isinstance(mask, MaskSpec):
        raise TypeError(f"unsupported mask type {type(mask).__name__}")
    additive = mask.additive
    fld = mask.field_additive() if mask.field is not None else None
    if fld is not None:
        additive = fld if additive is None else (
            T.add(additive, fld) if isinstance(additive, T.Tensor) else additive + fld)
    mixture = None
    if mask.mixture_beta is not None:
        prior = mask.mixture_prior
        if prior is None:
            raise ValueError("mixture mask needs a prior matrix")
        mixture = (mask.mixture_beta, prior)
    return additive, mask.multiplicative, mixture


# ---------------------------------------------------------------------------
# Attention cores
# ---------------------------------------------------------------------------


def qkv_attention(q: T.Tensor, k: T.Tensor, v: T.Tensor, mask=None,
                  scale: Optional[float] = None, counter: Optional[OpCounter] = None,
                  return_weights: bool = False):
    """Softmax(Q K^T / sqrt(d_h) + mask) V.

    Q, K and V are (..., n, d) with matching leading (batch) axes; the
    mask applies to every leading index alike. The scale defaults to the
    square root of the key width actually passed in, so per-head calls
    are scaled by their own head width. Every output row is a convex
    combination of value rows.
    """
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise T.ShapeError("qkv_attention expects Q, K, V with at least 2 axes")
    if q.shape[-1] != k.shape[-1]:
        raise T.ShapeError("query/key widths differ")
    if k.shape[-2] != v.shape[-2]:
        raise T.ShapeError("key/value row counts differ")
    n_q, d_h = q.shape[-2:]
    n_k, d_v = k.shape[-2], v.shape[-1]
    if scale is None:
        scale = float(np.sqrt(d_h))
    additive, mult, mixture = _mask_parts(mask, n_q, n_k)

    scores = T.matmul(q, T.transpose(k)) * (1.0 / scale)
    if mult is not None:
        scores = scores * mult
    if mixture is None:
        weights = T.softmax_rows(scores, additive)
    else:
        beta, prior = mixture
        prior_t = T.Tensor(np.asarray(prior, dtype=np.float64), dtype=q.dtype)
        score_branch = T.softmax_rows(scores, additive)
        prior_branch = T.softmax_rows(prior_t, additive)
        weights = score_branch * (1.0 - beta) + prior_branch * beta
    out = T.matmul(weights, v)
    if counter is not None:
        n_seq = int(np.prod(out.shape[:-2]))
        counter.add(n_seq * n_q * n_k * d_h)  # logits
        counter.add(n_seq * n_q * n_k * d_v)  # weighted sum
    if return_weights:
        return out, weights
    return out


def sparse_field_attention(q: T.Tensor, k: T.Tensor, v: T.Tensor,
                           spec: MaskSpec, counter: Optional[OpCounter] = None) -> T.Tensor:
    """Field attention that only touches retained pairs.

    Row-by-row gather over pi_i; work (and the multiply-add counter) scale
    with the number of retained pairs instead of n^2. Q, K and V are
    (..., n, d) with broadcastable leading (head, batch) axes. Inference
    path: not recorded on any tape.
    """
    if spec.field is None:
        raise ValueError("sparse_field_attention needs a field mask")
    qv = q.values
    kv = k.values
    vv = v.values
    d_h = qv.shape[-1]
    d_v = vv.shape[-1]
    inv = 1.0 / np.sqrt(d_h)
    lead = np.broadcast_shapes(qv.shape[:-2], kv.shape[:-2], vv.shape[:-2])
    n_seq = int(np.prod(lead))
    out = np.zeros(lead + (qv.shape[-2], d_v), dtype=qv.dtype)
    for i, cols in enumerate(spec.field_sets()):
        if cols.size == 0:
            raise T.DegenerateRowError(f"field row {i} retains no positions")
        logits = (kv[..., cols, :] @ qv[..., i, :, None])[..., 0] * inv
        logits -= logits.max(axis=-1, keepdims=True)
        e = np.exp(logits)
        w = e / e.sum(axis=-1, keepdims=True)
        out[..., i, :] = (w[..., None, :] @ vv[..., cols, :])[..., 0, :]
        if counter is not None:
            counter.add(n_seq * cols.size * d_h)
            counter.add(n_seq * cols.size * d_v)
    return T.Tensor(out)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def _swap_last_but_one(x: T.Tensor) -> T.Tensor:
    axes = list(range(x.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return T.transpose(x, axes)


def split_heads(x: T.Tensor, n: int) -> T.Tensor:
    """(..., m, n*d_h) -> (..., n, m, d_h): head j is column block j."""
    return _swap_last_but_one(T.reshape(x, x.shape[:-1] + (n, x.shape[-1] // n)))


def merge_heads(x: T.Tensor) -> T.Tensor:
    """(..., n, m, d_h) -> (..., m, n*d_h), the inverse of split_heads."""
    x = _swap_last_but_one(x)
    return T.reshape(x, x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


class AttentionParams:
    """Projections and the output merge for one attention block.

    Heads are column blocks of one wide projection: W^q is (d, d) and head
    j reads its columns j*d_h .. (j+1)*d_h, with d_h = d/tau. W^k and W^v
    are (d, n_kv*d_h): n_kv = tau key/value heads, or in multi-query mode
    one shared head that broadcasts over the tau query heads. W_c (d, d)
    transforms the merged heads.
    """

    def __init__(self, d: int, tau: int, wq: T.Tensor, wk: T.Tensor,
                 wv: T.Tensor, w_out: T.Tensor, multi_query: bool = False):
        if d % tau != 0:
            raise ValueError("head count must divide d")
        self.d = d
        self.tau = tau
        self.multi_query = multi_query
        kv_shape = (d, self.n_kv * self.d_head)
        if wq.shape != (d, d) or wk.shape != kv_shape or wv.shape != kv_shape:
            raise ValueError("projection shapes do not match head layout")
        self.wq = wq
        self.wk = wk
        self.wv = wv
        self.w_out = w_out

    @property
    def d_head(self) -> int:
        return self.d // self.tau

    @property
    def n_kv(self) -> int:
        """Key/value heads: one in multi-query mode, else one per query head."""
        return 1 if self.multi_query else self.tau

    @classmethod
    def init(cls, d: int, tau: int, rng: T.Rng, gain: float = 1.0,
             multi_query: bool = False, dtype=np.float32) -> "AttentionParams":
        def fused(n_heads):
            # one Xavier draw per (d, d/tau) head block, in head order
            return T.Tensor(np.concatenate(
                [T.xavier_init(d, d // tau, gain=gain, rng=rng, dtype=dtype).values
                 for _ in range(n_heads)], axis=1), trainable=True)

        n_kv = 1 if multi_query else tau
        wq, wk, wv = fused(tau), fused(n_kv), fused(n_kv)
        w_out = T.xavier_init(d, d, gain=gain, rng=rng, dtype=dtype)
        return cls(d, tau, wq, wk, wv, w_out, multi_query=multi_query)

    def project(self, x_q: T.Tensor, x_kv: T.Tensor):
        """Fused Q (..., m_q, d) and K, V (..., m_kv, n_kv*d_h)."""
        return (T.matmul(x_q, self.wq), T.matmul(x_kv, self.wk),
                T.matmul(x_kv, self.wv))

    def split(self, q: T.Tensor, k: T.Tensor, v: T.Tensor):
        """Fused projections cut into heads: (..., tau | n_kv, m, d_h)."""
        return (split_heads(q, self.tau), split_heads(k, self.n_kv),
                split_heads(v, self.n_kv))

    def heads(self, x_q: T.Tensor, x_kv: Optional[T.Tensor] = None):
        """Head-split Q, K, V of x_q attending over x_kv (default x_q)."""
        return self.split(*self.project(x_q, x_q if x_kv is None else x_kv))

    def merge(self, heads: T.Tensor) -> T.Tensor:
        """Concatenate per-head outputs (..., tau, m, d_h) and apply W_c."""
        return T.matmul(merge_heads(heads), self.w_out)

    def named(self, prefix: str = ""):
        yield f"{prefix}wq", self.wq
        yield f"{prefix}wk", self.wk
        yield f"{prefix}wv", self.wv
        yield f"{prefix}w_out", self.w_out


# ---------------------------------------------------------------------------
# Multi-head forms
# ---------------------------------------------------------------------------


def _attend(x_q: T.Tensor, x_kv: T.Tensor, params: AttentionParams, mask,
            counter=None, reuse_weights=None, return_weights=False):
    if reuse_weights is None:
        out, weights = qkv_attention(*params.heads(x_q, x_kv), mask,
                                     counter=counter, return_weights=True)
    else:
        weights = reuse_weights
        out = T.matmul(weights, split_heads(T.matmul(x_kv, params.wv),
                                            params.n_kv))
    merged = params.merge(out)
    return (merged, weights) if return_weights else merged


def multi_head_self(h: T.Tensor, params: AttentionParams, mask=None,
                    counter=None, reuse_weights=None, return_weights=False):
    """Standard multi-head self-attention: concat of per-head outputs, merged.

    The attention weights (returned with ``return_weights``, reused via
    ``reuse_weights``) are one (..., tau, m, m) tensor.
    """
    if params.multi_query:
        raise ValueError("params are multi-query; use multi_query_attention")
    return _attend(h, h, params, mask, counter=counter,
                   reuse_weights=reuse_weights, return_weights=return_weights)


def multi_query_attention(h: T.Tensor, params: AttentionParams, mask=None,
                          counter=None):
    """tau distinct query heads over one shared key/value head."""
    if not params.multi_query:
        raise ValueError("params lack the multi-query flag")
    return _attend(h, h, params, mask, counter=counter)


def cross_attention(h_enc: T.Tensor, s_self: T.Tensor, params: AttentionParams,
                    counter=None):
    """Queries from the decoder side, keys/values from the encoder; no mask."""
    if h_enc.shape[-2] == 0:
        raise EmptySourceError("cross attention against an empty source")
    return _attend(s_self, h_enc, params, mask=None, counter=counter)


def rpr_attention(h: T.Tensor, params: AttentionParams, rpr: RprTable,
                  mask=None) -> T.Tensor:
    """Multi-head attention with relative-position vectors mixed in.

    Per head: alpha_ij = Softmax((h^q_i + PE^q(i,j))(h^k_j + PE^k(i,j))^T
    / sqrt(d_h)), output row i = sum_j alpha_ij (h^v_j + PE^v(i,j)).
    Disabled roles simply omit their term. h is (..., m, d); leading axes
    are independent sequences, and every head shares the offset tables.
    """
    m = h.shape[-2]
    d_h = params.d_head
    for role in ("q", "k", "v"):
        t = rpr.tables.get(role)
        if t is not None and t.shape[1] != d_h:
            raise ValueError("RPR table width does not match head width")
    offs = rpr.offset_index_matrix(m, m)
    additive, mult, mixture = _mask_parts(mask, m, m)
    if mixture is not None:
        raise ValueError("mixture priors are not defined for RPR attention")

    def with_pe(x: T.Tensor, role: str, axis: int) -> T.Tensor:
        # (..., heads, m, d_h) -> (..., heads, m, m, d_h) with a unit axis
        # at ``axis`` broadcasting against PE(i, j) of shape (m, m, d_h)
        x = T.reshape(x, x.shape[:axis] + (1,) + x.shape[axis:])
        t = rpr.tables.get(role)
        return x if t is None else x + T.gather_rows(t, offs)

    q, k, v = params.heads(h)
    logits = T.reduce_sum(with_pe(q, "q", -1) * with_pe(k, "k", -2), axis=-1) \
        * (1.0 / float(np.sqrt(d_h)))
    if mult is not None:
        logits = logits * mult
    alpha = T.softmax_rows(logits, additive)
    ctx = T.reduce_sum(T.reshape(alpha, alpha.shape + (1,))
                       * with_pe(v, "v", -2), axis=-2)
    return params.merge(ctx)


# ---------------------------------------------------------------------------
# Cached incremental attention
# ---------------------------------------------------------------------------


class KVCache:
    """Append-only per-layer key/value history for incremental decoding.

    One key history and one value history per layer; a row holds every
    key/value head side by side (width n_kv*d_h). Appended rows are never
    mutated.
    """

    def __init__(self, n_layers: int):
        self.n_layers = n_layers
        self._k = [[] for _ in range(n_layers)]
        self._v = [[] for _ in range(n_layers)]

    def length(self, layer: int = 0) -> int:
        self._check(layer)
        return len(self._k[layer])

    def _check(self, layer: int):
        if not 0 <= layer < self.n_layers:
            raise CacheLayerError(f"layer {layer} outside 0..{self.n_layers - 1}")

    def append(self, layer: int, k_row: T.Tensor, v_row: T.Tensor):
        self._check(layer)
        self._k[layer].append(k_row)
        self._v[layer].append(v_row)

    def keys(self, layer: int) -> T.Tensor:
        self._check(layer)
        return T.concat(self._k[layer], axis=0)

    def values_(self, layer: int) -> T.Tensor:
        self._check(layer)
        return T.concat(self._v[layer], axis=0)

    def lengths_consistent(self) -> bool:
        return len({len(rows) for rows in self._k + self._v}) <= 1

    def clone(self) -> "KVCache":
        """Independent copy; cached rows are shared (they are never mutated)."""
        out = KVCache(self.n_layers)
        out._k = [list(rows) for rows in self._k]
        out._v = [list(rows) for rows in self._v]
        return out


def attend_step_cached(x_row: T.Tensor, cache: KVCache, params: AttentionParams,
                       layer: int, allowed: Optional[np.ndarray] = None):
    """One decoding step of self-attention at one layer.

    Projects the new row, attends over the cached keys/values plus the new
    pair (causality is implicit: the cache only holds the past), appends
    the new pair, and returns (merged output row, cache).

    ``allowed`` optionally restricts attention to a boolean subset of the
    positions 0..t (window decoding); the current position must stay
    allowed.
    """
    if x_row.ndim != 2 or x_row.shape[0] != 1:
        raise T.ShapeError("attend_step_cached expects a single row (1, d)")
    t_prev = cache.length(layer)
    additive = None
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (t_prev + 1,):
            raise T.ShapeError("allowed must cover cached positions plus the new one")
        additive = np.where(allowed, 0.0, NEG_INF)[None, :]

    q, k_new, v_new = params.project(x_row, x_row)
    k, v = k_new, v_new
    if t_prev > 0:
        k = T.concat([cache.keys(layer), k_new], axis=0)
        v = T.concat([cache.values_(layer), v_new], axis=0)
    cache.append(layer, k_new, v_new)
    out = qkv_attention(*params.split(q, k, v), additive)
    return params.merge(out), cache
