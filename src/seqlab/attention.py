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

from dataclasses import dataclass, field as dc_field
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
    with the number of retained pairs instead of n^2. Inference path: not
    recorded on any tape.
    """
    if spec.field is None:
        raise ValueError("sparse_field_attention needs a field mask")
    if q.ndim != 2:
        raise T.ShapeError("sparse_field_attention takes one (n, d) sequence")
    qv = q.values
    kv = k.values
    vv = v.values
    d_h = qv.shape[1]
    d_v = vv.shape[1]
    inv = 1.0 / np.sqrt(d_h)
    out = np.zeros((qv.shape[0], d_v), dtype=qv.dtype)
    for i, cols in enumerate(spec.field_sets()):
        if cols.size == 0:
            raise T.DegenerateRowError(f"field row {i} retains no positions")
        logits = (kv[cols] @ qv[i]) * inv
        logits -= logits.max()
        e = np.exp(logits)
        w = e / e.sum()
        out[i] = w @ vv[cols]
        if counter is not None:
            counter.add(cols.size * d_h)
            counter.add(cols.size * d_v)
    return T.Tensor(out)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class AttentionParams:
    """Head projections and the output merge for one attention block.

    Per head h: W^q_h, W^k_h, W^v_h of shape (d, d/tau), then the merged
    concat is transformed by W_c (d, d). In multi-query mode one shared
    key/value projection replaces the per-head ones.
    """

    def __init__(self, d: int, tau: int, wq: list, wk: list, wv: list,
                 w_out: T.Tensor, multi_query: bool = False,
                 reuse_map: bool = False):
        if d % tau != 0:
            raise ValueError("head count must divide d")
        expect_kv = 1 if multi_query else tau
        if len(wq) != tau or len(wk) != expect_kv or len(wv) != expect_kv:
            raise ValueError("projection list lengths do not match head layout")
        self.d = d
        self.tau = tau
        self.wq = wq
        self.wk = wk
        self.wv = wv
        self.w_out = w_out
        self.multi_query = multi_query
        self.reuse_map = reuse_map

    @property
    def d_head(self) -> int:
        return self.d // self.tau

    @classmethod
    def init(cls, d: int, tau: int, rng: T.Rng, gain: float = 1.0,
             multi_query: bool = False, dtype=np.float32) -> "AttentionParams":
        if d % tau != 0:
            raise ValueError("head count must divide d")
        d_h = d // tau
        wq = [T.xavier_init(d, d_h, gain=gain, rng=rng, dtype=dtype) for _ in range(tau)]
        n_kv = 1 if multi_query else tau
        wk = [T.xavier_init(d, d_h, gain=gain, rng=rng, dtype=dtype) for _ in range(n_kv)]
        wv = [T.xavier_init(d, d_h, gain=gain, rng=rng, dtype=dtype) for _ in range(n_kv)]
        w_out = T.xavier_init(d, d, gain=gain, rng=rng, dtype=dtype)
        return cls(d, tau, wq, wk, wv, w_out, multi_query=multi_query)

    def key_proj(self, h: int) -> T.Tensor:
        return self.wk[0] if self.multi_query else self.wk[h]

    def value_proj(self, h: int) -> T.Tensor:
        return self.wv[0] if self.multi_query else self.wv[h]

    def named(self, prefix: str = ""):
        for h, w in enumerate(self.wq):
            yield f"{prefix}wq{h}", w
        for h, w in enumerate(self.wk):
            yield (f"{prefix}wk_shared" if self.multi_query else f"{prefix}wk{h}"), w
        for h, w in enumerate(self.wv):
            yield (f"{prefix}wv_shared" if self.multi_query else f"{prefix}wv{h}"), w
        yield f"{prefix}w_out", self.w_out


# ---------------------------------------------------------------------------
# Multi-head forms
# ---------------------------------------------------------------------------


def _heads_forward(h_q_src: T.Tensor, h_kv_src: T.Tensor, params: AttentionParams,
                   mask, counter=None, reuse_weights=None, return_weights=False):
    outs = []
    weights_out = []
    shared_kv = None
    for h in range(params.tau):
        q = T.matmul(h_q_src, params.wq[h])
        if params.multi_query:
            if shared_kv is None:
                shared_kv = (T.matmul(h_kv_src, params.wk[0]),
                             T.matmul(h_kv_src, params.wv[0]))
            k, v = shared_kv
        else:
            k = T.matmul(h_kv_src, params.wk[h])
            v = T.matmul(h_kv_src, params.wv[h])
        if reuse_weights is not None:
            w = reuse_weights[h]
            out_h = T.matmul(w, v)
        else:
            out_h, w = qkv_attention(q, k, v, mask, counter=counter,
                                     return_weights=True)
        outs.append(out_h)
        weights_out.append(w)
    merged = T.matmul(T.concat(outs, axis=-1), params.w_out)
    if return_weights:
        return merged, weights_out
    return merged


def multi_head_self(h: T.Tensor, params: AttentionParams, mask=None,
                    counter=None, reuse_weights=None, return_weights=False):
    """Standard multi-head self-attention: concat of per-head outputs, merged."""
    if params.multi_query:
        raise ValueError("params are multi-query; use multi_query_attention")
    return _heads_forward(h, h, params, mask, counter=counter,
                          reuse_weights=reuse_weights, return_weights=return_weights)


def multi_query_attention(h: T.Tensor, params: AttentionParams, mask=None,
                          counter=None, return_weights=False):
    """tau distinct query projections over one shared key/value projection."""
    if not params.multi_query:
        raise ValueError("params lack the multi-query flag")
    return _heads_forward(h, h, params, mask, counter=counter,
                          return_weights=return_weights)


def cross_attention(h_enc: T.Tensor, s_self: T.Tensor, params: AttentionParams,
                    counter=None, return_weights=False):
    """Queries from the decoder side, keys/values from the encoder; no mask."""
    if h_enc.shape[-2] == 0:
        raise EmptySourceError("cross attention against an empty source")
    return _heads_forward(s_self, h_enc, params, mask=None, counter=counter,
                          return_weights=return_weights)


def rpr_attention(h: T.Tensor, params: AttentionParams, rpr: RprTable,
                  mask=None) -> T.Tensor:
    """Multi-head attention with relative-position vectors mixed in.

    Per head: alpha_ij = Softmax((h^q_i + PE^q(i,j))(h^k_j + PE^k(i,j))^T
    / sqrt(d_h)), output row i = sum_j alpha_ij (h^v_j + PE^v(i,j)).
    Disabled roles simply omit their term. h is (..., m, d); leading axes
    are independent sequences sharing the offset tables.
    """
    lead, m = h.shape[:-2], h.shape[-2]
    d_h = params.d_head
    for role in ("q", "k", "v"):
        t = rpr.tables.get(role)
        if t is not None and t.shape[1] != d_h:
            raise ValueError("RPR table width does not match head width")
    offs = rpr.offset_index_matrix(m, m)
    additive, mult, mixture = _mask_parts(mask, m, m)
    if mixture is not None:
        raise ValueError("mixture priors are not defined for RPR attention")

    def pe(role):
        t = rpr.tables.get(role)
        return None if t is None else T.gather_rows(t, offs)  # (m, m, d_h)

    pe_q, pe_k, pe_v = pe("q"), pe("k"), pe("v")
    outs = []
    for head in range(params.tau):
        hq = T.matmul(h, params.wq[head])
        hk = T.matmul(h, params.key_proj(head))
        hv = T.matmul(h, params.value_proj(head))
        q_exp = T.reshape(hq, lead + (m, 1, d_h))
        if pe_q is not None:
            q_exp = q_exp + pe_q
        k_exp = T.reshape(hk, lead + (1, m, d_h))
        if pe_k is not None:
            k_exp = k_exp + pe_k
        logits = T.reduce_sum(q_exp * k_exp, axis=-1) * (1.0 / float(np.sqrt(d_h)))
        if mult is not None:
            logits = logits * mult
        alpha = T.softmax_rows(logits, additive)
        v_exp = T.reshape(hv, lead + (1, m, d_h))
        if pe_v is not None:
            v_exp = v_exp + pe_v
        ctx = T.reduce_sum(T.reshape(alpha, lead + (m, m, 1)) * v_exp, axis=-2)
        outs.append(ctx)
    return T.matmul(T.concat(outs, axis=-1), params.w_out)


# ---------------------------------------------------------------------------
# Cached incremental attention
# ---------------------------------------------------------------------------


class KVCache:
    """Append-only per-layer key/value history for incremental decoding.

    Multi-query layouts store one key/value set per layer; multi-head
    layouts store one per head. Appended rows are never mutated.
    """

    def __init__(self, n_layers: int, tau: int, multi_query: bool = False):
        self.n_layers = n_layers
        self.tau = tau
        self.multi_query = multi_query
        self.n_sets = 1 if multi_query else tau
        self._k = [[[] for _ in range(self.n_sets)] for _ in range(n_layers)]
        self._v = [[[] for _ in range(self.n_sets)] for _ in range(n_layers)]

    def length(self, layer: int = 0) -> int:
        self._check(layer)
        return len(self._k[layer][0])

    def _check(self, layer: int):
        if not 0 <= layer < self.n_layers:
            raise CacheLayerError(f"layer {layer} outside 0..{self.n_layers - 1}")

    def append(self, layer: int, ks: Sequence[T.Tensor], vs: Sequence[T.Tensor]):
        self._check(layer)
        if len(ks) != self.n_sets or len(vs) != self.n_sets:
            raise ValueError("append expects one row per key/value set")
        for s in range(self.n_sets):
            self._k[layer][s].append(ks[s])
            self._v[layer][s].append(vs[s])

    def keys(self, layer: int, s: int) -> T.Tensor:
        self._check(layer)
        return T.concat(self._k[layer][s], axis=0)

    def values_(self, layer: int, s: int) -> T.Tensor:
        self._check(layer)
        return T.concat(self._v[layer][s], axis=0)

    def stored_rows(self) -> int:
        """Total cached rows (keys + values) across layers and sets."""
        total = 0
        for layer in range(self.n_layers):
            for s in range(self.n_sets):
                total += len(self._k[layer][s]) + len(self._v[layer][s])
        return total

    def lengths_consistent(self) -> bool:
        lens = {len(self._k[layer][s])
                for layer in range(self.n_layers) for s in range(self.n_sets)}
        return len(lens) <= 1

    def clone(self) -> "KVCache":
        """Independent copy; cached rows are shared (they are never mutated)."""
        out = KVCache(self.n_layers, self.tau, self.multi_query)
        out._k = [[list(s) for s in layer] for layer in self._k]
        out._v = [[list(s) for s in layer] for layer in self._v]
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
    cache._check(layer)
    t_prev = cache.length(layer)
    additive = None
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (t_prev + 1,):
            raise T.ShapeError("allowed must cover cached positions plus the new one")
        additive = np.where(allowed, 0.0, NEG_INF)[None, :]

    new_ks, new_vs = [], []
    for s in range(cache.n_sets):
        new_ks.append(T.matmul(x_row, params.wk[s]))
        new_vs.append(T.matmul(x_row, params.wv[s]))
    outs = []
    for h in range(params.tau):
        s = 0 if params.multi_query else h
        q = T.matmul(x_row, params.wq[h])
        if t_prev > 0:
            k_full = T.concat([cache.keys(layer, s), new_ks[s]], axis=0)
            v_full = T.concat([cache.values_(layer, s), new_vs[s]], axis=0)
        else:
            k_full, v_full = new_ks[s], new_vs[s]
        outs.append(qkv_attention(q, k_full, v_full, additive))
    cache.append(layer, new_ks, new_vs)
    merged = T.matmul(T.concat(outs, axis=-1), params.w_out)
    return merged, cache
