"""Softmax attention in all its configured forms.

One scaled-dot-product core, the fused op ``tensor.attention``, drives
everything: multi-head self and cross attention, causal masking,
blocked sliding-window attention, cached attention of a block of new
positions over a history, and ``qkv_attention`` on heads split
beforehand. It cuts Q, K and V into heads as views of column blocks of
its inputs, and returns the heads merged, in one op. Multi-query
attention (one key/value head), width reduction (lowrank-d:
``reduce_width`` maps the block's own query and key heads to Q U^q and
K U^kd, which the op scores at the full heads' 1/sqrt(d_h)) and map
reuse (the first layer's op hands out its weights; a later layer
projects V alone and its op applies them) all run through the same op.
Relative-position attention is the one composite left (rpr_attention).

Each block's Q, K and V projections are column blocks of one matrix
W^qkv: self-attention projects with one product and attends over the
result's columns; cross attention multiplies the decoder rows by the
query columns and the encoder rows by the key/value columns; a cached
step writes its key and value columns into the KV cache and reads the
cached rows in place.

Every ``mask`` argument is None, or an additive array or Tensor on the
scaled logits, Softmax(Q K^T / sqrt(d_h) + Mask) V: -inf where a pair is
forbidden (``causal_mask`` is -inf strictly above the diagonal), and
masks combine by ``+``. A sliding window is not a mask on the full
score matrix: ``window_attention`` cuts the positions into blocks of w,
the window, and block b's queries attend over the keys of blocks b-1
and b (and b+1 when not causal) under one band mask, in one op. Its
work, and the multiply-adds an OpCounter tallies for it, are those of
the band blocks it computes, linear in the length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import efficient as EF
from . import tensor as T
from .embedding import RprTable


class EmptySourceError(ValueError):
    """Cross attention against an empty encoder output."""


class CacheLayerError(IndexError):
    """A cache was addressed with a layer index it does not hold."""


class StateError(RuntimeError):
    """A decode session's cached state disagrees with its token prefix."""


@dataclass
class OpCounter:
    """Tallies multiply-add work where attention actually spends it."""

    multiply_adds: int = 0

    def add(self, n: int):
        self.multiply_adds += int(n)


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------


NEG_INF = -np.inf


def causal_mask(n: int) -> np.ndarray:
    """The (n, n) additive causal mask: zeros on and below the diagonal,
    -inf strictly above it."""
    if n < 1:
        raise ValueError("causal_mask needs n >= 1")
    m = np.zeros((n, n))
    m[np.triu_indices(n, k=1)] = NEG_INF
    return m


# ---------------------------------------------------------------------------
# Attention cores
# ---------------------------------------------------------------------------


def _tally(counter: Optional[OpCounter], rows: tuple, n_k: int, d_k: int,
           d_v: int):
    """Count attention's work: the logits and the weighted sum of the
    query rows of every head, prod(rows) of them, over n_k keys."""
    if counter is not None:
        n = math.prod(rows)
        counter.add(n * n_k * d_k)
        counter.add(n * n_k * d_v)


def qkv_attention(q: T.Tensor, k: T.Tensor, v: T.Tensor, mask=None,
                  scale: Optional[float] = None, counter: Optional[OpCounter] = None,
                  return_weights: bool = False):
    """Softmax(Q K^T / sqrt(d_h) + mask) V.

    Q, K and V are (..., n, d) with matching leading (batch) axes; the
    mask applies to every leading index alike. The scale defaults to the
    square root of the key width actually passed in, so per-head calls
    are scaled by their own head width. Every output row is a convex
    combination of value rows. One ``tensor.attention`` op computes it,
    and raises ShapeError on inputs that do not fit; ``return_weights``
    also returns the op's (..., m, n) weights.
    """
    d_h = q.shape[-1]
    if scale is None:
        scale = float(np.sqrt(d_h))
    out = T.attention(q, k, v, mask=mask, scale=1.0 / scale, keep=return_weights)
    if return_weights:                       # one head: drop its axis
        out, w = out
        w = T.reshape(w, w.shape[:-3] + w.shape[-2:])
    _tally(counter, out.shape[:-1], k.shape[-2], d_h, v.shape[-1])
    return (out, w) if return_weights else out


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def split_heads(x: T.Tensor, n: int, cols: Optional[tuple] = None,
                stored: Optional[np.ndarray] = None) -> T.Tensor:
    """(..., m, n*d_h) -> (..., n, m, d_h): head j is column block j.

    With ``cols`` = (lo, hi) only columns lo..hi-1 of x are cut into
    heads, without a copy; the other columns get a zero gradient. With
    ``stored``, an array (..., t, hi - lo) whose last m rows hold those
    columns (a KV cache after x's block was written), the heads are read
    from it in place: the gradient of its last m rows flows back to x's
    columns, and the earlier rows are constants.
    """
    shape, m = x.shape, x.shape[-2]
    lo, hi = (0, shape[-1]) if cols is None else cols

    def inverse(g):
        gx = np.zeros(shape, dtype=g.dtype)
        T.head_view(gx[..., lo:hi], n)[...] = g[..., -m:, :]
        return gx

    if stored is None:
        return T.relayout(x, lambda a: T.head_view(a[..., lo:hi], n), inverse)
    return T.relayout(x, lambda _: T.head_view(stored, n), inverse)


def qkv_blocks(shape: tuple) -> tuple:
    """The column ranges of W^q, W^k and W^v in a fused W^qkv of this
    shape: W^q is d wide and W^k, W^v split the rest equally."""
    d, width = shape
    kv_end = d + (width - d) // 2
    return (0, d), (d, kv_end), (kv_end, width)


class AttentionParams:
    """Projections and the output merge for one attention block.

    One trainable W^qkv of shape (d, d + 2*n_kv*d_h) holds the three input
    projections side by side, columns [W^q | W^k | W^v], so self-attention
    projects its input with one product. Heads are column blocks within
    each: W^q is d wide and head j reads its columns j*d_h .. (j+1)*d_h,
    with d_h = d/tau. W^k and W^v are n_kv*d_h wide, and n_kv is read from
    that width: tau key/value heads, or one shared head that broadcasts
    over the tau query heads (multi-query attention). W_c (d, d) transforms
    the merged heads. ``wq``, ``wk`` and ``wv`` read W^qkv's blocks. With
    ``reduce`` set (LowRankProjections u_q, u_kd), query and key heads are
    reduced after the product (see self_attention).
    """

    def __init__(self, d: int, tau: int, w_qkv: T.Tensor, w_out: T.Tensor,
                 reduce: Optional[EF.LowRankProjections] = None):
        if d % tau != 0:
            raise ValueError("head count must divide d")
        self.d = d
        self.tau = tau
        # key/value heads; T.attention serves one per query head, or one
        self.n_kv = (w_qkv.shape[-1] - d) // (2 * self.d_head)
        if self.n_kv not in (1, tau) \
                or w_qkv.shape != (d, d + 2 * self.n_kv * self.d_head) \
                or w_out.shape != (d, d):
            raise ValueError("projection shapes do not match head layout")
        self.w_qkv = w_qkv
        self.w_out = w_out
        self.cols = qkv_blocks(w_qkv.shape)
        self.q_cols, self.k_cols, self.v_cols = self.cols
        self.head_counts = tau, self.n_kv       # query heads, key/value heads
        self.reduce = reduce                    # lowrank-d's u_q, u_kd

    @classmethod
    def from_blocks(cls, d: int, tau: int, wq: T.Tensor, wk: T.Tensor,
                    wv: T.Tensor, w_out: T.Tensor) -> "AttentionParams":
        """Params whose W^qkv is a new trainable [wq | wk | wv]; wk's width
        gives the key/value head count."""
        if wk.shape != wv.shape:
            raise ValueError("projection shapes do not match head layout")
        w_qkv = np.concatenate([wq.values, wk.values, wv.values], axis=1)
        return cls(d, tau, T.Tensor(w_qkv, trainable=True), w_out)

    @property
    def d_head(self) -> int:
        return self.d // self.tau

    def _block(self, cols: tuple) -> T.Tensor:
        return T.take(self.w_qkv, (slice(None), slice(*cols)))

    @property
    def wq(self) -> T.Tensor:
        """W^q, a view of W^qkv's first d columns."""
        return self._block(self.q_cols)

    @property
    def wk(self) -> T.Tensor:
        return self._block(self.k_cols)

    @property
    def wv(self) -> T.Tensor:
        return self._block(self.v_cols)

    @classmethod
    def init(cls, d: int, tau: int, rng: T.Rng, gain: float = 1.0,
             n_kv: Optional[int] = None, dtype=np.float32,
             reduced: Optional[int] = None) -> "AttentionParams":
        """Xavier-drawn params with n_kv key/value heads: tau by default,
        or 1 for multi-query attention; with ``reduced`` = d', lowrank-d's
        (d_h, d') u_q and u_kd, drawn last."""
        def fused(n_heads):
            # one Xavier draw per (d, d/tau) head block, in head order
            return [T.xavier_init(d, d // tau, gain=gain, rng=rng, dtype=dtype).values
                    for _ in range(n_heads)]

        n_kv = tau if n_kv is None else n_kv
        w_qkv = np.concatenate(fused(tau) + fused(n_kv) + fused(n_kv), axis=1)
        w_out = T.xavier_init(d, d, gain=gain, rng=rng, dtype=dtype)
        reduce = None if reduced is None else EF.LowRankProjections(
            u_q=T.xavier_init(d // tau, reduced, rng=rng, dtype=dtype),
            u_kd=T.xavier_init(d // tau, reduced, rng=rng, dtype=dtype))
        return cls(d, tau, T.Tensor(w_qkv, trainable=True), w_out, reduce)

    def split(self, qkv: T.Tensor, history: tuple = (None, None)):
        """Fused projections cut into heads: (..., tau | n_kv, m, d_h); with
        ``history``, keys and values read from cached rows as split_heads
        reads ``stored``."""
        return (split_heads(qkv, self.tau, self.q_cols),
                split_heads(qkv, self.n_kv, self.k_cols, history[0]),
                split_heads(qkv, self.n_kv, self.v_cols, history[1]))

    def heads(self, x: T.Tensor):
        """Head-split Q, K, V of x attending over itself: one product."""
        return self.split(T.matmul(x, self.w_qkv))

    def merge(self, heads: T.Tensor) -> T.Tensor:
        """Concatenate per-head outputs (..., tau, m, d_h) and apply W_c."""
        shape = heads.shape
        merged = shape[:-3] + (shape[-2], shape[-3] * shape[-1])
        return T.matmul(T.relayout(
            heads, lambda a: a.swapaxes(-2, -3).reshape(merged),
            lambda g: T.head_view(g, shape[-3])), self.w_out)

    def named(self, prefix: str = ""):
        yield f"{prefix}w_qkv", self.w_qkv
        yield f"{prefix}w_out", self.w_out


# ---------------------------------------------------------------------------
# Multi-head forms
# ---------------------------------------------------------------------------


def self_attention(x: T.Tensor, params: AttentionParams, mask=None,
                   counter=None, *, rpr: Optional[RprTable] = None,
                   maps: Optional[list] = None, cache: Optional["KVCache"] = None,
                   layer: int = 0) -> T.Tensor:
    """Self-attention of a block x (..., m, d), merged and multiplied by
    W_c, in one ``tensor.attention`` op (the one path of every softmax
    form but ``rpr``'s), tallying its work on ``counter``.

    One product x W^qkv projects the block; with ``params.reduce``,
    reduce_width maps its query and key heads to Q U^q and K U^kd.
    ``maps`` is the list the layers of one map-reuse pass share: empty,
    the layer attends and appends the op's weights; holding them, the
    layer projects V alone and the op applies them. With a ``cache``, the
    block's keys and values are written at ``layer`` and the op reads the
    cached rows ending in them, under the cache's step mask.
    """
    scale, cols = None, params.cols
    if maps:                                 # a later map-reuse layer
        q = k = None
        v = T.matmul(x, params.w_qkv, cols=params.v_cols)
        kb, vb, cols = v.values[..., :0], v.values, (None, None, None)
    else:
        q = k = v = T.matmul(x, params.w_qkv)
        _, (k_lo, k_hi), (v_lo, v_hi) = cols
        kb, vb = v.values[..., k_lo:k_hi], v.values[..., v_lo:v_hi]
        if params.reduce is not None:
            q, k = EF.reduce_width(v, v, params.reduce, params.head_counts,
                                   cols[:2])
            cols, scale = (None, None, cols[2]), 1.0 / math.sqrt(params.d_head)
            kb = k.values
    history, back = None, 0
    if cache is not None:
        *history, back = cache.write(layer, kb, vb)
        if vb.shape[1] > 1:
            mask = cache.step_mask(vb.shape[1], back, vb.dtype)
    if rpr is not None:
        return params.merge(rpr_attention(
            *params.split(v, history or (None, None)), rpr, mask, back))
    keep = maps == []                        # the first map-reuse layer
    out = T.attention(q, k, v, params.head_counts, cols=cols, history=history,
                      mask=mask, scale=scale, keep=keep,
                      weights=maps[0] if maps else None)
    if keep:
        out, kept = out
        maps.append(kept)
    if counter is not None:                  # later map-reuse keys: 0 wide
        _tally(counter, out.shape[:-1] + (params.tau,), vb.shape[-2]
               if history is None else history[1].shape[-2],
               kb.shape[-1] // params.n_kv, params.d_head)
    return T.matmul(out, params.w_out)


def window_band(m: int, w: int, causal: bool,
                pad: Optional[np.ndarray] = None) -> np.ndarray:
    """The additive mask of window_attention over m positions in blocks
    of w: (nb, w, s*w) for nb = ceil(m/w) blocks of w queries, each over
    the keys of s blocks, b-1 and b, and b+1 unless causal. Query
    i = b*w + r may see key j = (b-1)*w + c when |i - j| <= w-1 and
    0 <= j < m, and j <= i when causal; with PAD flags ``pad`` (m,),
    not when i is a non-PAD position and j a PAD one. Filler queries past
    m count as PAD, so every row keeps a key."""
    nb, s = -(-m // w), 2 if causal else 3
    i = np.arange(nb * w).reshape(nb, w, 1)
    j = (np.arange(nb)[:, None, None] - 1) * w + np.arange(s * w)
    ok = (np.abs(i - j) < w) & (j >= 0) & (j < m)
    if causal:
        ok &= j <= i
    if pad is not None:
        pad_i = np.concatenate([pad, np.ones(nb * w - m, dtype=bool)])[i]
        ok &= pad_i | ~pad[np.clip(j, 0, m - 1)]
    return np.where(ok, 0.0, NEG_INF)


def window_attention(h: T.Tensor, params: AttentionParams, window: int,
                     causal: bool, pad: Optional[np.ndarray] = None,
                     counter: Optional[OpCounter] = None) -> T.Tensor:
    """Self-attention of h (..., m, d) with query i restricted to keys j
    with |i - j| <= window-1 (and j <= i when causal), and the PAD rule of
    window_band, merged and multiplied by W_c.

    The positions are cut into blocks of w = window, filled up with zero
    rows. The queries (h times W^qkv's query columns) are a reshape of
    their product; the keys and values, a second product (so each gets its
    own gradient, not two of the fused width to add), are copied into an
    (..., nb, s*w, 2*n_kv*d_h) array holding each block's s neighbouring
    blocks. One ``tensor.attention`` op runs on these block views under
    window_band, so the work, and its tally on ``counter``, is linear in m.
    """
    q = T.matmul(h, params.w_qkv, cols=params.q_cols)
    kv = T.matmul(h, params.w_qkv, cols=(params.k_cols[0], params.v_cols[1]))
    lead, m, width = h.shape[:-2], h.shape[-2], kv.shape[-1]
    w = window
    nb, s = -(-m // w), 2 if causal else 3

    def blocks(a):                           # (..., m, c) -> (..., nb, w, c)
        if nb * w > m:
            a = np.concatenate(
                [a, np.zeros(lead + (nb * w - m, a.shape[-1]), a.dtype)], -2)
        return a.reshape(lead + (nb, w, a.shape[-1]))

    def rows(g):                             # (..., nb, w, c) -> (..., m, c)
        return g.reshape(lead + (nb * w, g.shape[-1]))[..., :m, :]

    def neighbours(a):
        r = blocks(a)
        out = np.zeros(lead + (nb, s * w, width), a.dtype)
        out[..., 1:, :w, :] = r[..., :-1, :, :]
        out[..., w:2 * w, :] = r
        if not causal:
            out[..., :-1, 2 * w:, :] = r[..., 1:, :, :]
        return out

    def neighbours_grad(g):
        gr = g[..., w:2 * w, :].copy()
        gr[..., :-1, :, :] += g[..., 1:, :w, :]
        if not causal:
            gr[..., 1:, :, :] += g[..., :-1, 2 * w:, :]
        return rows(gr)

    kv = T.relayout(kv, neighbours, neighbours_grad)
    half = width // 2
    out = T.attention(T.relayout(q, blocks, rows), kv, kv,
                      params.head_counts,
                      cols=(None, (0, half), (half, width)),
                      mask=window_band(m, w, causal, pad)[:, None])
    _tally(counter, out.shape[:-1] + (params.tau,), s * w, params.d_head,
           params.d_head)
    return T.matmul(T.relayout(out, rows, blocks), params.w_out)


def cross_kv(h_enc: T.Tensor, params: AttentionParams) -> T.Tensor:
    """The encoder side of cross attention: the encoder rows' keys and
    values side by side, (..., n_src, 2*n_kv*d_h), from one product with
    W^qkv's key and value columns."""
    if h_enc.shape[-2] == 0:
        raise EmptySourceError("cross attention against an empty source")
    return T.matmul(h_enc, params.w_qkv, cols=(params.k_cols[0], params.v_cols[1]))


def cross_attention(h_enc: T.Tensor, s_self: T.Tensor, params: AttentionParams,
                    counter=None, kv=None):
    """Queries from the decoder side, keys/values from the encoder; no mask.

    ``kv`` is ``cross_kv(h_enc, params)`` computed earlier (a decode
    session projects the encoder rows once); without it the encoder rows
    are projected here.
    """
    kv = cross_kv(h_enc, params) if kv is None else kv
    w = kv.shape[-1] // 2
    q = T.matmul(s_self, params.w_qkv, cols=params.q_cols)
    out = T.attention(q, kv, kv, params.head_counts,
                      cols=(None, (0, w), (w, 2 * w)))
    if counter is not None:
        _tally(counter, out.shape[:-1] + (params.tau,), kv.shape[-2],
               params.d_head, params.d_head)
    return T.matmul(out, params.w_out)


def rpr_attention(q: T.Tensor, k: T.Tensor, v: T.Tensor, rpr: RprTable,
                  mask=None, q_start: int = 0) -> T.Tensor:
    """Attention with relative-position vectors mixed in, per head.

    q is (..., tau, m, d_h) and k, v are (..., n_kv, n, d_h), heads split
    as qkv_attention takes them; query i sits at key position q_start + i,
    so PE(i, j) is the table row of the clipped offset j - (q_start + i).
    Per head: alpha_ij = Softmax((q_i + PE^q(i,j))(k_j + PE^k(i,j))^T
    / sqrt(d_h)), output row i = sum_j alpha_ij (v_j + PE^v(i,j)).
    Disabled roles simply omit their term, and every head shares the
    tables. Returns the per-head context (..., tau, m, d_h).
    """
    d_h = q.shape[-1]
    for role in ("q", "k", "v"):
        t = rpr.tables.get(role)
        if t is not None and t.shape[1] != d_h:
            raise ValueError("RPR table width does not match head width")
    offs = rpr.offset_index_matrix(q.shape[-2], k.shape[-2], q_start)

    def with_pe(x: T.Tensor, role: str, axis: int) -> T.Tensor:
        # (..., heads, rows, d_h) -> (..., heads, m, n, d_h) with a unit
        # axis at ``axis`` broadcasting against PE(i, j) of shape (m, n, d_h)
        x = T.reshape(x, x.shape[:axis] + (1,) + x.shape[axis:])
        t = rpr.tables.get(role)
        return x if t is None else x + T.gather_rows(t, offs)

    logits = T.reduce_sum(with_pe(q, "q", -1) * with_pe(k, "k", -2), axis=-1)
    alpha = T.softmax_rows(logits, mask, 1.0 / float(np.sqrt(d_h)))
    return T.reduce_sum(T.reshape(alpha, alpha.shape + (1,))
                        * with_pe(v, "v", -2), axis=-2)


# ---------------------------------------------------------------------------
# Cached incremental attention
# ---------------------------------------------------------------------------


class KVCache:
    """Per-layer key/value arrays for incremental decoding of a batch of rows.

    Layer l keeps a key and a value array, each of shape (rows, capacity,
    width) with every head side by side, their widths the first write's:
    n_kv*d_h each, n_kv*d' reduced keys for lowrank-d, or no keys for a
    map-reuse layer after the first. It counts the positions written so
    far; all rows advance together. Capacity doubles when a block does not
    fit. With a ``window``, a block can see no more than the last window-1
    earlier positions, so only those are kept when the arrays are laid out
    again: capacity stays below 2*(window + block) however long decoding
    runs. ``rewind`` forgets the last positions written. Written rows are
    never overwritten: growing, trimming and ``select`` build new arrays,
    and so does the first write after a rewind, which would otherwise land
    on the forgotten rows, so a view handed out earlier keeps its values.
    """

    MIN_CAPACITY = 16

    def __init__(self, n_layers: int, window: Optional[int] = None):
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        self.n_layers = n_layers
        self.window = window
        self._kv: list = [None] * n_layers    # (keys, values), from the first write
        self._t = [0] * n_layers              # positions written
        self._first = [0] * n_layers          # position held in array row 0
        self._rewound = [False] * n_layers    # rows past the count were written

    def _check(self, layer: int):
        if not 0 <= layer < self.n_layers:
            raise CacheLayerError(f"layer {layer} outside 0..{self.n_layers - 1}")

    def length(self, layer: int = 0) -> int:
        """Positions written at this layer."""
        self._check(layer)
        return self._t[layer]

    def rows(self, layer: int = 0) -> Optional[int]:
        """Rows held at this layer; None before the first write."""
        self._check(layer)
        return None if self._kv[layer] is None else self._kv[layer][0].shape[0]

    def holds(self, t: int, rows: int) -> bool:
        """True when every layer has t positions written and holds
        ``rows`` rows, or none yet."""
        for kv in self._kv:
            if kv is not None and kv[0].shape[0] != rows:
                return False
        return self._t.count(t) == self.n_layers

    def _held(self, layer: int, part: int) -> np.ndarray:
        """Keys (part 0) or values (part 1) of the positions still held:
        every position written, or the last ``window``."""
        self._check(layer)
        kv, t = self._kv[layer], self._t[layer]
        if kv is None:
            return np.zeros((0, 0, 0))
        end = t - self._first[layer]
        n = t if self.window is None else min(t, self.window)
        return kv[part][:, end - n:end]

    def keys(self, layer: int) -> T.Tensor:
        """Stored keys, (rows, positions, key width)."""
        return T.Tensor(self._held(layer, 0))

    def values_(self, layer: int) -> T.Tensor:
        """Stored values, (rows, positions, value width)."""
        return T.Tensor(self._held(layer, 1))

    def write(self, layer: int, k_new: np.ndarray, v_new: np.ndarray):
        """Store a (rows, m, width) block of keys and one of values.

        Returns the keys and values the block attends over, the earlier
        positions it can see followed by the block itself, as views of the
        cache's arrays, and the number of those earlier positions.
        """
        if not 0 <= layer < self.n_layers:
            self._check(layer)
        rows, m = k_new.shape[:2]
        kv, t = self._kv[layer], self._t[layer]
        if kv is not None and (kv[0].shape[::2], kv[1].shape[::2]) \
                != (k_new.shape[::2], v_new.shape[::2]):
            raise StateError(f"key and value blocks of (rows, width) "
                             f"{k_new.shape[::2]}, {v_new.shape[::2]} do not fit "
                             f"a cache of {kv[0].shape[::2]}, {kv[1].shape[::2]}")
        back = t if self.window is None else min(t, self.window - 1)
        end = t - self._first[layer]
        if kv is None or end + m > kv[0].shape[1] or self._rewound[layer]:
            cap = max(self.MIN_CAPACITY, 2 * (back + m))
            new = (np.empty((rows, cap, k_new.shape[2]), k_new.dtype),
                   np.empty((rows, cap, v_new.shape[2]), v_new.dtype))
            if back:
                for a, old in zip(new, kv):
                    a[:, :back] = old[:, end - back:end]
            kv, end = new, back
            self._kv[layer], self._first[layer] = kv, t - back
            self._rewound[layer] = False
        k, v = kv
        k[:, end:end + m] = k_new
        v[:, end:end + m] = v_new
        self._t[layer] = t + m
        return k[:, end - back:end + m], v[:, end - back:end + m], back

    def rewind(self, n: int) -> None:
        """Forget the last n positions written at every layer, as if they
        had never been written. A window cache can go back only as far as
        the positions it still holds (the last ``window`` before the new
        end); going further, or back past position 0, raises StateError
        and changes nothing."""
        if n < 0:
            raise ValueError(f"cannot rewind {n} positions")
        for layer, t in enumerate(self._t):
            keep = t - n if self.window is None else min(t - n, self.window)
            if t - n < 0 or (self._kv[layer] is not None
                             and t - n - keep < self._first[layer]):
                raise StateError(f"cannot rewind {n} of the {t} positions "
                                 f"written at layer {layer}")
        if n:
            self._t = [t - n for t in self._t]
            self._rewound = [True] * self.n_layers

    def select(self, rows) -> None:
        """Keep the given rows, in the given order; a row may repeat."""
        idx = np.asarray(rows, dtype=np.int64)
        self._kv = [None if kv is None else (kv[0][idx], kv[1][idx])
                    for kv in self._kv]

    def clone(self) -> "KVCache":
        """Independent copy of every layer's array."""
        out = KVCache(self.n_layers, self.window)
        out._kv = [None if kv is None else (kv[0].copy(), kv[1].copy())
                   for kv in self._kv]
        out._t, out._first = list(self._t), list(self._first)
        out._rewound = list(self._rewound)
        return out

    def step_mask(self, m: int, back: int, dtype) -> np.ndarray:
        """``_step_mask`` of a block of m > 1 positions over back earlier
        ones, in ``dtype``: a read-only slice of one template per (window,
        dtype). Entry (i, j) depends only on i and on j - back, the key's
        offset from the block's first position, so the template is
        ``_step_mask`` of M rows over C earlier positions, and rows :m of
        its columns C - back .. C + m - 1 are the mask. M and C double
        when a block needs more."""
        key = self.window, np.dtype(dtype)
        tpl = _MASK_TEMPLATES.get(key)
        rows, held = (0, 0) if tpl is None \
            else (tpl.shape[0], tpl.shape[1] - tpl.shape[0])
        if rows < m or held < back:
            rows = rows if rows >= m else max(m, 2 * rows, 16)
            held = held if held >= back else max(back, 2 * held, 64)
            tpl = _step_mask(rows, held, self.window).astype(dtype)
            tpl.setflags(False)
            _MASK_TEMPLATES[key] = tpl
        return tpl[:m, held - back:held + m]


_MASK_TEMPLATES: dict = {}     # (window, dtype) -> the step-mask template


def _step_mask(m: int, back: int, window: Optional[int]):
    """Additive mask of m new positions over back earlier ones plus
    themselves: causal inside the block and within the window. None when
    every pair is allowed."""
    if m == 1:
        return None                          # back never exceeds window-1
    i = np.arange(m)[:, None]
    j = np.arange(back + m)[None, :]
    ok = j <= back + i
    if window is not None:
        ok &= j > back + i - window
    return None if ok.all() else np.where(ok, 0.0, NEG_INF)


def attend_step_cached(x: T.Tensor, cache: KVCache, params: AttentionParams,
                       layer: int, rpr: Optional[RprTable] = None,
                       counter: Optional[OpCounter] = None,
                       maps: Optional[list] = None):
    """Self-attention of a block of new positions at one cache layer, as
    self_attention runs it with ``cache``: x is (rows, m, d), m new
    positions for each of the cache's rows (any other rank raises
    ShapeError). The block's keys (W^qkv's key columns, lowrank-d's
    reduced keys, or none for a later map-reuse layer) and values are
    written into the cache, and every new position attends over the
    earlier positions it can see plus the block up to itself, the cached
    rows read in place. Returns the output after W_c, shaped like x."""
    if x.values.ndim != 3:
        raise T.ShapeError("attend_step_cached expects a (rows, m, d) block")
    return self_attention(x, params, None, counter, rpr=rpr, maps=maps,
                          cache=cache, layer=layer)
