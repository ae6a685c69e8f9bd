"""Linear-complexity attention approximations.

Three families live here: kernelized attention (a separable feature map
replaces the exponential, so the n x n weight matrix is never formed),
low-rank reductions of the key/value length or the query/key width, and
fixed-size compressed memories built from chunk summaries.
"""

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from . import tensor as T
from .attention import OpCounter


class DegenerateQueryError(ValueError):
    """A kernelized denominator phi(q) . sum(phi(k)) came out nonpositive."""


FEATURE_KINDS = ("elu_plus_one", "relu", "identity_positive_clip")

# floor used by identity_positive_clip so weights stay strictly positive
_CLIP_FLOOR = 1e-6


@dataclass(frozen=True)
class FeatureMap:
    """Elementwise nonnegative map phi applied to queries and keys.

    All three kinds preserve the width, so d' equals the input d. The
    default elu(x)+1 is strictly positive, which keeps every streaming
    denominator nonzero.
    """

    kind: str = "elu_plus_one"

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature map {self.kind!r}")

    def __call__(self, x: T.Tensor) -> T.Tensor:
        if self.kind == "elu_plus_one":
            return T.elu(x) + 1.0
        if self.kind == "relu":
            return T.relu(x)
        return T.maximum(x, _CLIP_FLOOR)

    def apply_np(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "elu_plus_one":
            return np.where(x > 0, x, np.expm1(x)) + 1.0
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        return np.maximum(x, _CLIP_FLOOR)


def _check_denominator(den: np.ndarray):
    if np.any(den <= 0):
        bad = int(np.argmax(den.reshape(-1) <= 0))
        raise DegenerateQueryError(
            f"nonpositive kernel denominator at query row {bad}; "
            "use a strictly positive feature map")


def kernelized_attention(q: T.Tensor, k: T.Tensor, v: T.Tensor,
                         phi: Optional[FeatureMap] = None,
                         causal: bool = False,
                         counter: Optional[OpCounter] = None) -> T.Tensor:
    """Attention via the reassociated product D^-1 (Q' (K'^T V)).

    The causal variant never masks the factored product (that is not
    possible after reassociation); it uses per-position prefix
    accumulators instead, which is the streaming recurrence in batch form.
    q, k and v are (..., n, d); leading axes are independent sequences.
    """
    phi = phi or FeatureMap()
    if q.ndim < 2 or q.ndim != k.ndim or k.ndim != v.ndim:
        raise T.ShapeError("kernelized attention expects q, k, v of one rank >= 2")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise T.ShapeError(
            f"inconsistent shapes {q.shape}, {k.shape}, {v.shape}")
    lead = q.shape[:-2]
    n, d_p = q.shape[-2:]
    d_v = v.shape[-1]
    n_seq = int(np.prod(lead))
    qp = phi(q)
    kp = phi(k)
    if causal:
        if k.shape[-2] != n:
            raise T.ShapeError("causal kernel attention needs square q/k")
        outer = T.reshape(kp, lead + (n, d_p, 1)) * T.reshape(v, lead + (n, 1, d_v))
        mu = T.cumsum(outer, axis=-3)                      # prefix k'^T v
        nu = T.cumsum(kp, axis=-2)                         # prefix k'^T
        numer = T.reduce_sum(T.reshape(qp, lead + (n, d_p, 1)) * mu, axis=-2)
        den = T.reduce_sum(qp * nu, axis=-1, keepdims=True)
        if counter is not None:
            counter.add(n_seq * (n * d_p * d_v * 2 + n * d_p))
    else:
        kv = T.matmul(T.transpose(kp), v)                  # d' x d_v once
        numer = T.matmul(qp, kv)
        ksum = T.reduce_sum(kp, axis=-2, keepdims=True)
        den = T.matmul(qp, T.transpose(ksum))
        if counter is not None:
            counter.add(n_seq * (k.shape[-2] * d_p * d_v + n * d_p * d_v
                                 + n * d_p))
    _check_denominator(den.values)
    return numer / den


# ---------------------------------------------------------------------------
# streaming form
# ---------------------------------------------------------------------------


@dataclass
class StreamState:
    """Constant-size accumulators for one autoregressive kernel session.

    mu carries sum phi(k)^T v (d' x d_v) and nu carries sum phi(k)^T.
    Single-owner: step() returns a fresh state, the old one stays valid.
    """

    mu: np.ndarray
    nu: np.ndarray
    gate: Optional[float] = None
    steps: int = 0


def init_stream(d_prime: int, d_v: int, gate: Optional[float] = None,
                dtype=np.float64) -> StreamState:
    if gate is not None and not 0.0 <= gate <= 1.0:
        raise ValueError("gate must lie in [0, 1]")
    return StreamState(np.zeros((d_prime, d_v), dtype=dtype),
                       np.zeros(d_prime, dtype=dtype), gate)


def stream_step(state: StreamState, k_row, v_row, q_row,
                phi: Optional[FeatureMap] = None,
                gate: Optional[float] = None,
                counter: Optional[OpCounter] = None
                ) -> Tuple[np.ndarray, StreamState]:
    """One step of the kernel recurrence; returns (output row, new state)."""
    phi = phi or FeatureMap()
    k_row = np.asarray(getattr(k_row, "values", k_row), dtype=np.float64).reshape(-1)
    v_row = np.asarray(getattr(v_row, "values", v_row), dtype=np.float64).reshape(-1)
    q_row = np.asarray(getattr(q_row, "values", q_row), dtype=np.float64).reshape(-1)
    kp = phi.apply_np(k_row)
    qp = phi.apply_np(q_row)
    a = state.gate if gate is None else gate
    if a is None:
        mu = state.mu + np.outer(kp, v_row)
        nu = state.nu + kp
    else:
        if not 0.0 <= a <= 1.0:
            raise ValueError("gate must lie in [0, 1]")
        mu = a * state.mu + (1.0 - a) * np.outer(kp, v_row)
        nu = a * state.nu + (1.0 - a) * kp
    den = float(qp @ nu)
    if den <= 0:
        raise DegenerateQueryError("nonpositive streaming denominator")
    out = (qp @ mu) / den
    if counter is not None:
        counter.add(kp.size * v_row.size * 2 + kp.size)
    return out, replace(state, mu=mu, nu=nu, steps=state.steps + 1)


# ---------------------------------------------------------------------------
# low-rank reductions
# ---------------------------------------------------------------------------


@dataclass
class LowRankProjections:
    """Learned linear reductions: u_k/u_v shrink the length axis (n' x n),
    u_q/u_kd shrink the width axis (d x d')."""

    u_k: Optional[T.Tensor] = None
    u_v: Optional[T.Tensor] = None
    u_q: Optional[T.Tensor] = None
    u_kd: Optional[T.Tensor] = None


def reduce_length(k: T.Tensor, v: T.Tensor,
                  proj: LowRankProjections) -> Tuple[T.Tensor, T.Tensor]:
    """K' = U^k K, V' = U^v V; attention then runs against n' rows.

    K and V are (..., n, d); every leading (head, batch) index shares U.
    """
    if proj.u_k is None or proj.u_v is None:
        raise ValueError("length reduction needs u_k and u_v")
    if proj.u_k.shape[0] > proj.u_k.shape[1]:
        raise T.ShapeError("length reduction must not grow n")
    if proj.u_k.shape[1] != k.shape[-2] or proj.u_v.shape[1] != v.shape[-2]:
        raise T.ShapeError("projection length does not match key count")
    return T.matmul(proj.u_k, k), T.matmul(proj.u_v, v)


def strided_mean_projection(n: int, size_r: int, stride: int,
                            dtype=np.float64) -> T.Tensor:
    """Averaging matrix equivalent to a strided uniform 1-d convolution.

    With size_r = stride = 2 the rows of U @ K are pairwise means of
    consecutive K rows. Incomplete tail windows are dropped.
    """
    if size_r < 1 or stride < 1:
        raise ValueError("size_r and stride must be >= 1")
    n_out = (n - size_r) // stride + 1
    if n_out < 1:
        raise ValueError("window does not fit the sequence")
    u = np.zeros((n_out, n), dtype=dtype)
    for i in range(n_out):
        u[i, i * stride:i * stride + size_r] = 1.0 / size_r
    return T.Tensor(u, dtype=dtype)


def lowrank_length_attention(q: T.Tensor, k: T.Tensor, v: T.Tensor,
                             proj: LowRankProjections, causal: bool = False,
                             counter: Optional[OpCounter] = None) -> T.Tensor:
    """Dense attention against length-reduced keys/values (encoder only).

    Mixing keys across positions leaks future content, so the causal flag
    is rejected rather than silently producing a non-causal decoder.
    """
    if causal:
        raise ValueError("length reduction is incompatible with causal masking")
    from .attention import qkv_attention
    k_r, v_r = reduce_length(k, v, proj)
    return qkv_attention(q, k_r, v_r, counter=counter)


def reduce_width(q: T.Tensor, k: T.Tensor,
                 proj: LowRankProjections) -> Tuple[T.Tensor, T.Tensor]:
    """Q' = Q U^q, K' = K U^k; logits become Q'K'^T at rank <= d'."""
    if proj.u_q is None or proj.u_kd is None:
        raise ValueError("width reduction needs u_q and u_kd")
    if proj.u_q.shape[0] < proj.u_q.shape[1]:
        raise T.ShapeError("width reduction must not grow d")
    if proj.u_q.shape[0] != q.shape[-1] or proj.u_kd.shape[0] != k.shape[-1]:
        raise T.ShapeError("projection width does not match model width")
    return T.matmul(q, proj.u_q), T.matmul(k, proj.u_kd)


def lowrank_width_attention(q: T.Tensor, k: T.Tensor, v: T.Tensor,
                            proj: LowRankProjections, mask=None,
                            scale_by_reduced: bool = False,
                            counter: Optional[OpCounter] = None) -> T.Tensor:
    """Attention with width-reduced queries/keys.

    The logits keep the original sqrt(d) scale by default;
    scale_by_reduced switches to sqrt(d') for the reduced space.
    """
    from .attention import qkv_attention
    d = q.shape[-1]
    q_r, k_r = reduce_width(q, k, proj)
    scale = float(np.sqrt(q_r.shape[-1] if scale_by_reduced else d))
    return qkv_attention(q_r, k_r, v, mask, scale=scale, counter=counter)


# ---------------------------------------------------------------------------
# compressed memory
# ---------------------------------------------------------------------------


def compress_memory(keys: T.Tensor, values: T.Tensor, rule: str = "average",
                    weights=None) -> Tuple[T.Tensor, T.Tensor]:
    """Summarize a chunk of (k, v) pairs into one memory slot.

    average: arithmetic mean of the chunk. recursive: running weighted
    update m_t = (1 - w_t) m_{t-1} + w_t k_t; the default weights 1/t
    reproduce the mean one pair at a time.
    """
    if keys.ndim != 2 or keys.shape[0] == 0:
        raise ValueError("memory chunk must contain at least one pair")
    if values.shape[0] != keys.shape[0]:
        raise T.ShapeError("key/value chunk length mismatch")
    if rule == "average":
        return T.reduce_mean(keys, axis=0), T.reduce_mean(values, axis=0)
    if rule != "recursive":
        raise ValueError(f"unknown memory rule {rule!r}")
    n = keys.shape[0]
    if weights is None:
        weights = [1.0 / (t + 1) for t in range(n)]
    if len(weights) != n:
        raise ValueError("one weight per chunk position required")
    k_slot, v_slot = None, None
    for t in range(n):
        w = float(weights[t])
        k_t, v_t = T.take(keys, t), T.take(values, t)
        if k_slot is None:
            k_slot = k_t * w
            v_slot = v_t * w
        else:
            k_slot = k_slot * (1.0 - w) + k_t * w
            v_slot = v_slot * (1.0 - w) + v_t * w
    return k_slot, v_slot


class CompressedMemory:
    """Bounded store of chunk summaries; covers at most kappa * n_c positions.

    Oldest slot is evicted first once kappa is reached.
    """

    def __init__(self, kappa: int, chunk_len: int, rule: str = "average"):
        if kappa < 1 or chunk_len < 1:
            raise ValueError("kappa and chunk_len must be >= 1")
        self.kappa = kappa
        self.chunk_len = chunk_len
        self.rule = rule
        self._slots: List[Tuple[T.Tensor, T.Tensor]] = []

    def __len__(self):
        return len(self._slots)

    @property
    def capacity_positions(self) -> int:
        return self.kappa * self.chunk_len

    def add_chunk(self, keys: T.Tensor, values: T.Tensor):
        if keys.shape[0] > self.chunk_len:
            raise ValueError("chunk exceeds configured length")
        self._slots.append(compress_memory(keys, values, self.rule))
        if len(self._slots) > self.kappa:
            self._slots.pop(0)

    def keys(self) -> T.Tensor:
        return self._stacked(0)

    def values(self) -> T.Tensor:
        return self._stacked(1)

    def _stacked(self, which: int) -> T.Tensor:
        if not self._slots:
            raise ValueError("memory is empty")
        rows = [T.reshape(s[which], 1, -1) for s in self._slots]
        return T.concat(rows, axis=0)
