"""Linear-complexity attention approximations.

Two families live here: kernelized attention (a separable feature map
replaces the exponential, so the n x n weight matrix is never formed)
and low-rank reductions of the key/value length or the query/key width.
Width reduction is not an attention form of its own: ``reduce_width``
maps a block's query and key heads, and the one attention op scores
the reduced heads (see attention.py).

Causal kernelized attention runs in the SSM's block form: blocks of up
to ``ssm.BLOCK`` positions, each a masked product inside the block plus
the sums mu = sum phi(k)^T v and nu = sum phi(k) of the positions before
it. One loop serves a whole sequence, a carried span and a decode step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from . import tensor as T
from .ssm import BLOCK, CarriedState

if TYPE_CHECKING:                      # attention.py imports this module
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
    default elu(x)+1 is strictly positive, which keeps every causal
    denominator nonzero.
    """

    kind: str = "elu_plus_one"

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature map {self.kind!r}")

    def __call__(self, x: T.Tensor) -> T.Tensor:
        if self.kind == "elu_plus_one":
            return T.elu_plus_one(x)
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
    if (den <= 0).any():
        bad = int(np.argmax(den.reshape(-1) <= 0))
        raise DegenerateQueryError(
            f"nonpositive kernel denominator at query row {bad}; "
            "use a strictly positive feature map")


def kernelized_attention(q: T.Tensor, k: T.Tensor, v: T.Tensor,
                         phi: Optional[FeatureMap] = None,
                         causal: bool = False,
                         counter: Optional[OpCounter] = None,
                         carry: Optional[List[np.ndarray]] = None,
                         kept: Optional[list] = None) -> T.Tensor:
    """Attention via the reassociated product D^-1 (Q' (K'^T V)), Q' =
    phi(Q), K' = phi(K); q, k and v are (..., n, d), leading axes
    independent sequences. With V1 = [V | 1] one product gives numerators
    and denominators, and the sums [mu | nu] are M = K'^T V1: a non-causal
    pass returns Q' M over every key. A causal block of up to ``BLOCK``
    positions entered with the sums M of the positions before it has
    outputs Q'_b M + tril(Q'_b K'_b^T) V1_b and leaves M + K'_b^T V1_b.

    ``carry`` continues a causal sequence: the list [mu, nu] holds the
    sums before this call, (..., d', d_v) and (..., d'), which enter as
    constants (an empty list, or no list, starts them at zero); once
    every denominator is positive the call replaces them with the sums
    after it. ``kept``, a list, then receives the values of phi(K) and
    [V | 1], the rows a rewind of the sums needs (_kept_sums).
    """
    phi = phi or FeatureMap()
    if q.ndim < 2 or q.ndim != k.ndim or k.ndim != v.ndim or q.shape[-2] == 0:
        raise T.ShapeError("kernelized attention needs q, k, v of one rank >= 2, n >= 1")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2] or (
            causal and k.shape[-2] != q.shape[-2]):
        raise T.ShapeError(
            f"inconsistent shapes {q.shape}, {k.shape}, {v.shape}")
    if carry is not None and not causal:
        raise ValueError("only causal kernel attention carries prefix sums")
    n, d_p = q.shape[-2:]
    d_v = v.shape[-1]
    qp, kp = phi(q), phi(k)
    v1 = T.relayout(v, lambda x: np.concatenate(
        [x, np.ones(x.shape[:-1] + (1,), x.dtype)], axis=-1),
        lambda g: g[..., :d_v])
    sums, w = None, n                    # non-causal: one block, every key
    if causal:
        w = min(n, BLOCK)
        sums = T.Tensor(
            np.zeros(kp.shape[:-2] + (d_p, d_v + 1), kp.dtype) if not carry
            else np.concatenate([carry[0], carry[1][..., None]], axis=-1))
    outs = []
    for lo in range(0, n, w):
        r = min(w, n - lo)
        rows = (Ellipsis, slice(lo, lo + r), slice(None))
        q_b, k_b, v_b = (x if r == n else T.take(x, rows) for x in (qp, kp, v1))
        k_t = T.transpose(k_b)
        kv = T.matmul(k_t, v_b)
        after = kv if sums is None else sums + kv
        if causal and r > 1:             # a query sees the keys up to its own
            outs.append(T.matmul(q_b, sums) + T.matmul(
                T.relayout(T.matmul(q_b, k_t), np.tril, np.tril), v_b))
        else:                            # every key of the block is visible
            outs.append(T.matmul(q_b, after))
        sums = after
        if counter is not None:
            inner = r * r * (d_p + d_v + 1) if causal and r > 1 else 0
            counter.add(int(np.prod(q.shape[:-2]))
                        * ((k_b.shape[-2] + r) * d_p * (d_v + 1) + inner))
    y = T.concat(outs, axis=-2)
    den = T.take(y, (Ellipsis, slice(d_v, None)))
    _check_denominator(den.values)
    if carry is not None:   # leaves the tape: the next call's constants
        carry[:] = [sums.values[..., :d_v], sums.values[..., d_v]]
    if kept is not None:
        kept += [kp.values, v1.values]
    return T.take(y, (Ellipsis, slice(0, d_v))) / den


def _kept_sums(entered: list, rows: tuple, params=None) -> list:
    """The sums after the rows phi(K) and [V | 1], from ``entered``:
    M_in + phi(K)^T [V | 1] in blocks of up to BLOCK rows, as a call on
    those rows makes them."""
    kp, v1 = rows
    m, d_v = kp.shape[-2], v1.shape[-1] - 1
    if not m:
        return list(entered)
    sums = np.concatenate([entered[0], entered[1][..., None]], axis=-1) \
        if entered else np.zeros(kp.shape[:-2] + (kp.shape[-1], d_v + 1), kp.dtype)
    w = min(m, BLOCK)
    for lo in range(0, m, w):
        sums = sums + np.matmul(np.swapaxes(kp[..., lo:lo + w, :], -1, -2),
                                v1[..., lo:lo + w, :])
    return [sums[..., :d_v], sums[..., d_v]]


def kernel_step(x: T.Tensor, sums: CarriedState, params, slot: int,
                phi: FeatureMap, counter: Optional[OpCounter] = None,
                maps=None) -> T.Tensor:
    """Causal kernelized self-attention of a (rows, m, d) block of new
    positions, continued from the sums at ``slot``, which it advances:
    attend_step_cached's arguments, ``phi`` for the table, ``maps`` None."""
    carry, kept = sums.carry(slot), []
    entered = list(carry)
    out = kernelized_attention(*params.heads(x), phi, causal=True,
                               counter=counter, carry=carry, kept=kept)
    sums.advanced(slot, entered, tuple(kept), _kept_sums, None)
    return params.merge(out)


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


def reduce_width(q: T.Tensor, k: T.Tensor, proj: LowRankProjections,
                 heads: tuple = (1, 1), cols: tuple = (None, None)
                 ) -> Tuple[T.Tensor, T.Tensor]:
    """Q' = Q U^q, K' = K U^kd per head; logits become Q'K'^T at rank <= d'.

    Column block ``cols[0]`` of q (all of q for None) holds heads[0] query
    heads, and ``cols[1]`` of k heads[1] key heads, each U's rows wide; q
    and k may be one fused projection. The reduced heads come out side by
    side, (..., heads * d'), in one product each.
    """
    if proj.u_q is None or proj.u_kd is None:
        raise ValueError("width reduction needs u_q and u_kd")
    if proj.u_q.shape[0] < proj.u_q.shape[1]:
        raise T.ShapeError("width reduction must not grow d")
    return (T.head_matmul(q, proj.u_q, heads[0], cols[0]),
            T.head_matmul(k, proj.u_kd, heads[1], cols[1]))
