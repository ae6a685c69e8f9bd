"""Sub-layer construction.

Layer norm and FFN cores, the weighted-residual wrapper that subsumes
post-norm and pre-norm, Runge-Kutta sub-layers, stochastic layer dropout,
mixture-of-experts FFN, and parameter sharing.

Layer norm is the paper's g * (h - mu) / (sigma + eps) + b, one fused
tape op (``T.layer_norm``), and so is the whole position-wise FFN
ReLU(h W_h + b_h) W_f + b_f (``T.ffn``); the composite ``row_stats`` +
``normalize`` stays for statistics a caller supplies or inspects. A
residual weight of exactly 1 adds the input without a multiply, inside
the layer norm where one follows.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T


class ConfigurationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# layer normalization
# ---------------------------------------------------------------------------


@dataclass
class LNParams:
    g: T.Tensor
    b: T.Tensor
    eps: float = 1e-5

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    @classmethod
    def init(cls, d: int, eps: float = 1e-5, dtype=np.float32,
             trainable: bool = True) -> "LNParams":
        return cls(T.Tensor(np.ones(d, dtype=dtype), trainable=trainable),
                   T.Tensor(np.zeros(d, dtype=dtype), trainable=trainable),
                   eps)

    def named(self, prefix: str):
        yield f"{prefix}.g", self.g
        yield f"{prefix}.b", self.b


def row_stats(h: T.Tensor) -> Tuple[T.Tensor, T.Tensor]:
    """Per-row mean and population standard deviation (last axis)."""
    mu = T.reduce_mean(h, axis=-1, keepdims=True)
    centered = h - mu
    var = T.reduce_mean(centered * centered, axis=-1, keepdims=True)
    return mu, T.sqrt(var)


def normalize(h: T.Tensor, mu, sigma, params: LNParams) -> T.Tensor:
    """g * (h - mu) / (sigma + eps) + b with externally supplied stats.

    Split out from layer_norm so a caller can inspect or round the
    statistics before applying them.
    """
    if not isinstance(mu, T.Tensor):
        mu = T.Tensor(np.asarray(mu, dtype=h.dtype))
    if not isinstance(sigma, T.Tensor):
        sigma = T.Tensor(np.asarray(sigma, dtype=h.dtype))
    return params.g * ((h - mu) / (sigma + params.eps)) + params.b


def layer_norm(h: T.Tensor, params: LNParams,
               residual: Optional[T.Tensor] = None) -> T.Tensor:
    """normalize(h, *row_stats(h), params) as one taped op; with
    ``residual``, of h + residual in the same op."""
    return T.layer_norm(h, params.g, params.b, params.eps, residual=residual)


# ---------------------------------------------------------------------------
# feedforward core
# ---------------------------------------------------------------------------


@dataclass
class FFNParams:
    w_h: T.Tensor
    b_h: T.Tensor
    w_f: T.Tensor
    b_f: T.Tensor

    @classmethod
    def init(cls, d: int, d_ffn: Optional[int] = None, rng: Optional[T.Rng] = None,
             gain: float = 1.0, dtype=np.float32,
             d_out: Optional[int] = None) -> "FFNParams":
        d_ffn = 4 * d if d_ffn is None else d_ffn
        d_out = d if d_out is None else d_out
        if d_ffn < 1:
            raise ValueError("hidden width must be >= 1")
        rng = rng or T.Rng(0)
        return cls(T.xavier_init(d, d_ffn, gain, rng=rng, dtype=dtype),
                   T.Tensor(np.zeros(d_ffn, dtype=dtype), trainable=True),
                   T.xavier_init(d_ffn, d_out, gain, rng=rng, dtype=dtype),
                   T.Tensor(np.zeros(d_out, dtype=dtype), trainable=True))

    @property
    def d_in(self) -> int:
        return self.w_h.shape[0]

    def named(self, prefix: str):
        yield f"{prefix}.w_h", self.w_h
        yield f"{prefix}.b_h", self.b_h
        yield f"{prefix}.w_f", self.w_f
        yield f"{prefix}.b_f", self.b_f


def ffn(h: T.Tensor, params: FFNParams) -> T.Tensor:
    """ReLU(h W_h + b_h) W_f + b_f, one taped op (``T.ffn``)."""
    return T.ffn(h, params.w_h, params.b_h, params.w_f, params.b_f)


# ---------------------------------------------------------------------------
# residual wrappers
# ---------------------------------------------------------------------------

PLACEMENTS = ("post", "pre", "weighted")
RK_ORDERS = (1, 2, 4)


@dataclass
class SublayerConfig:
    """How one sub-layer wraps its core function."""

    placement: str = "post"
    beta: Optional[float] = None
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise ConfigurationError(f"unknown placement {self.placement!r}")
        if self.placement == "weighted" and (self.beta is None or self.gamma is None):
            raise ConfigurationError("weighted placement needs beta and gamma")

    def residual_weights(self) -> Tuple[float, float]:
        if self.placement == "post":
            return 1.0, 0.0
        if self.placement == "pre":
            return 0.0, 1.0
        return float(self.beta), float(self.gamma)


def _plus_weighted(x: T.Tensor, z: T.Tensor, w: float) -> T.Tensor:
    """x + w z; no term for w = 0 and no multiply for w = 1."""
    if w == 0.0:
        return x
    return x + (z if w == 1.0 else z * w)


def sublayer_apply(h_in: T.Tensor, core: Callable[[T.Tensor], T.Tensor],
                   ln: LNParams, cfg: SublayerConfig) -> T.Tensor:
    """LNorm(F(z) + beta z) + gamma z; (1,0) is post-norm, (0,1) pre-norm.
    With beta = 1 the layer norm adds the residual itself."""
    beta, gamma = cfg.residual_weights()
    if beta == 1.0:
        out = layer_norm(core(h_in), ln, residual=h_in)
    else:
        out = layer_norm(_plus_weighted(core(h_in), h_in, beta), ln)
    return _plus_weighted(out, h_in, gamma)


def rk_sublayer(z: T.Tensor, f, order: int = 4, h: float = 1.0) -> T.Tensor:
    """Explicit Runge-Kutta step of the given order with step size h.

    Order 1 with h=1 and f = LNorm o F is exactly the pre-norm sub-layer;
    higher orders reuse the same f for every stage, or with a list of
    ``order`` callables call the k-th at stage k.
    """
    if order not in RK_ORDERS:
        raise ConfigurationError("integrator order must be 1, 2 or 4")
    fs = f if type(f) is list else [f] * order

    def stage(k: int, x: T.Tensor) -> T.Tensor:
        return fs[k](x) if h == 1.0 else fs[k](x) * h

    g1 = stage(0, z)
    if order == 1:
        return z + g1
    if order == 2:  # Heun
        g2 = stage(1, z + g1)
        return z + (g1 + g2) * 0.5
    g2 = stage(1, z + g1 * 0.5)
    g3 = stage(2, z + g2 * 0.5)
    g4 = stage(3, z + g3)
    return z + (g1 + g2 * 2.0 + g3 * 2.0 + g4) * (1.0 / 6.0)


# ---------------------------------------------------------------------------
# layer dropout
# ---------------------------------------------------------------------------


def layer_dropout(z: T.Tensor,
                  sublayers: Sequence[Tuple[Callable, LNParams]],
                  rho: float, mode: str,
                  rng: Optional[T.Rng] = None) -> T.Tensor:
    """Stochastic depth over pre-norm sub-layers.

    Train mode keeps each sub-layer with probability rho (skipped means
    identity); infer mode applies the deterministic rescaled form
    z = rho * LNorm(F(z)) + z.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "train":
        if rng is None:
            raise ConfigurationError("layer dropout needs a seeded rng")
        for core, ln in sublayers:
            if float(rng.uniform()) < rho:
                z = layer_norm(core(z), ln) + z
        return z
    for core, ln in sublayers:
        z = layer_norm(core(z), ln) * rho + z
    return z


# ---------------------------------------------------------------------------
# mixture-of-experts FFN
# ---------------------------------------------------------------------------

MOE_MODES = ("renorm", "mask", "topk-softmax")


@dataclass
class MoEFFN:
    """M expert FFNs behind a learned per-row top-k gate.

    renorm: softmax gate, keep top-k, renormalize the kept mass (default).
    mask: softmax gate, keep top-k untouched (weights sum to < 1).
    topk-softmax: select top-k logits first, softmax over just those.
    """

    experts: List[FFNParams]
    w_g: T.Tensor
    k: int
    mode: str = "renorm"

    def __post_init__(self):
        m = len(self.experts)
        if m < 1:
            raise ConfigurationError("need at least one expert")
        if not 1 <= self.k <= m:
            raise ConfigurationError(f"k={self.k} outside [1, {m}]")
        if self.mode not in MOE_MODES:
            raise ConfigurationError(f"unknown routing mode {self.mode!r}")
        if self.w_g.shape[1] != m:
            raise ConfigurationError("gate matrix must have one column per expert")

    @classmethod
    def init(cls, d: int, d_ffn: int, n_experts: int, k: int,
             rng: T.Rng, mode: str = "renorm", dtype=np.float32) -> "MoEFFN":
        experts = [FFNParams.init(d, d_ffn, rng, dtype=dtype)
                   for _ in range(n_experts)]
        return cls(experts, T.xavier_init(d, n_experts, rng=rng, dtype=dtype),
                   k, mode)

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    def named(self, prefix: str):
        yield f"{prefix}.w_g", self.w_g
        for i, e in enumerate(self.experts):
            yield from e.named(f"{prefix}.expert{i}")


def top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean selection over the last axis; ties at the k-th slot go to
    the lower index."""
    # stable sort on the negated rows: equal scores keep index order
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    sel = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(sel, order, True, axis=-1)
    return sel


def moe_ffn(h: T.Tensor, moe: MoEFFN) -> T.Tensor:
    """Per-row top-k expert mixture; experts combined in index order."""
    logits = T.matmul(h, moe.w_g)
    probs = T.softmax_rows(logits)
    sel = top_k_rows(probs.values, moe.k)
    if moe.mode == "topk-softmax":
        gate_mask = np.where(sel, 0.0, -np.inf).astype(logits.dtype)
        gates = T.softmax_rows(logits, T.Tensor(gate_mask, dtype=logits.dtype))
    else:
        gates = probs * T.Tensor(sel.astype(probs.dtype))
        if moe.mode == "renorm":
            gates = gates / T.reduce_sum(gates, axis=-1, keepdims=True)
    out = None
    for j, expert in enumerate(moe.experts):
        if not sel[..., j].any():
            continue
        contrib = ffn(h, expert) * T.take(gates, (Ellipsis, slice(j, j + 1)))
        out = contrib if out is None else out + contrib
    return out


# ---------------------------------------------------------------------------
# parameter sharing
# ---------------------------------------------------------------------------


def _shapes_of(entry) -> List[tuple]:
    return [t.shape for _, t in entry.named("x")]


def share_group(stack: List, groups: Sequence[Sequence[int]]) -> List:
    """Tie parameter sets across stack positions.

    Every index in a group ends up referencing the group's first entry,
    so gradients for one use accumulate into the shared tensors.
    """
    shared = list(stack)
    seen = set()
    for group in groups:
        if len(group) < 2:
            continue
        head = group[0]
        for idx in group:
            if not 0 <= idx < len(stack):
                raise ConfigurationError(f"group index {idx} out of range")
            if idx in seen:
                raise ConfigurationError(f"index {idx} appears in two groups")
            seen.add(idx)
            if _shapes_of(stack[idx]) != _shapes_of(stack[head]):
                raise ConfigurationError(
                    f"stack entries {head} and {idx} have different shapes")
        for idx in group[1:]:
            shared[idx] = shared[head]
    return shared

