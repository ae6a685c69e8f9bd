"""Brute-force reference implementations and the verification suite.

Everything in this module is deliberately naive: scalar loops, 64-bit
floats, zero shared code with the optimized paths. The helpers in the
first half are the reference side of every derived check in the test
suite; ``run_oracle_suite`` at the bottom runs each registered family
against the real implementation and reports errors measured relative to
the oracle.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from . import attention as A
from . import blocks as B
from . import efficient as EF
from . import embedding as E
from . import model as M
from . import runtime as R
from . import ssm as S
from . import tensor as T
from . import train as TR


@dataclass
class OracleReport:
    """Outcome of one oracle family comparison."""

    name: str
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    passed: bool

    def row(self) -> str:
        return (f"{self.name},{self.max_abs_err:.3e},{self.max_rel_err:.3e},"
                f"{self.tolerance:.3e},{'pass' if self.passed else 'FAIL'}")


# ---------------------------------------------------------------------------
# Reference helpers (pure, 64-bit, scalar loops)
# ---------------------------------------------------------------------------


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Schoolbook m*k*n matrix product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def softmax_vec(row: np.ndarray) -> np.ndarray:
    """Stable softmax of one row, scalar-style."""
    row = np.asarray(row, dtype=np.float64)
    finite = row[np.isfinite(row)]
    m = finite.max()
    e = np.array([math.exp(v - m) if np.isfinite(v) else 0.0 for v in row])
    return e / e.sum()


def attention_loop(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                   mask: Optional[np.ndarray] = None,
                   scale: Optional[float] = None) -> np.ndarray:
    """Per-row weighted-sum attention: explicit alpha_ij loop."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n_q, d = q.shape
    n_k = k.shape[0]
    if scale is None:
        scale = math.sqrt(d)
    out = np.zeros((n_q, v.shape[1]), dtype=np.float64)
    for i in range(n_q):
        logits = np.empty(n_k, dtype=np.float64)
        for j in range(n_k):
            s = 0.0
            for t in range(d):
                s += q[i, t] * k[j, t]
            logits[j] = s / scale
            if mask is not None:
                logits[j] += mask[i, j]
        alpha = softmax_vec(logits)
        for j in range(n_k):
            for t in range(v.shape[1]):
                out[i, t] += alpha[j] * v[j, t]
    return out


def window_field(n: int, w: int, causal: bool) -> np.ndarray:
    """The sliding-window field: query i may see key j when |i - j| <= w-1,
    and j <= i when causal."""
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            out[i, j] = abs(i - j) <= w - 1 and (j <= i or not causal)
    return out


def rpr_attention_loop(h: np.ndarray, wq: np.ndarray, wk: np.ndarray,
                       wv: np.ndarray, table_q: np.ndarray, table_k: np.ndarray,
                       table_v: np.ndarray, clip_k: int,
                       causal: bool) -> np.ndarray:
    """Relative-position attention, one (i, j) pair at a time.

    Tables hold one row per clipped offset in [-clip_k, clip_k]; row index
    is clip(j - i) + clip_k. Offset vectors are added to the projected
    queries, keys, and values before the usual softmax weighting.
    """
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    d_h = wq.shape[1]
    hq = triple_loop_matmul(h, np.asarray(wq, dtype=np.float64))
    hk = triple_loop_matmul(h, np.asarray(wk, dtype=np.float64))
    hv = triple_loop_matmul(h, np.asarray(wv, dtype=np.float64))

    def offset_row(table, i, j):
        off = max(-clip_k, min(j - i, clip_k))
        return np.asarray(table, dtype=np.float64)[off + clip_k]

    out = np.zeros((n, d_h), dtype=np.float64)
    for i in range(n):
        limit = i + 1 if causal else n
        logits = np.full(n, -np.inf)
        for j in range(limit):
            qv = hq[i] + offset_row(table_q, i, j)
            kv = hk[j] + offset_row(table_k, i, j)
            logits[j] = float(np.dot(qv, kv)) / math.sqrt(d_h)
        alpha = softmax_vec(logits)
        for j in range(limit):
            out[i] += alpha[j] * (hv[j] + offset_row(table_v, i, j))
    return out


def kernel_attention_loop(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                          phi: Callable[[np.ndarray], np.ndarray],
                          causal: bool) -> np.ndarray:
    """Kernelized attention as an explicit ratio of feature-map sums."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n = q.shape[0]
    out = np.zeros((n, v.shape[1]), dtype=np.float64)
    for i in range(n):
        qi = phi(q[i])
        limit = i + 1 if causal else n
        num = np.zeros(v.shape[1], dtype=np.float64)
        den = 0.0
        for j in range(limit):
            w = float(np.dot(qi, phi(k[j])))
            num += w * v[j]
            den += w
        out[i] = num / den
    return out


def kernel_attention_stepped(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                             phi: EF.FeatureMap) -> np.ndarray:
    """Causal kernelized attention fed one position at a time, each call
    carrying the prefix sums on to the next, as a decode step does."""
    d_p, d_v = np.shape(k)[1], np.shape(v)[1]
    carry = [np.zeros((d_p, d_v)), np.zeros(d_p)]
    return np.vstack([
        EF.kernelized_attention(*(T.Tensor(x[t:t + 1]) for x in (q, k, v)),
                                phi, causal=True, carry=carry).values
        for t in range(len(q))])


def ssm_closed_form(a_bar: np.ndarray, b_bar: np.ndarray, c_bar: np.ndarray,
                    d_bar: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Unrolled output o_t = sum_i s_i Bbar Abar^(t-i) Cbar + s_t Dbar.

    Row-vector convention: state updates z_t = z_{t-1} Abar + s_t Bbar,
    output o_t = z_t Cbar + s_t Dbar, with z_0 = 0.
    """
    a_bar = np.asarray(a_bar, dtype=np.float64)
    b_bar = np.asarray(b_bar, dtype=np.float64)
    c_bar = np.asarray(c_bar, dtype=np.float64)
    d_bar = np.asarray(d_bar, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    n, d_in = s.shape
    d_out = c_bar.shape[1]
    out = np.zeros((n, d_out), dtype=np.float64)
    for t in range(n):
        acc = np.zeros(d_out, dtype=np.float64)
        for i in range(t + 1):
            term = s[i] @ b_bar  # row vector in state space
            power = np.linalg.matrix_power(a_bar, t - i)
            acc += term @ power @ c_bar
        out[t] = acc + s[t] @ d_bar
    return out


def diagonalize(dssm: S.DiscreteSSM) -> S.DiscreteSSM:
    """The system in the eigenbasis P of its state matrix, Abar =
    P diag(lam) P^-1: Abar becomes diag(lam), Bbar becomes Bbar P and Cbar
    becomes P^-1 Cbar, so the input-output map is kept. For the symmetric,
    so real and diagonalizable, state matrices the SSM families draw."""
    lam, p = np.linalg.eig(dssm.a_bar.values)
    return S.DiscreteSSM(T.Tensor(np.diag(lam)),
                         T.Tensor(dssm.b_bar.values @ p),
                         T.Tensor(np.linalg.inv(p) @ dssm.c_bar.values),
                         dssm.d_bar, dssm.method)


def gaussian_prior(n: int, gamma: float, sigma: float) -> np.ndarray:
    """Additive locality prior on n x n logits: -gamma (i-j)^2 / (2 sigma^2)."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return -gamma * ((i - j) ** 2 / (2.0 * sigma ** 2))


def pe_direct(position: int, d: int) -> np.ndarray:
    """Sinusoidal position vector evaluated entry by entry."""
    out = np.zeros(d, dtype=np.float64)
    for k in range(d // 2):
        omega = 10000.0 ** (-2.0 * k / d)
        out[2 * k] = math.sin(position * omega)
        out[2 * k + 1] = math.cos(position * omega)
    if d % 2 == 1:
        k = d // 2
        omega = 10000.0 ** (-2.0 * k / d)
        out[d - 1] = math.sin(position * omega)
    return out


def pe_shift_direct(pe_i: np.ndarray, pe_mu: np.ndarray) -> np.ndarray:
    """Reconstruct PE(i+mu) from PE(i) and PE(mu) via the angle-sum identities."""
    d = pe_i.shape[0]
    out = np.zeros(d, dtype=np.float64)
    for k in range(d // 2):
        si, ci = pe_i[2 * k], pe_i[2 * k + 1]
        sm, cm = pe_mu[2 * k], pe_mu[2 * k + 1]
        out[2 * k] = si * cm + ci * sm
        out[2 * k + 1] = ci * cm - si * sm
    return out


def central_difference(f: Callable[[np.ndarray], float], x: np.ndarray,
                       eps: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for idx in range(xf.size):
        orig = xf[idx]
        xf[idx] = orig + eps
        f_plus = f(x)
        xf[idx] = orig - eps
        f_minus = f(x)
        xf[idx] = orig
        flat[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def relative_gradient_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Relative error of a gradient against the oracle, Frobenius-normed."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    denom = np.linalg.norm(reference)
    if denom == 0.0:
        return float(np.linalg.norm(analytic))
    return float(np.linalg.norm(analytic - reference) / denom)


def enumerate_sequences(vocab: list[int], length: int):
    """All token sequences of the given length (exhaustive beam reference)."""
    if length == 0:
        yield ()
        return
    for prefix in enumerate_sequences(vocab, length - 1):
        for t in vocab:
            yield prefix + (t,)


def _report(name: str, max_abs: float, max_rel: float, tol: float) -> OracleReport:
    return OracleReport(name, float(max_abs), float(max_rel), tol,
                        bool(max_rel <= tol or max_abs <= tol))


def _errors(system: np.ndarray, oracle: np.ndarray):
    """Max abs and max rel error, denominators taken from the oracle side."""
    system = np.asarray(system, dtype=np.float64)
    oracle = np.asarray(oracle, dtype=np.float64)
    abs_err = np.abs(system - oracle)
    denom = np.maximum(np.abs(oracle), 1e-12)
    return float(abs_err.max(initial=0.0)), float((abs_err / denom).max(initial=0.0))


def quantized_matmul_bound(a: np.ndarray, b: np.ndarray, s_a: float,
                           s_b: float) -> np.ndarray:
    """Worst-case |error| of a both-sides-quantized product, entrywise.

    Each operand entry moves by at most half its step, so cell (i, j)
    can shift by sum_t (|a_it| s_b + |b_tj| s_a + s_a s_b / 2) / 2.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += abs(a[i, t]) * s_b / 2.0 + abs(b[t, j]) * s_a / 2.0 \
                    + s_a * s_b / 4.0
            out[i, j] = s
    return out


# ---------------------------------------------------------------------------
# Propagated quantization bound for a plain dense decoder
# ---------------------------------------------------------------------------
#
# Runs the float forward pass and, alongside it, an elementwise interval
# |x_quantized - x_float| <= E. Weight products add rounding intervals;
# layer norm, softmax and the residuals only propagate them. The result
# is a sound per-logit bound for the integer-matmul inference mode.


def _qmm_interval(x, e, w, q_max):
    top_w = np.abs(w).max()
    if top_w == 0.0:
        return np.zeros((x.shape[0], w.shape[1])), \
            np.zeros((x.shape[0], w.shape[1]))
    s_w = top_w / q_max
    top_x = (np.abs(x) + e).max()
    if top_x == 0.0:
        return x @ w, np.zeros((x.shape[0], w.shape[1]))
    s_x = top_x / q_max
    e_x = e + s_x / 2.0
    bound = e_x @ (np.abs(w) + s_w / 2.0) \
        + np.abs(x) @ np.full(w.shape, s_w / 2.0)
    return x @ w, bound


def _ln_interval(h, e, g, b, eps):
    mu = h.mean(axis=1, keepdims=True)
    sg = h.std(axis=1, keepdims=True)
    me = e.mean(axis=1, keepdims=True)
    se = np.sqrt((e ** 2).mean(axis=1, keepdims=True))
    lo = np.maximum(sg - se, 0.0)
    u = h - mu
    out = g * u / (sg + eps) + b
    bound = np.abs(g) * ((e + me) / (lo + eps)
                         + np.abs(u) * se / ((lo + eps) * (sg + eps)))
    return out, bound


def _softmax_interval(row, err):
    """Softmax of one row plus an entrywise error radius for row +- err.

    One shared shift keeps the exponentials in range; an underflowed
    branch just widens the interval toward [0, 1], which stays valid.
    """
    base = np.exp(row - row.max())
    p = base / base.sum()
    shift = (row + err).max()
    up = np.exp(row + err - shift)
    dn = np.exp(row - err - shift)
    tot_up, tot_dn = up.sum(), dn.sum()
    denom_hi = up + (tot_dn - dn)
    denom_lo = dn + (tot_up - up)
    p_hi = np.where(denom_hi > 0, up / np.maximum(denom_hi, 1e-300), 1.0)
    p_lo = dn / np.maximum(denom_lo, 1e-300)
    return p, np.maximum(p_hi - p, p - p_lo)


def quantized_decoder_bound(x0: np.ndarray, layers: list, w_o: np.ndarray,
                            bits: int):
    """(float logits, per-logit quantization bound) for a post-norm stack.

    x0 is the exact embedded input (n, d); each layer dict carries its
    head count ``heads``, the fused (d, d) wq/wk/wv, w_out, ln1,
    w_h/b_h/w_f/b_f, ln2, with LN entries as (g, b, eps) arrays. Products
    against those weights are treated as both-sides quantized at the given
    width, one step per matrix; heads are column slices of the fused
    products and their intervals. Everything else propagates intervals
    unchanged or through the exact Lipschitz forms.
    """
    q_max = (1 << (bits - 1)) - 1
    h = np.asarray(x0, dtype=np.float64)
    e = np.zeros_like(h)
    n = h.shape[0]
    for lay in layers:
        qf, eqf = _qmm_interval(h, e, lay["wq"], q_max)
        kf, ekf = _qmm_interval(h, e, lay["wk"], q_max)
        vf, evf = _qmm_interval(h, e, lay["wv"], q_max)
        d_h = qf.shape[1] // lay["heads"]
        scale = math.sqrt(d_h)
        ctx = np.zeros_like(qf)
        ectx = np.zeros_like(qf)
        for hh in range(lay["heads"]):
            cols = slice(hh * d_h, (hh + 1) * d_h)
            q, eq = qf[:, cols], eqf[:, cols]
            k, ek = kf[:, cols], ekf[:, cols]
            v, ev = vf[:, cols], evf[:, cols]
            s = q @ k.T / scale
            es = (eq @ (np.abs(k) + ek).T + np.abs(q) @ ek.T) / scale
            for i in range(n):
                p, ep = _softmax_interval(s[i, :i + 1], es[i, :i + 1])
                ctx[i, cols] = p @ v[:i + 1]
                ectx[i, cols] = ep @ (np.abs(v[:i + 1]) + ev[:i + 1]) \
                    + p @ ev[:i + 1]
        o, eo = _qmm_interval(ctx, ectx, lay["w_out"], q_max)
        h, e = _ln_interval(o + h, eo + e, *lay["ln1"])
        a, ea = _qmm_interval(h, e, lay["w_h"], q_max)
        r = np.maximum(a + lay["b_h"], 0.0)
        f, ef = _qmm_interval(r, ea, lay["w_f"], q_max)
        h, e = _ln_interval(f + lay["b_f"] + h, ef + e, *lay["ln2"])
    return h @ w_o, e @ np.abs(w_o)


# ---------------------------------------------------------------------------
# The verification suite
# ---------------------------------------------------------------------------
#
# One runner per derived-check family. Each builds a seeded case, runs
# the real implementation, and measures it against the reference half of
# this module (or a self-contained recomputation). run_oracle_suite
# never raises on a failing family; it reports it.


_VOCAB = E.Vocab.from_text("abcdefgh")
_F64 = np.float64


def _toy_model(seed=0, **kw):
    base = dict(d=8, n_layers=2, tau=2, d_ffn=16)
    base.update(kw)
    return M.Model.init(M.ModelConfig(**base), _VOCAB, seed=seed, dtype=_F64)


def _ids(rng: T.Rng, n: int) -> list:
    lo, hi = len(E._RESERVED), len(_VOCAB)
    return [int(v) for v in rng.integers(lo, hi, (n,))]


def _run_matmul_loop(rng):
    a, b = rng.gaussian((7, 5)), rng.gaussian((5, 3))
    return _errors(T.matmul(T.Tensor(a), T.Tensor(b)).values,
                   triple_loop_matmul(a, b))


def _run_sublayer_gradients(rng):
    z0 = rng.gaussian((3, 4))
    params = B.FFNParams.init(4, 8, rng, dtype=_F64)
    ln = B.LNParams.init(4, dtype=_F64)
    sub = B.SublayerConfig("post")
    probe = rng.gaussian((3, 4))

    def loss_from(z_arr):
        z = T.Tensor(np.asarray(z_arr, dtype=_F64))
        out = B.sublayer_apply(z, lambda x: B.ffn(x, params), ln, sub)
        return float(T.reduce_sum(out * T.Tensor(probe)).values)

    def loss_from_wh(w_arr):
        T.assign_(params.w_h, np.asarray(w_arr, dtype=_F64))
        return loss_from(z0)

    z = T.Tensor(z0.copy(), trainable=True)
    with T.Tape():
        out = B.sublayer_apply(z, lambda x: B.ffn(x, params), ln, sub)
        loss = T.reduce_sum(out * T.Tensor(probe))
    grads = T.backward(loss)
    fd_z = central_difference(loss_from, z0.copy())
    wh0 = params.w_h.values.copy()
    fd_w = central_difference(loss_from_wh, wh0.copy())
    T.assign_(params.w_h, wh0)
    rel = max(relative_gradient_error(grads[z].values, fd_z),
              relative_gradient_error(grads[params.w_h].values, fd_w))
    return rel, rel


def _run_quantize_roundtrip(rng):
    xs = rng.uniform((10000,)) * 2.0 - 1.0
    spec = T.QuantSpec(2.0 / 255.0, 8)
    back = T.quantize_levels(xs, spec)[0] * spec.step
    worst = float(np.abs(back - xs).max())
    return worst, worst / (spec.step / 2.0)


def _run_quantized_matmul_bound(rng):
    a, b = rng.gaussian((8, 8)), rng.gaussian((8, 8))
    s_a = float(np.abs(a).max()) / 127.0
    s_b = float(np.abs(b).max()) / 127.0
    got = T.quantized_matmul(T.Tensor(a), T.Tensor(b),
                             T.QuantSpec(s_a, 8), T.QuantSpec(s_b, 8)).values
    err = np.abs(got - triple_loop_matmul(a, b))
    bound = quantized_matmul_bound(a, b, s_a, s_b)
    return float(err.max()), float((err / bound).max())


def _run_pe_shift(rng):
    pe = E.SinusoidalPE(8)
    got = E.pe_shift(pe.vector(3), pe.vector(5))
    return _errors(got, pe_direct(8, 8))


def _run_embed_plus_pe(rng):
    model = _toy_model()
    table = model.embed.weights.values
    ids = [1, 4, 9, 0]
    got = model._embed_at(np.array(ids), 0).values
    want = np.zeros((4, 8))
    for j, tok in enumerate(ids):
        for t in range(8):
            want[j, t] = table[tok, t] + pe_direct(j, 8)[t]
    return _errors(got, want)


def _run_attention_loop(rng):
    q, k, v = rng.gaussian((8, 5)), rng.gaussian((8, 5)), rng.gaussian((8, 4))
    got = A.qkv_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v)).values
    return _errors(got, attention_loop(q, k, v))


def _run_head_permutation(rng):
    params = A.AttentionParams.init(8, 4, rng, dtype=_F64)
    h = T.Tensor(rng.gaussian((5, 8)))
    base = A.self_attention(h, params).values
    perm = [2, 0, 3, 1]
    d_h = params.d_head
    cols = np.concatenate([np.arange(p * d_h, (p + 1) * d_h) for p in perm])
    permuted = A.AttentionParams.from_blocks(
        8, 4, T.Tensor(params.wq.values[:, cols]),
        T.Tensor(params.wk.values[:, cols]), T.Tensor(params.wv.values[:, cols]),
        T.Tensor(params.w_out.values[cols]))
    return _errors(A.self_attention(h, permuted).values, base)


def _run_attention_composition(rng):
    params = A.AttentionParams.init(6, 1, rng, dtype=_F64)
    h = T.Tensor(rng.gaussian((4, 6)))
    got = A.self_attention(h, params).values
    ctx = A.qkv_attention(T.matmul(h, params.wq),
                          T.matmul(h, params.wk),
                          T.matmul(h, params.wv))
    return _errors(got, T.matmul(ctx, params.w_out).values)


def _run_gaussian_prior_argmax(rng):
    n = 10
    q, k, v = (rng.gaussian((n, 4)) for _ in range(3))
    mask = gaussian_prior(n, 100.0, 1.0) + A.causal_mask(n)
    _, w = A.qkv_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), mask,
                           return_weights=True)
    bad = sum(int(np.argmax(w.values[i]) != i) for i in range(n))
    return float(bad), float(bad)


def _run_rpr_loop(rng):
    params = A.AttentionParams.init(6, 1, rng, dtype=_F64)
    rpr = E.RprTable.init(2, 6, rng, dtype=_F64)
    h = rng.gaussian((5, 6))
    got = params.merge(A.rpr_attention(*params.heads(T.Tensor(h)), rpr,
                                       A.causal_mask(5))).values
    ctx = rpr_attention_loop(h, params.wq.values, params.wk.values,
                             params.wv.values, rpr.tables["q"].values,
                             rpr.tables["k"].values, rpr.tables["v"].values,
                             2, causal=True)
    return _errors(got, triple_loop_matmul(ctx, params.w_out.values))


def _run_multiquery_weight_copy(rng):
    mq = A.AttentionParams.init(8, 4, rng, n_kv=1, dtype=_F64)
    h = T.Tensor(rng.gaussian((5, 8)))
    got = A.self_attention(h, mq).values
    std = A.AttentionParams.from_blocks(
        8, 4, mq.wq, T.Tensor(np.tile(mq.wk.values, 4)),
        T.Tensor(np.tile(mq.wv.values, 4)), mq.w_out)
    return _errors(got, A.self_attention(h, std).values)


def _run_cached_decode(rng):
    model = _toy_model()
    ids = _ids(rng, 12)
    full = model.decoder_forward(ids).values
    want = np.vstack([softmax_vec(row) for row in full])
    sess = model.decode_session()
    got = np.vstack([model.decode_step(sess, t) for t in ids])
    return _errors(got, want)


def _run_field_union(rng):
    """The union over blocks of window_band's permissions, mapped back to
    (query, key) positions, is the window field: causal and not, lengths
    that are and are not a multiple of the window."""
    bad = 0
    for n, w, causal in ((12, 5, True), (12, 5, False), (12, 4, True),
                         (12, 4, False), (7, 1, True), (3, 8, False)):
        b, r, c = np.nonzero(A.window_band(n, w, causal) == 0.0)
        i, j = b * w + r, (b - 1) * w + c
        got = np.zeros((n, n), dtype=bool)
        got[i[i < n], j[i < n]] = True
        bad += int((got != window_field(n, w, causal)).sum())
    return float(bad), float(bad)


def _run_kernel_loop(rng):
    q, k, v = rng.gaussian((8, 5)), rng.gaussian((8, 5)), rng.gaussian((8, 4))
    phi = EF.FeatureMap("elu_plus_one")
    got = EF.kernelized_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v),
                                  phi, causal=True).values
    return _errors(got, kernel_attention_loop(q, k, v, phi.apply_np, True))


def _run_streaming_batch(rng):
    n, d = 16, 5
    q, k, v = rng.gaussian((n, d)), rng.gaussian((n, d)), rng.gaussian((n, 4))
    phi = EF.FeatureMap("elu_plus_one")
    want = EF.kernelized_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v),
                                   phi, causal=True).values
    return _errors(kernel_attention_stepped(q, k, v, phi), want)


def _run_length_reduction_mean(rng):
    k, v = rng.gaussian((6, 4)), rng.gaussian((6, 4))
    u = T.Tensor(np.kron(np.eye(3), [[0.5, 0.5]]))    # pairwise means
    proj = EF.LowRankProjections(u_k=u, u_v=u)
    k_r, v_r = EF.reduce_length(T.Tensor(k), T.Tensor(v), proj)
    want_k = np.zeros((3, 4))
    want_v = np.zeros((3, 4))
    for i in range(3):
        for t in range(4):
            want_k[i, t] = (k[2 * i, t] + k[2 * i + 1, t]) / 2.0
            want_v[i, t] = (v[2 * i, t] + v[2 * i + 1, t]) / 2.0
    a1, r1 = _errors(k_r.values, want_k)
    a2, r2 = _errors(v_r.values, want_v)
    return max(a1, a2), max(r1, r2)


def _run_width_reduction_rank(rng):
    q, k = rng.gaussian((10, 8)), rng.gaussian((10, 8))
    proj = EF.LowRankProjections(u_q=T.Tensor(rng.gaussian((8, 3))),
                                 u_kd=T.Tensor(rng.gaussian((8, 3))))
    q_r, k_r = EF.reduce_width(T.Tensor(q), T.Tensor(k), proj)
    rank = int(np.linalg.matrix_rank(q_r.values @ k_r.values.T))
    excess = float(max(0, rank - 3))
    return excess, excess


def _run_discretization_order(rng):
    def gaps(dt):
        cont = S.ContinuousSSM([[-1.0]], [[1.0]], [[1.0]], [[0.0]], dt)
        bil = float(S.discretize(cont, "bilinear").a_bar.values[0, 0])
        zoh = float(S.discretize(cont, "zoh").a_bar.values[0, 0])
        return abs(bil - zoh)

    got = gaps(0.1) / gaps(0.05)
    bil = lambda dt: (1.0 - dt / 2.0) / (1.0 + dt / 2.0)
    want = abs(bil(0.1) - math.exp(-0.1)) / abs(bil(0.05) - math.exp(-0.05))
    return abs(got - want), abs(got - want) / want


def _stable_dssm(rng, d_state=3, d_in=2, method="zoh"):
    a = -1.5 * np.eye(d_state) + 0.3 * rng.gaussian((d_state, d_state))
    cont = S.ContinuousSSM(a, rng.gaussian((d_in, d_state)),
                           rng.gaussian((d_state, d_in)),
                           rng.gaussian((d_in, d_in)), 0.1)
    return S.discretize(cont, method)


def _run_ssm_closed_form(rng):
    dssm = _stable_dssm(rng)
    s = rng.gaussian((32, 2))
    got = S.ssm_apply(T.Tensor(s), dssm).values
    want = ssm_closed_form(dssm.a_bar.values, dssm.b_bar.values,
                           dssm.c_bar.values, dssm.d_bar.values, s)
    return _errors(got, want)


def _run_ssm_conv_vs_scan(rng):
    dssm = _stable_dssm(rng)
    s = rng.gaussian((32, 2))
    carry = [np.zeros((1, dssm.d_state))]
    steps = [S.ssm_apply(T.Tensor(s[t:t + 1]), dssm, carry).values
             for t in range(len(s))]
    return _errors(S.ssm_apply(T.Tensor(s), dssm).values, np.vstack(steps))


def _run_ssm_diagonal_kernel(rng):
    lam = rng.uniform((3,)) * 0.8 + 0.05
    dssm = S.DiscreteSSM(T.Tensor(np.diag(lam)),
                         T.Tensor(rng.gaussian((2, 3))),
                         T.Tensor(rng.gaussian((3, 2))),
                         T.Tensor(rng.gaussian((2, 2))), "zoh")
    impulses = np.pad([[1.0, 0.0, 0.0, 1.0]], ((0, 7), (0, 0)))  # c to c
    taps = S.ssm_apply(T.Tensor(impulses), dssm).values.reshape(8, 2, 2)
    worst_abs, worst_rel = 0.0, 0.0
    for t in range(8):
        dense = dssm.b_bar.values \
            @ np.linalg.matrix_power(np.diag(lam), t) @ dssm.c_bar.values
        a_err, r_err = _errors(taps[t] - (t == 0) * dssm.d_bar.values, dense)
        worst_abs, worst_rel = max(worst_abs, a_err), max(worst_rel, r_err)
    return worst_abs, worst_rel


def _run_ssm_diagonalization(rng):
    sym = rng.gaussian((3, 3))
    a_bar = 0.3 * (sym + sym.T) / 2.0
    dssm = S.DiscreteSSM(T.Tensor(a_bar), T.Tensor(rng.gaussian((2, 3))),
                         T.Tensor(rng.gaussian((3, 2))),
                         T.Tensor(rng.gaussian((2, 2))), "zoh")
    s = rng.gaussian((16, 2))
    got = S.ssm_apply(T.Tensor(s), diagonalize(dssm)).values
    want = ssm_closed_form(a_bar, dssm.b_bar.values, dssm.c_bar.values,
                           dssm.d_bar.values, s)
    return _errors(got, want)


def _run_eigen_reconstruction(rng):
    """The eigenbasis system, stepped one position at a time through
    ``carry``, reconstructs the dense system's full pass."""
    sym = rng.gaussian((4, 4))
    dssm = S.DiscreteSSM(T.Tensor(0.3 * (sym + sym.T) / 2.0),
                         T.Tensor(rng.gaussian((2, 4))),
                         T.Tensor(rng.gaussian((4, 2))),
                         T.Tensor(rng.gaussian((2, 2))), "zoh")
    diag, s = diagonalize(dssm), rng.gaussian((24, 2))
    carry = [np.zeros((1, 4))]
    steps = [S.ssm_apply(T.Tensor(s[t:t + 1]), diag, carry).values
             for t in range(len(s))]
    return _errors(np.vstack(steps), S.ssm_apply(T.Tensor(s), dssm).values)


def _run_ln_moments(rng):
    h = rng.gaussian((1, 16)) * 3.0 + 1.0
    ln = B.LNParams.init(16, eps=1e-12, dtype=_F64, trainable=False)
    out = B.layer_norm(T.Tensor(h), ln).values[0]
    mean_err = abs(float(out.mean()))
    std_err = abs(float(out.std()) - 1.0)
    return max(mean_err, std_err), max(mean_err / 1e-6, std_err / 1e-3)


def _run_rk_exponential(rng):
    lam = -0.3

    def err(h):
        z = T.Tensor(np.array([[1.0]]))
        got = B.rk_sublayer(z, lambda x: x * lam, order=4, h=h).values[0, 0]
        return abs(got - math.exp(lam * h))

    ratio = err(0.5) / err(0.25)
    return abs(ratio - 32.0), abs(ratio - 32.0) / 32.0


def _run_dropout_expectation(rng):
    d = 4
    w = T.Tensor(rng.gaussian((d, d)))
    stack = [(lambda z: T.matmul(z, w), B.LNParams.init(d, dtype=_F64))]
    z = T.Tensor(rng.gaussian((1, d)))
    infer = B.layer_dropout(z, stack, rho=0.7, mode="infer").values
    total = np.zeros_like(infer)
    draws = 10000
    sample_rng = T.Rng(11)
    for _ in range(draws):
        total += B.layer_dropout(z, stack, rho=0.7, mode="train",
                                 rng=sample_rng).values
    gap = float(np.abs(total / draws - infer).max())
    return gap, gap / float(np.abs(infer).max())


def _run_moe_topk_sort(rng):
    probs = rng.uniform((6, 8))
    sel = B.top_k_rows(probs, 2)
    bad = 0
    for i in range(6):
        order = sorted(range(8), key=lambda j: (-probs[i, j], j))
        want = set(order[:2])
        bad += int(set(np.flatnonzero(sel[i])) != want)
    return float(bad), float(bad)


def _copied_untied_pair(seed):
    tied = M.Model.init(M.ModelConfig(d=8, n_layers=2, tau=2, d_ffn=16,
                                      share_groups=((0, 1),)),
                        _VOCAB, seed=seed, dtype=_F64)
    untied = M.Model.init(M.ModelConfig(d=8, n_layers=2, tau=2, d_ffn=16),
                          _VOCAB, seed=seed, dtype=_F64)
    by_name = dict(untied.named())
    for name, t in tied.named():
        T.assign_(by_name[name], t.values.copy())
    return tied, untied


def _run_tied_stack_copy(rng):
    tied, untied = _copied_untied_pair(3)
    ids = _ids(rng, 6)
    return _errors(tied.decoder_forward(ids).values,
                   untied.decoder_forward(ids).values)


def _run_tied_gradient_sum(rng):
    tied, untied = _copied_untied_pair(4)
    ids = _ids(rng, 6)
    probe = rng.gaussian((6, len(_VOCAB)))

    def grads_of(model):
        with T.Tape():
            loss = T.reduce_sum(model.decoder_forward(ids) * T.Tensor(probe))
        return T.backward(loss)

    g_tied = grads_of(tied)
    g_untied = grads_of(untied)
    tied_names = dict(tied.named())
    untied_names = dict(untied.named())
    shared = tied_names["dec0.ffn.w_h"]
    got = g_tied[shared].values
    want = g_untied[untied_names["dec0.ffn.w_h"]].values \
        + g_untied[untied_names["dec1.ffn.w_h"]].values
    return _errors(got, want)


def _run_padding_invariance(rng):
    model = _toy_model()
    ids = _ids(rng, 6)
    alone = model.decoder_forward(ids).values
    padded = model.decoder_forward(ids + [E.PAD] * 4).values
    return _errors(padded[:6], alone)


def _run_pooling_padding(rng):
    model = _toy_model(architecture="encoder-only")
    ids = _ids(rng, 6)
    return _errors(model.represent(ids + [E.PAD] * 3, "mean"),
                   model.represent(ids, "mean"))


def _run_logprob_stepwise(rng):
    model = _toy_model()
    target = _ids(rng, 7)
    sess = model.decode_session()
    dist = model.decode_step(sess, E.SOS)
    total = 0.0
    for tok in target:
        total += math.log(max(float(dist[tok]), 1e-300))
        dist = model.decode_step(sess, tok)
    got = model.sequence_logprob(target)
    return abs(got - total), abs(got - total) / abs(total)


def _run_similarity_triangle(rng):
    bad = 0
    for _ in range(50):
        u, v, w = (rng.gaussian((6,)) for _ in range(3))
        d_uw = M.similarity(u, w, "euclidean")
        d_uv = M.similarity(u, v, "euclidean")
        d_vw = M.similarity(v, w, "euclidean")
        bad += int(d_uw > d_uv + d_vw + 1e-12)
    return float(bad), float(bad)


def _run_schedule_shape(rng):
    cfg = TR.TrainConfig(lr0=1.0, n_warmup=50)
    lrs = [TR.lr_schedule(s, cfg) for s in range(1, 200)]
    bad = sum(int(lrs[s] > lrs[s + 1] + 1e-15) for s in range(49))
    bad += sum(int(lrs[s + 1] >= lrs[s]) for s in range(49, len(lrs) - 1))
    return float(bad), float(bad)


def _run_adam_quadratic(rng):
    w = T.Tensor(np.array(0.0), trainable=True)
    state = TR.AdamState()
    for _ in range(2000):
        g = 2.0 * (float(w.values) - 3.0)
        TR.adam_step([w], {id(w): np.array(g)}, state, lr=0.02)
    off = abs(float(w.values) - 3.0)
    return off, off


def _run_adam_trace(rng):
    w = T.Tensor(np.array(0.0), trainable=True)
    state = TR.AdamState(beta1=0.9, beta2=0.999, eps=1e-9)
    for _ in (1, 2):
        g = 2.0 * (float(w.values) - 3.0)
        TR.adam_step([w], {id(w): np.array(g)}, state, lr=0.1)
    wv, m, v = 0.0, 0.0, 0.0
    for t in (1, 2):
        g = 2.0 * (wv - 3.0)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        wv -= 0.1 * (m / (1 - 0.9 ** t)) \
            / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-9)
    off = abs(float(w.values) - wv)
    return off, off


def _run_chunk_no_gradient(rng):
    model = _toy_model(n_layers=1)
    marker = 4
    ids = [marker, 5, 6, 7, 5, 6]
    kv = []
    model.decoder_forward(ids[:3], kv_out=kv)

    def tail_loss():
        logits = model.decoder_forward(ids[3:], start_pos=3, kv_prefix=kv)
        probs = np.vstack([softmax_vec(r) for r in logits.values])
        return -float(np.log(probs[np.arange(3), [6, 7, 5]]).sum())

    base = tail_loss()
    bumped = model.embed.weights.values.copy()
    bumped[marker, 0] += 1e-4
    T.assign_(model.embed.weights, bumped)
    moved = abs(tail_loss() - base)
    bumped[marker, 0] -= 1e-4
    T.assign_(model.embed.weights, bumped)
    return moved, moved


def _run_chunk_manual_forward(rng):
    model = _toy_model(n_layers=1, tau=1, d=4, d_ffn=8)
    ids = _ids(rng, 7)
    half = 4
    kv = []
    model.decoder_forward(ids[:half], kv_out=kv)
    got = model.decoder_forward(ids[half:], start_pos=half,
                                kv_prefix=kv).values

    lay = model.dec_layers[0]
    emb = model.embed.weights.values[ids[half:]] \
        + model.pe.table(len(ids))[half:]
    q = triple_loop_matmul(emb, lay.att.wq.values)
    k = np.vstack([kv[0][0],
                   triple_loop_matmul(emb, lay.att.wk.values)])
    v = np.vstack([kv[0][1],
                   triple_loop_matmul(emb, lay.att.wv.values)])
    n2 = emb.shape[0]
    scores = np.full((n2, k.shape[0]), -np.inf)
    for i in range(n2):
        for j in range(half + i + 1):
            scores[i, j] = float(np.dot(q[i], k[j])) / 2.0
    att = np.vstack([softmax_vec(scores[i]) @ v for i in range(n2)])
    att = triple_loop_matmul(att, lay.att.w_out.values)

    def ln(x, p):
        mu = x.mean(axis=1, keepdims=True)
        sg = x.std(axis=1, keepdims=True)
        return p.g.values * (x - mu) / (sg + p.eps) + p.b.values

    h = ln(att + emb, lay.ln1)
    f = np.maximum(triple_loop_matmul(h, lay.ffn_core.w_h.values)
                   + lay.ffn_core.b_h.values, 0.0)
    h = ln(triple_loop_matmul(f, lay.ffn_core.w_f.values)
           + lay.ffn_core.b_f.values + h, lay.ln2)
    return _errors(got, triple_loop_matmul(h, model.w_o.values))


def _run_beam_greedy(rng):
    model = _toy_model(n_layers=1)
    cfg = R.SearchConfig(beam=1, n_max=8)
    greedy = R.greedy_generate(model, [4, 5], cfg)
    top = R.beam_search(model, [4, 5], cfg)[0].tokens
    bad = float(greedy != top)
    return bad, bad


def _run_beam_exhaustive(rng):
    vocab = E.Vocab.from_text("abcd")
    model = M.Model.init(M.ModelConfig(d=8, n_layers=1, tau=2, d_ffn=16),
                         vocab, seed=7, dtype=_F64)
    w = model.w_o.values.copy()
    w[:, E.EOS] -= T.Rng(107).gaussian((8,)) * 1.5
    T.assign_(model.w_o, w)
    chars = list(range(len(E._RESERVED), len(vocab)))
    scored = []
    for k in range(4):
        for seq in enumerate_sequences(chars, k):
            cand = list(seq) + [E.EOS]
            scored.append((model.sequence_logprob(cand), cand))
    for seq in enumerate_sequences(chars, 4):
        scored.append((model.sequence_logprob(list(seq)), list(seq)))
    scored.sort(key=lambda t: (-t[0], len(t[1]), t[1]))
    pool = R.beam_search(model, [], R.SearchConfig(beam=625, n_max=4))
    if len(pool) != len(scored):
        return float(abs(len(pool) - len(scored))), math.inf
    mismatches = sum(int(h.tokens != c)
                     for h, (_, c) in zip(pool, scored))
    worst = max(abs(h.logprob - s) for h, (s, _) in zip(pool, scored))
    return max(float(mismatches), worst), float(mismatches)


def _run_beam_rescoring(rng):
    model = _toy_model(n_layers=1)
    pool = R.beam_search(model, [4], R.SearchConfig(beam=3, n_max=6))
    worst = max(abs(h.logprob - model.sequence_logprob([4] + h.tokens)
                    + model.sequence_logprob([4]))
                for h in pool)
    return worst, worst


def _run_checkpoint_regeneration(rng):
    model = M.Model.init(M.ModelConfig(d=8, n_layers=2, tau=2, d_ffn=16),
                         _VOCAB, seed=9)
    cfg = R.SearchConfig(n_max=12)
    before = R.greedy_generate(model, [4, 6], cfg)
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    try:
        R.save_checkpoint(model, path)
        loaded = R.load_checkpoint(path)
    finally:
        os.unlink(path)
    tensor_err = max(float(np.abs(t.values - dict(loaded.named())[n].values).max())
                     for n, t in model.named())
    bad = float(before != R.greedy_generate(loaded, [4, 6], cfg))
    return max(bad, tensor_err), bad


def _run_quantized_agreement(rng):
    model = M.Model.init(M.ModelConfig(d=16, n_layers=2, tau=2, d_ffn=32),
                         _VOCAB, seed=2, dtype=_F64)
    cfg = R.SearchConfig(n_max=24)
    plain = R.greedy_generate(model, [4, 5], cfg)
    quant = R.quantized_infer(model, [4, 5], cfg, bits=16)
    bad = float(plain != quant)
    return bad, bad


def _run_quantized_bound(rng):
    model = _toy_model(seed=6, n_layers=1)
    ids = _ids(rng, 6)
    layers = []
    for lay in model.dec_layers:
        layers.append({
            "heads": lay.att.tau,
            "wq": lay.att.wq.values,
            "wk": lay.att.wk.values,
            "wv": lay.att.wv.values,
            "w_out": lay.att.w_out.values,
            "ln1": (lay.ln1.g.values, lay.ln1.b.values, lay.ln1.eps),
            "w_h": lay.ffn_core.w_h.values,
            "b_h": lay.ffn_core.b_h.values,
            "w_f": lay.ffn_core.w_f.values,
            "b_f": lay.ffn_core.b_f.values,
            "ln2": (lay.ln2.g.values, lay.ln2.b.values, lay.ln2.eps),
        })
    x0 = model.embed.weights.values[ids] + model.pe.table(len(ids))
    ref_logits, bound = quantized_decoder_bound(x0, layers,
                                                model.w_o.values, 8)
    float_logits = model.decoder_forward(ids).values
    drift = float(np.abs(float_logits - ref_logits).max())
    quant_logits = R.quantized_forward(model, ids, bits=8)
    err = np.abs(quant_logits - float_logits)
    return max(drift, float(err.max())), float((err / bound).max())


def _run_cli_smoke(rng):
    import contextlib
    import io
    from . import cli
    tmp = tempfile.mkdtemp()
    corpus = os.path.join(tmp, "tiny.txt")
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write("the cat sat on the mat. " * 40)
    ckpt = os.path.join(tmp, "out.ckpt")
    metrics = os.path.join(tmp, "metrics.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["train", "--corpus", corpus, "--out", ckpt,
                       "--metrics", metrics, "--steps", "2",
                       "--seq-len", "16", "--batch-size", "2",
                       "--set", "model.d=16", "--set", "model.ffn_width=32",
                       "--set", "model.heads=2"])
    bad = float(rc != 0)
    if not bad:
        loaded = R.load_checkpoint(ckpt)
        bad = float(loaded.cfg.d != 16)
        with open(metrics, "r", encoding="utf-8") as fh:
            bad = max(bad, float(not fh.readline().startswith("step,")))
    return bad, bad


# family -> (tolerance, how the report is read, runner)
# "err": absolute/relative error vs the reference; pass when rel <= tol
#        (or abs <= tol when the reference is exactly zero)
# "ratio": measured / allowed bound; pass when <= tol
# "count": number of violations; pass when <= tol
_SUITE = [
    ("matmul-loop", 1e-6, "err", _run_matmul_loop),
    ("sublayer-gradients", 1e-3, "err", _run_sublayer_gradients),
    ("quantize-roundtrip", 1.0, "ratio", _run_quantize_roundtrip),
    ("quantized-matmul-bound", 1.0, "ratio", _run_quantized_matmul_bound),
    ("pe-shift", 1e-9, "err", _run_pe_shift),
    ("embed-plus-pe", 1e-9, "err", _run_embed_plus_pe),
    ("attention-loop", 1e-6, "err", _run_attention_loop),
    ("head-permutation", 1e-9, "err", _run_head_permutation),
    ("attention-composition", 1e-9, "err", _run_attention_composition),
    ("gaussian-prior-argmax", 0.0, "count", _run_gaussian_prior_argmax),
    ("rpr-loop", 1e-6, "err", _run_rpr_loop),
    ("multiquery-weight-copy", 1e-9, "err", _run_multiquery_weight_copy),
    ("cached-decode", 1e-6, "err", _run_cached_decode),
    ("field-union", 0.0, "count", _run_field_union),
    ("kernel-loop", 1e-6, "err", _run_kernel_loop),
    ("streaming-batch", 1e-6, "err", _run_streaming_batch),
    ("length-reduction-mean", 1e-9, "err", _run_length_reduction_mean),
    ("width-reduction-rank", 0.0, "count", _run_width_reduction_rank),
    ("discretization-order", 1e-9, "err", _run_discretization_order),
    ("ssm-closed-form", 1e-6, "err", _run_ssm_closed_form),
    ("ssm-conv-vs-scan", 1e-6, "err", _run_ssm_conv_vs_scan),
    ("ssm-diagonal-kernel", 1e-9, "err", _run_ssm_diagonal_kernel),
    ("ssm-diagonalization", 1e-5, "err", _run_ssm_diagonalization),
    ("eigen-reconstruction", 1e-6, "err", _run_eigen_reconstruction),
    ("ln-moments", 1.0, "ratio", _run_ln_moments),
    ("rk-exponential", 0.2, "ratio", _run_rk_exponential),
    ("dropout-expectation", 0.02, "ratio", _run_dropout_expectation),
    ("moe-topk-sort", 0.0, "count", _run_moe_topk_sort),
    ("tied-stack-copy", 1e-9, "err", _run_tied_stack_copy),
    ("tied-gradient-sum", 1e-9, "err", _run_tied_gradient_sum),
    ("padding-invariance", 1e-6, "err", _run_padding_invariance),
    ("pooling-padding", 1e-6, "err", _run_pooling_padding),
    ("logprob-stepwise", 1e-9, "err", _run_logprob_stepwise),
    ("similarity-triangle", 0.0, "count", _run_similarity_triangle),
    ("schedule-shape", 0.0, "count", _run_schedule_shape),
    ("adam-quadratic", 1e-3, "ratio", _run_adam_quadratic),
    ("adam-trace", 1e-12, "err", _run_adam_trace),
    ("chunk-no-gradient", 0.0, "count", _run_chunk_no_gradient),
    ("chunk-manual-forward", 1e-9, "err", _run_chunk_manual_forward),
    ("beam-greedy", 0.0, "count", _run_beam_greedy),
    ("beam-exhaustive", 1e-9, "err", _run_beam_exhaustive),
    ("beam-rescoring", 1e-6, "err", _run_beam_rescoring),
    ("checkpoint-regeneration", 0.0, "count", _run_checkpoint_regeneration),
    ("quantized-agreement", 0.0, "count", _run_quantized_agreement),
    ("quantized-bound", 1.0, "ratio", _run_quantized_bound),
    ("cli-smoke", 0.0, "count", _run_cli_smoke),
]

EXPECTED_FAMILIES = tuple(name for name, _, _, _ in _SUITE)


def run_oracle_suite(seed: int = 0,
                     tolerances: Optional[Dict[str, float]] = None) -> list:
    """One OracleReport per derived-check family; failures never raise.

    Registered runners must match EXPECTED_FAMILIES exactly: an expected
    family without a runner, or a runner outside the expected list, shows
    up as a failing orphan report.
    """
    tolerances = tolerances or {}
    registered = {name: (tol, kind, runner)
                  for name, tol, kind, runner in _SUITE}
    reports = []
    for name in EXPECTED_FAMILIES:
        if name not in registered:
            reports.append(OracleReport(name, math.inf, math.inf, 0.0, False))
            continue
        default_tol, kind, runner = registered[name]
        tol = tolerances.get(name, default_tol)
        try:
            max_abs, max_rel = runner(T.Rng(seed))
        except Exception:
            reports.append(OracleReport(name, math.inf, math.inf, tol, False))
            continue
        if kind == "err":
            reports.append(_report(name, max_abs, max_rel, tol))
        else:
            reports.append(OracleReport(name, max_abs, max_rel, tol,
                                        max_rel <= tol))
    for name in registered:
        if name not in EXPECTED_FAMILIES:
            reports.append(OracleReport(f"orphan:{name}", math.inf, math.inf,
                                        0.0, False))
    return reports


def suite_csv(reports) -> str:
    lines = ["name,max_abs_err,max_rel_err,tolerance,status"]
    lines.extend(r.row() for r in reports)
    return "\n".join(lines) + "\n"
