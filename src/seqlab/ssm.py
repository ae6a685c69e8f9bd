"""State-space sub-layer.

A continuous linear system (A, B, C, D) is discretized by one of three
methods; ``ssm_apply`` runs the discrete one in block form, a causal
convolution inside each block of positions plus the state carried from
block to block, for whole sequences, carried blocks and decode steps
alike (the model's per-column ``ssm_sublayer_scan`` included). Row
vectors: z_t = z_{t-1} Abar + s_t Bbar, o_t = z_t Cbar + s_t Dbar.
``CarriedState`` is the decode state that SSM and linear-attention layers
carry from block to block (efficient.py imports this module, not the
reverse).
"""

import copy
import functools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import tensor as T


class SingularityError(ValueError):
    """A matrix that the chosen discretization must invert is singular."""


METHODS = ("euler", "bilinear", "zoh")

# below this norm the ZOH factor (e^X - I) X^-1 switches to its series
_SERIES_NORM = 1e-6


@dataclass
class ContinuousSSM:
    a: np.ndarray   # d_z x d_z
    b: np.ndarray   # d x d_z
    c: np.ndarray   # d_z x d
    d: np.ndarray   # d x d
    dt: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        self.d = np.asarray(self.d, dtype=np.float64)
        d_z = self.a.shape[0]
        if self.a.shape != (d_z, d_z):
            raise T.ShapeError("state matrix must be square")
        d_in = self.b.shape[0]
        if self.b.shape != (d_in, d_z) or self.c.shape != (d_z, d_in) \
                or self.d.shape != (d_in, d_in):
            raise T.ShapeError(
                f"inconsistent SSM shapes a={self.a.shape} b={self.b.shape} "
                f"c={self.c.shape} d={self.d.shape}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be a finite positive step")

    @property
    def d_state(self) -> int:
        return self.a.shape[0]


@dataclass
class DiscreteSSM:
    a_bar: T.Tensor
    b_bar: T.Tensor
    c_bar: T.Tensor
    d_bar: T.Tensor
    method: str
    # block sources built outside a tape: (stamp, {w: source}), see _source
    _sources: Optional[tuple] = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def d_state(self) -> int:
        return self.a_bar.shape[0]

    @property
    def d_in(self) -> int:
        return self.b_bar.shape[0]

    def named(self, prefix: str):
        yield f"{prefix}.a_bar", self.a_bar
        yield f"{prefix}.b_bar", self.b_bar
        yield f"{prefix}.c_bar", self.c_bar
        yield f"{prefix}.d_bar", self.d_bar


def _checked_inv(m: np.ndarray, context: str) -> np.ndarray:
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"{context}: {exc}") from None
    resid = np.max(np.abs(m @ inv - np.eye(m.shape[0])))
    if not np.isfinite(resid) or resid > 1e-6:
        raise SingularityError(f"{context}: matrix is numerically singular")
    return inv


def discretize(ssm: ContinuousSSM, method: str, trainable: bool = False,
               dtype=np.float64) -> DiscreteSSM:
    """Produce (Abar, Bbar) by the chosen rule; C and D pass through. The
    discretization runs in float64 and its results are stored as dtype."""
    if method not in METHODS:
        raise ValueError(f"unknown discretization {method!r}")
    a, b, dt = ssm.a, ssm.b, ssm.dt
    eye = np.eye(ssm.d_state)
    if method == "euler":
        a_bar = eye + dt * a
        b_bar = dt * b
    elif method == "bilinear":
        minus = _checked_inv(eye - 0.5 * dt * a, "bilinear transform")
        a_bar = (eye + 0.5 * dt * a) @ minus
        b_bar = dt * b @ minus
    else:
        # imported here: scipy.linalg takes longer to import than the rest
        # of the package together, and only zero-order hold needs it
        from scipy.linalg import expm
        x = dt * a
        a_bar = expm(x)
        if np.linalg.norm(x) < _SERIES_NORM:
            # (e^X - I) X^-1 -> I + X/2 + X^2/6 as X -> 0
            factor = eye + 0.5 * x + x @ x / 6.0
        else:
            factor = (a_bar - eye) @ _checked_inv(x, "zero-order hold")
        b_bar = dt * b @ factor
    wrap = lambda m: T.Tensor(np.asarray(m), dtype=dtype, trainable=trainable)
    return DiscreteSSM(wrap(a_bar), wrap(b_bar), wrap(ssm.c), wrap(ssm.d),
                       method)


# ---------------------------------------------------------------------------
# execution: the block form
# ---------------------------------------------------------------------------

BLOCK = 16   # positions per block, so a block's work does not grow with m


def _block_source(dssm: DiscreteSSM, w: int) -> T.Tensor:
    """Row block t < k, k the first power of two >= w, is [Bbar; Abar]
    Abar^t [Cbar | I] by doubling, plus Dbar on the tap Bbar Cbar."""
    d = dssm.d_in
    rows, power, k = T.concat([dssm.b_bar, dssm.a_bar], axis=0), dssm.a_bar, 1
    while k < w:
        rows = T.concat([rows, T.matmul(rows, power)], axis=0)
        power, k = T.matmul(power, power), 2 * k
    return T.relayout(
        (T.matmul(rows, dssm.c_bar), rows, dssm.d_bar),
        lambda t, r, dbar: np.concatenate(
            [np.concatenate([t[:d] + dbar, t[d:]]), r], axis=1),
        lambda g: (g[:, :d], g[:, d:], g[:d, :d]))


def _source(dssm: DiscreteSSM, w: int) -> T.Tensor:
    """_block_source(dssm, w); outside a tape, built once and kept on dssm
    until a parameter is assigned (``T.assign_``) or replaced, so decode
    steps do not rebuild the same operator."""
    if T._active_tape() is not None:
        return _block_source(dssm, w)
    stamp = T.param_stamp(dssm.a_bar, dssm.b_bar, dssm.c_bar, dssm.d_bar)
    if dssm._sources is None or dssm._sources[0] != stamp:
        dssm._sources = stamp, {}
    kept = dssm._sources[1]
    if w not in kept:
        kept[w] = _block_source(dssm, w)
    return kept[w]


@functools.lru_cache(maxsize=None)
def _block_index(r: int, d: int, n: int):
    """Reads and zero entries of an r-position block's operator: entry (i, j)
    reads source block pos(output j) - pos(input i); states sit at 0, r - 1."""
    sub = np.concatenate([np.tile(np.arange(d), r), d + np.arange(n)])
    pos = np.repeat(np.arange(r), d)
    rows = np.concatenate([pos, np.zeros(n, dtype=int)])[:, None]
    cols = np.concatenate([pos, np.full(n, r - 1)])[None, :]
    read = ((cols - rows) * (d + n) + sub[:, None]) * (d + n) + sub[None, :]
    return np.where(cols < rows, 0, read), cols < rows


def _block_operator(src: T.Tensor, r: int, d: int) -> T.Tensor:
    """[[Toeplitz of the taps, drives], [gains, power]] of r positions."""
    if src.shape[0] == src.shape[1]:
        return src                    # one position's is the source itself
    read, zero = _block_index(r, d, src.shape[1] - d)
    return T.relayout(
        src, lambda v: np.where(zero, 0, v.take(read)),
        lambda g: np.bincount(read[~zero], g[~zero], minlength=src.size)
        .reshape(src.shape).astype(g.dtype))


def _swap(v: np.ndarray, a: int, b: int, d: int) -> np.ndarray:
    """(..., a, b d) -> (..., b, a d), moving blocks of d columns."""
    if d == 1:
        return v.swapaxes(-1, -2)
    lead = v.shape[:-2]
    return v.reshape(lead + (a, b, d)).swapaxes(-2, -3) \
        .reshape(lead + (b, a * d))


def ssm_apply(s: T.Tensor, dssm: DiscreteSSM,
              carry: Optional[List[np.ndarray]] = None,
              counter=None) -> T.Tensor:
    """Run the system down s (..., m, g d_in), each group of d_in columns
    one input sequence, in blocks of up to BLOCK positions. A block of w
    positions s_j entered with state Z0 has outputs o_i = sum_(j <= i) s_j
    K'_(i-j) + Z0 Abar^(i+1) Cbar, taps K'_t = Bbar Abar^t Cbar (+ Dbar at
    t = 0), and leaves with state Z0 Abar^w + sum_j s_j Bbar Abar^(w-1-j),
    all one product. ``carry`` [Z], the state (..., g, d_z) before s, is a
    constant (an empty list starts from zero), replaced by the state after
    s; ``counter`` tallies the block products, not the derivation, which
    does not grow with m."""
    d, n = dssm.d_in, dssm.d_state
    if s.ndim < 2 or s.shape[-2] == 0 or s.shape[-1] % d:
        raise T.ShapeError(f"inputs must be (..., m >= 1, g*{d}): {s.shape}")
    lead, m, g = s.shape[:-2], s.shape[-2], s.shape[-1] // d
    w = min(m, BLOCK)
    src = _source(dssm, w)
    z0 = np.zeros(lead + (g, n), dtype=s.dtype) if not carry else carry[0]
    x = T.relayout(s, lambda v: np.concatenate([_swap(v, m, g, d), z0], -1),
                   lambda gr: _swap(gr[..., :m * d], g, m, d))  # s beside Z0
    outs = []
    for lo in range(0, m, w):
        r = min(w, m - lo)
        xb = x if r == m else T.concat(
            [T.take(x, (Ellipsis, slice(lo * d, (lo + r) * d))),
             z if lo else T.Tensor(z0)], axis=-1)
        y = T.matmul(xb, _block_operator(src, r, d))
        if counter is not None:
            counter.add(int(np.prod(lead)) * g * (r * d + n) ** 2)
        outs.append(T.relayout(   # outputs, back to (..., r, g d)
            y, lambda v, r=r: _swap(v[..., :r * d], g, r, d),
            lambda gr, r=r: np.concatenate(
                [_swap(gr, r, g, d), np.zeros(lead + (g, n), gr.dtype)], -1)))
        if lo + r < m:
            z = T.take(y, (Ellipsis, slice(r * d, None)))
    if carry is not None:   # leaves the tape: the next call's constant
        carry[:] = [y.values[..., r * d:]]
    return T.concat(outs, axis=-2)


# ---------------------------------------------------------------------------
# construction and the per-column sub-layer wiring
# ---------------------------------------------------------------------------

INITS = ("diag-uniform", "random")


def make_ssm(d_in: int, d_state: int = 16, dt: float = 0.1,
             init: str = "diag-uniform", rng: Optional[T.Rng] = None
             ) -> ContinuousSSM:
    """Stable random continuous system; D starts as the identity skip."""
    if init not in INITS:
        raise ValueError(f"unknown ssm init {init!r}")
    rng = rng or T.Rng(0)
    if init == "diag-uniform":
        a = np.diag(-(0.1 + 0.9 * rng.uniform(d_state)))
    else:
        a = rng.gaussian((d_state, d_state)) * (0.3 / np.sqrt(d_state)) \
            - 0.5 * np.eye(d_state)
    b = rng.gaussian((d_in, d_state)) * (1.0 / np.sqrt(d_state))
    c = rng.gaussian((d_state, d_in)) * (1.0 / np.sqrt(d_state))
    d = np.eye(d_in)
    return ContinuousSSM(a, b, c, d, dt)


def init_ssm_sublayer(d_state: int, dt: float, method: str, init: str,
                      rng: T.Rng, dtype=np.float64) -> DiscreteSSM:
    """Shared single-input single-output system used per feature column.

    The discrete parameters themselves are the learnable quantities, of
    the given dtype; discretization runs once at construction.
    """
    cont = make_ssm(1, d_state, dt, init, rng)
    return discretize(cont, method, trainable=True, dtype=dtype)


def ssm_sublayer_scan(h: T.Tensor, dssm: DiscreteSSM,
                      carry: Optional[List[np.ndarray]] = None,
                      counter=None) -> T.Tensor:
    """Run the shared SISO system down each feature column of h (..., m, d)."""
    if dssm.d_in != 1:
        raise T.ShapeError("per-column wiring requires a SISO system")
    return ssm_apply(h, dssm, carry, counter)


# ---------------------------------------------------------------------------
# decode states
# ---------------------------------------------------------------------------


class StateError(RuntimeError):
    """A decode session's state disagrees with its token prefix."""


class CarriedState:
    """The decode state of SSM and linear-attention layers, with
    attention.KVCache's methods: per slot (layer x integrator stage) the
    carry list the layer's block call continues from and replaces ([] is
    zero), the positions taken, and the last block's entering carry and
    rows (arrays, positions on axis -2). rewind(n) after a block of m >= n
    positions remakes the carry after position m - n as ``kept(entered,
    rows[:m - n], params)``, what a block of those rows makes. Arrays are
    never changed in place, so a clone shares them."""

    def __init__(self, n_layers: int):
        self.n_layers = n_layers
        self._carry: List[list] = [[] for _ in range(n_layers)]
        self._t = [0] * n_layers
        self._widths: list = [[] for _ in range(n_layers)]  # carry shapes
        self._last: list = [None] * n_layers  # (entered, rows, kept, params)

    def length(self, slot: int = 0) -> int:
        return self._t[slot]

    def rows(self, slot: int = 0) -> Optional[int]:
        return self._carry[slot][0].shape[0] if self._carry[slot] else None

    def holds(self, t: int, rows: int) -> bool:
        """Every slot has taken t positions and holds ``rows`` rows of the
        shapes its last call left, or nothing yet."""
        return all(self._t[s] == t and [x.shape for x in c]
                   == [(rows,) + w for w in self._widths[s]]
                   for s, c in enumerate(self._carry))

    def carry(self, slot: int) -> list:
        return self._carry[slot]

    def advanced(self, slot: int, entered: list, rows: tuple, kept, params):
        self._t[slot] += rows[0].shape[-2]
        self._widths[slot] = [x.shape[1:] for x in self._carry[slot]]
        self._last[slot] = entered, rows, kept, params

    def rewind(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"cannot rewind {n} positions")
        if n and any(last is None or n > last[1][0].shape[-2]
                     for last in self._last):
            raise StateError(f"cannot rewind {n} positions past the last block")
        for slot, (entered, rows, kept, params) in enumerate(
                self._last if n else ()):
            rows = tuple(x[..., :x.shape[-2] - n, :] for x in rows)
            self._carry[slot][:] = kept(entered, rows, params)
            self._last[slot] = entered, rows, kept, params
            self._t[slot] -= n

    def select(self, rows) -> None:
        self._carry = [[x[rows] for x in c] for c in self._carry]
        self._last = [last and ([x[rows] for x in last[0]],
                                tuple(x[rows] for x in last[1])) + last[2:]
                      for last in self._last]

    def clone(self) -> "CarriedState":
        out = copy.copy(self)
        out._carry = [list(c) for c in self._carry]
        out._t, out._widths = list(self._t), list(self._widths)
        out._last = list(self._last)
        return out

    def export(self) -> list:
        return [tuple(c) for c in self._carry]

    def seed(self, carries) -> None:
        for c, x in zip(self._carry, carries):
            c[:] = x
        self._widths = [[x.shape[1:] for x in c] for c in self._carry]
        self._last = [None] * self.n_layers


def _kept_state(entered: list, rows: tuple, dssm: DiscreteSSM) -> list:
    """The state after the inputs ``rows[0]``, fed again from ``entered``."""
    carry = list(entered)
    if rows[0].shape[-2]:
        ssm_sublayer_scan(T.Tensor(rows[0]), dssm, carry)
    return carry


def ssm_step(x: T.Tensor, state: CarriedState, dssm: DiscreteSSM, slot: int,
             const=None, counter=None, maps=None) -> T.Tensor:
    """The layer over a (rows, m, d) block of new positions, continued from
    the state at ``slot``, which it advances: attend_step_cached's
    arguments, ``const`` and ``maps`` None."""
    carry = state.carry(slot)
    entered = list(carry)
    out = ssm_sublayer_scan(x, dssm, carry, counter)
    state.advanced(slot, entered, (x.values,), _kept_state, dssm)
    return out
