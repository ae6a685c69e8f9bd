"""State-space sub-layer.

A continuous linear system (A, B, C, D) is discretized by one of three
methods and then executed either as a recurrence or as a causal
convolution with a precomputed kernel (parallel inference). The model's
sub-layer runs the recurrence, ``ssm_sublayer_scan``, for a whole
sequence and for a decode step alike: a step carries the state block in
from the positions before it. Row-vector convention throughout:
z_t = z_{t-1} Abar + s_t Bbar, o_t = z_t Cbar + s_t Dbar.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import tensor as T


class SingularityError(ValueError):
    """A matrix that the chosen discretization must invert is singular."""


class DiagonalizationError(ValueError):
    """State matrix is defective or has a complex spectrum."""


class CapacityError(ValueError):
    """Input sequence longer than the kernel was built for."""


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
# execution: recurrence and convolution
# ---------------------------------------------------------------------------


def scan_recurrent(dssm: DiscreteSSM, inputs: T.Tensor) -> T.Tensor:
    """Sequential state update from a zero initial state; differentiable."""
    if inputs.ndim != 2 or inputs.shape[1] != dssm.d_in:
        raise T.ShapeError(
            f"inputs must be n x {dssm.d_in}, got {inputs.shape}")
    n = inputs.shape[0]
    z = T.zeros((1, dssm.d_state), dtype=inputs.dtype)
    rows = []
    for t in range(n):
        s_t = T.take(inputs, slice(t, t + 1))
        z = T.matmul(z, dssm.a_bar) + T.matmul(s_t, dssm.b_bar)
        rows.append(T.matmul(z, dssm.c_bar) + T.matmul(s_t, dssm.d_bar))
    return T.concat(rows, axis=0)


@dataclass
class SSMKernel:
    """Causal filter taps W_t = Bbar Abar^t Cbar, stored t = n_max-1 .. 0.

    The final entry is Bbar Cbar; a kernel of length n_max serves any
    sequence of up to n_max positions.
    """

    n_max: int
    weights: List[np.ndarray]

    def tap(self, offset: int) -> np.ndarray:
        return self.weights[self.n_max - 1 - offset]


def build_kernel(dssm: DiscreteSSM, n_max: int) -> SSMKernel:
    if n_max < 1:
        raise ValueError("kernel needs at least one tap")
    a = dssm.a_bar.values.astype(np.float64)
    b = dssm.b_bar.values.astype(np.float64)
    c = dssm.c_bar.values.astype(np.float64)
    taps = []
    if np.count_nonzero(a - np.diag(np.diagonal(a))) == 0:
        lam = np.diagonal(a)
        powers = np.ones_like(lam)
        for _ in range(n_max):
            taps.append((b * powers) @ c)   # Bbar diag(lam^t) Cbar
            powers = powers * lam
    else:
        p = b
        for _ in range(n_max):
            taps.append(p @ c)
            p = p @ a
    return SSMKernel(n_max, taps[::-1])


def apply_kernel(kernel: SSMKernel, d_bar, inputs) -> T.Tensor:
    """Causal convolution with the kernel plus the feedthrough term."""
    s = np.asarray(getattr(inputs, "values", inputs), dtype=np.float64)
    d_mat = np.asarray(getattr(d_bar, "values", d_bar), dtype=np.float64)
    n = s.shape[0]
    if n > kernel.n_max:
        raise CapacityError(
            f"sequence of {n} exceeds kernel capacity {kernel.n_max}")
    out = s @ d_mat
    for off in range(n):
        out[off:] += s[:n - off] @ kernel.tap(off)
    return T.Tensor(out)


def diagonalize(dssm: DiscreteSSM) -> DiscreteSSM:
    """Change of basis making Abar diagonal; the input-output map is kept.

    Only real spectra are accepted; complex or defective state matrices
    are rejected rather than widened to complex arithmetic.
    """
    a = dssm.a_bar.values.astype(np.float64)
    try:
        lam, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(str(exc)) from None
    if np.iscomplexobj(lam):
        if np.max(np.abs(lam.imag)) > 1e-9 or np.max(np.abs(vecs.imag)) > 1e-9:
            raise DiagonalizationError("state matrix has a complex spectrum")
        lam, vecs = lam.real, vecs.real
    try:
        vinv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        raise DiagonalizationError("state matrix is defective") from None
    resid = np.max(np.abs(vecs @ np.diag(lam) @ vinv - a))
    if not np.isfinite(resid) or resid > 1e-6 * max(1.0, np.max(np.abs(a))):
        raise DiagonalizationError("eigendecomposition residual too large")
    return DiscreteSSM(T.Tensor(np.diag(lam)),
                       T.matmul(dssm.b_bar, T.Tensor(vecs, dtype=np.float64)),
                       T.matmul(T.Tensor(vinv, dtype=np.float64), dssm.c_bar),
                       dssm.d_bar, dssm.method)


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
                      carry: Optional[List[np.ndarray]] = None) -> T.Tensor:
    """Run the shared SISO system down every feature column of h (..., m, d).

    Columns (and leading batch axes) are batched into one recurrence: the
    state block Z is (..., d, d_z) and each step costs one d_z x d_z
    product per column regardless of d. The feedthrough (Dbar) product of
    all m positions is one product outside the loop; the input (Bbar)
    product is a broadcast multiply of each position's column, so the
    backward of a position's slice stays the size of h, not m times it.

    ``carry`` continues a sequence: the list [Z] holds the state block
    after the positions before this block, which enters as a constant;
    the call replaces it with the state after the block. Without it the
    state starts at zero.
    """
    if dssm.d_in != 1:
        raise T.ShapeError("per-column wiring requires a SISO system")
    if h.ndim < 2:
        raise T.ShapeError("expected an m x d block")
    lead, (m, d) = h.shape[:-2], h.shape[-2:]
    z = T.zeros(lead + (d, dssm.d_state), dtype=h.dtype) if carry is None \
        else T.Tensor(carry[0])
    s_cols = T.transpose(h)                                 # (..., d, m)
    cols = []
    for t in range(m):
        s_t = T.take(s_cols, (Ellipsis, slice(t, t + 1)))
        z = T.matmul(z, dssm.a_bar) + s_t * dssm.b_bar
        cols.append(T.matmul(z, dssm.c_bar))
    if carry is not None:
        carry[:] = [z.values]
    return T.transpose(T.concat(cols, axis=-1)) + h * dssm.d_bar
