"""Dense tensor engine with eager reverse-mode autodiff.

Everything in this package is built on the small op set defined here: dense
row-major float tensors, a tape that records operations as they execute, a
seeded RNG with stream splitting, Xavier-style initialization, and integer
quantized arithmetic.

Besides the generic elementwise, shape and linear-algebra ops, a few fused
ops cover the model's hot path with one Tensor and one tape record each,
and a closed-form backward: ``layer_norm``, the position-wise ``ffn``
(both products, the bias add and ReLU and the output bias), the scale
folded into ``softmax_rows``, ``relayout`` for a head split or merge,
multi-head ``attention`` (head split, scores, masked softmax, weighted
values and head merge), and the training loss ``log_softmax_nll``.
Their forwards repeat the arithmetic of the composites they replace, so
float32 outputs match those bit for bit. They run elementwise steps in
place where they can (the one softmax of ``attention``, ``softmax_rows``
and the loss, and its backward, once the logits are an array of their
own; ReLU on the biased sum in ``ffn``, and the ReLU mask on its
backward), so attention keeps one score-sized array per layer. The
buffer rule: a
fused op overwrites only arrays it allocated; never an input, a mask,
cache rows or an incoming gradient. Where writing in place would change a result's
dtype or shape, the op computes out of place, so the bits do not depend
on the buffers.

The ops on a decode step's path (``matmul``, ``attention``,
``layer_norm``, ``ffn``, ``take``, ``add``) keep their backward in a
module function that ``_emit`` binds to the arrays the forward hands it,
and only when a tape records the op: the forward body is the same with
or without a tape, and a call without one builds no closure. Constants
an op derives from its shapes alone (layer norm's 1/n and eps,
attention's 1/sqrt(d_h)) are made once per shape and dtype.

Float32 is the working precision. Float64 exists solely so gradient checks
and oracle comparisons can be run in a tighter regime; any op whose inputs
include a float64 tensor produces float64.

Tensors are immutable after construction (the backing array is flagged
read-only). Tapes and RNGs are single-owner mutable state.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import partial
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand extents are incompatible with the requested operation."""


class DegenerateRowError(ValueError):
    """A softmax row had every entry masked out; no distribution exists."""


class TapeError(RuntimeError):
    """Backward was asked to do something the tape contract forbids."""


class AccumulatorOverflowError(OverflowError):
    """A quantized product could exceed the integer accumulator range."""


_ALLOWED_DTYPES = (np.float32, np.float64)
_ALLOWED = frozenset(np.dtype(t) for t in _ALLOWED_DTYPES)   # hashed lookup
_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)     # native byte order
# 0-d constants: numpy takes a 0-d array operand faster than a Python number
_ZERO = {_F32: np.zeros((), _F32), _F64: np.zeros((), _F64)}
_ONE64 = np.ones((), _F64)
_INT64_MAX = int(np.iinfo(np.int64).max)
_TINY = np.finfo(np.float64).tiny           # smallest normal float64


def _as_values(values, dtype=None) -> np.ndarray:
    arr = np.asarray(values)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in _ALLOWED:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """Dense row-major array of floats, optionally linked into a tape.

    ``trainable`` marks a leaf whose gradient should be collected by
    ``backward``. ``tape`` is set on tensors produced by recorded ops.
    """

    __slots__ = ("values", "trainable", "tape")

    def __init__(self, values, dtype=None, trainable: bool = False):
        arr = _as_values(values, dtype)
        if arr.dtype not in _ALLOWED:
            raise TypeError(f"tensor dtype must be float32/float64, got {arr.dtype}")
        arr.setflags(False)
        self.values = arr
        self.trainable = trainable
        self.tape: Optional["Tape"] = None

    # -- metadata ----------------------------------------------------------

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def size(self):
        return self.values.size

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def T(self):
        return transpose(self)

    def tolist(self):
        return self.values.tolist()

    def astype(self, dtype) -> "Tensor":
        """Precision change for setup/verification code; not recorded."""
        return Tensor(self.values.astype(dtype), trainable=self.trainable)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, dtype={self.values.dtype.name})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, *shape)


_new_tensor = object.__new__


def _result(arr) -> Tensor:
    """An array as a Tensor no tape records: ``Tensor(arr)`` without the
    dtype coercion, which an op's float arithmetic never needs."""
    return _emit(arr, (), None)


def zeros(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


def ones(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype))


def full(shape, value, dtype=np.float32) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype))


def eye(n, dtype=np.float32) -> Tensor:
    return Tensor(np.eye(n, dtype=dtype))


_assigns = 0                                # assign_ calls so far


def param_stamp(*params: Tensor) -> tuple:
    """What a cache of values derived from ``params`` (quantized weights,
    an SSM step operator) was built from: the number of ``assign_`` calls
    so far and the parameter objects. The cache is stale once a fresh
    stamp differs, after any assign or when a parameter was replaced."""
    return (_assigns,) + params


def assign_(t: Tensor, values) -> Tensor:
    """Overwrite a parameter's storage in place, keeping its identity.

    Optimizer updates and checkpoint loading go through here so that
    shared-parameter groups and optimizer state stay attached to the
    same tensor object. Shape and dtype must match exactly. Every call
    makes the ``param_stamp`` of every parameter new.
    """
    global _assigns
    new = np.asarray(values, dtype=t.values.dtype)
    if new.shape != t.values.shape:
        raise ShapeError(f"assign shape {new.shape} != {t.values.shape}")
    _assigns += 1
    t.values.flags.writeable = True
    try:
        np.copyto(t.values, new)
    finally:
        t.values.flags.writeable = False
    return t


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


@dataclass
class _Record:
    out_id: int
    out: Tensor  # strong ref keeps out_id unique for the tape's lifetime
    inputs: tuple
    grad_fn: Callable[[np.ndarray], tuple]


class Tape:
    """Eagerly built record of differentiable operations.

    Use as a context manager; ops executed while the tape is active are
    recorded whenever an input is trainable or was itself produced on this
    tape. Records are appended in execution order, so topological order
    holds by construction.
    """

    def __init__(self):
        self.records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self):
        return len(self.records)

    def release(self) -> None:
        """Drop the records once their gradients have been used.

        Records hold their outputs and the outputs hold the tape, so a
        finished tape is a reference cycle that keeps every forward array
        alive until the cycle collector runs. Dropping the records breaks
        the cycle; tensors made on the tape stay readable.
        """
        self.records.clear()


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _participates(t, tape: Tape) -> bool:
    return isinstance(t, Tensor) and (t.trainable or t.tape is tape)


def _emit(out, inputs: tuple, grad_fn, *state) -> Tensor:
    """An op's result, recorded on the active tape with its inputs when
    one of them participates in it. ``out`` is the op's output array, made
    a read-only Tensor here with its dtype checked, or a Tensor already
    made. The record's gradient function is ``grad_fn``, or with ``state``
    ``grad_fn(*state, g)``: an op whose backward is a module function
    hands over what it needs as ``state``, and builds no closure, so a
    call without a tape saves nothing for a backward."""
    if type(out) is not Tensor:
        if type(out) is not np.ndarray:
            out = np.asarray(out)            # numpy scalars from 0-d operands
        dt = out.dtype
        if dt is not _F32 and dt is not _F64 and dt not in _ALLOWED:
            raise TypeError(f"tensor dtype must be float32/float64, got {dt}")
        out.setflags(False)                 # positional: twice as fast
        t = _new_tensor(Tensor)
        t.values, t.trainable, t.tape = out, False, None
        out = t
    if _TAPE_STACK:
        tape = _TAPE_STACK[-1]
        for t in inputs:
            if isinstance(t, Tensor) and (t.trainable or t.tape is tape):
                out.tape = tape
                tape.records.append(_Record(id(out), out, inputs, partial(
                    grad_fn, *state) if state else grad_fn))
                break
    return out


class GradTable:
    """Gradients keyed by the tensor object they belong to."""

    def __init__(self, grads: dict):
        self._grads = grads  # id(tensor) -> Tensor

    def __getitem__(self, t: Tensor) -> Tensor:
        try:
            return self._grads[id(t)]
        except KeyError:
            raise KeyError("no gradient recorded for this tensor") from None

    def get(self, t: Tensor, default=None):
        return self._grads.get(id(t), default)

    def __contains__(self, t: Tensor) -> bool:
        return id(t) in self._grads

    def __len__(self):
        return len(self._grads)


def backward(loss: Tensor) -> GradTable:
    """Reverse sweep from a scalar loss over its tape.

    Returns gradients for every trainable leaf (and tape-born tensor) that
    the loss depends on. Shared parameters accumulate one summed gradient.
    """
    if not isinstance(loss, Tensor) or loss.values.ndim != 0:
        raise TapeError("backward expects a scalar (0-d) loss tensor")
    tape = loss.tape
    if tape is None:
        raise TapeError("loss is not attached to a tape")

    acc: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for rec in reversed(tape.records):
        g_out = acc.pop(rec.out_id, None)
        if g_out is None:
            continue
        holders.pop(rec.out_id, None)
        grads_in = rec.grad_fn(g_out)
        for t, g in zip(rec.inputs, grads_in):
            if g is None or not _participates(t, tape):
                continue
            k = id(t)
            if k in acc:
                acc[k] = acc[k] + g
            else:
                acc[k] = g
            holders[k] = t

    table = {k: Tensor(g, dtype=holders[k].dtype) for k, g in acc.items()}
    return GradTable(table)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape the operand had before broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _into(op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """op(a, b) for a numpy ufunc op, written into a, an array the calling
    op allocated itself, when the result keeps a's dtype and shape; a new
    array otherwise, so the bits are those of the out-of-place op."""
    sa, sb = a.shape, b.shape
    # equal dtypes, and b's shape a's or its trailing axes, are the
    # common cases, and decide as the general tests would
    if (a.dtype == b.dtype or np.result_type(a, b) == a.dtype) and (
            sa[len(sa) - len(sb):] == sb
            or np.broadcast_shapes(sa, sb) == sa):
        return op(a, b, out=a)
    return op(a, b)


def _coerce_pair(a, b):
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        return a, b
    if isinstance(a, Tensor):
        return a, _result(np.asarray(b, dtype=a.values.dtype))
    if isinstance(b, Tensor):
        return _result(np.asarray(a, dtype=b.values.dtype)), b
    raise TypeError("at least one operand must be a Tensor")


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    if type(a) is not Tensor or type(b) is not Tensor:
        a, b = _coerce_pair(a, b)
    return _emit(a.values + b.values, (a, b), _add_grad, a, b)


def _add_grad(a: Tensor, b: Tensor, g):
    return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)


def sub(a, b) -> Tensor:
    if type(a) is not Tensor or type(b) is not Tensor:
        a, b = _coerce_pair(a, b)
    out = a.values - b.values

    def grad_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _emit(out, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    if type(a) is not Tensor or type(b) is not Tensor:
        a, b = _coerce_pair(a, b)
    av, bv = a.values, b.values
    out = av * bv

    def grad_fn(g):
        return _unbroadcast(g * bv, a.shape), _unbroadcast(g * av, b.shape)

    return _emit(out, (a, b), grad_fn)


def div(a, b) -> Tensor:
    if type(a) is not Tensor or type(b) is not Tensor:
        a, b = _coerce_pair(a, b)
    av, bv = a.values, b.values
    out = av / bv

    def grad_fn(g):
        ga = _unbroadcast(g / bv, a.shape)
        gb = _unbroadcast(-g * av / (bv * bv), b.shape)
        return ga, gb

    return _emit(out, (a, b), grad_fn)


def neg(a: Tensor) -> Tensor:
    out = -a.values
    return _emit(out, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    ov = np.exp(a.values)
    out = ov
    return _emit(out, (a,), lambda g: (g * ov,))


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0):
        raise ValueError("log requires strictly positive inputs")
    av = a.values
    out = np.log(av)
    return _emit(out, (a,), lambda g: (g / av,))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.values < 0):
        raise ValueError("sqrt requires non-negative inputs")
    ov = np.sqrt(a.values)
    out = ov
    return _emit(out, (a,), lambda g: (g * (0.5 / ov),))


def power(a: Tensor, p) -> Tensor:
    """a**p for a constant exponent p."""
    p = float(p)
    av = a.values
    out = av ** p
    return _emit(out, (a,), lambda g: (g * (p * av ** (p - 1.0)),))


def relu(a: Tensor) -> Tensor:
    """max(a, 0)."""
    zv = a.values
    out = np.maximum(zv, 0)
    return _emit(out, (a,), lambda g: (g * (zv > 0),))


def elu_plus_one(a: Tensor) -> Tensor:
    """elu(a) + 1 as one op: a where a > 0, else expm1(a), plus 1, with
    the bits of elu followed by a separate add."""
    av = a.values
    ov = np.expm1(av)                       # fresh: the rest runs in place
    np.copyto(ov, av, where=av > 0)
    ov += 1.0
    return _emit(ov, (a,), _elu_grad, av)


def _elu_grad(av, g):
    return (g * np.where(av > 0, 1.0, np.exp(av)).astype(av.dtype),)


def maximum(a, b) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first operand."""
    if type(a) is not Tensor or type(b) is not Tensor:
        a, b = _coerce_pair(a, b)
    av, bv = a.values, b.values
    out = np.maximum(av, bv)

    def grad_fn(g):
        take_a = av >= bv
        return _unbroadcast(g * take_a, a.shape), _unbroadcast(g * ~take_a, b.shape)

    return _emit(out, (a, b), grad_fn)


# ---------------------------------------------------------------------------
# Shape and indexing ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = a.shape
    out = a.values.reshape(shape)
    return _emit(out, (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes=None) -> Tensor:
    """Matrix transpose (swap the last two axes) unless axes is given."""
    if axes is None:
        if a.ndim < 2:
            raise ShapeError("transpose needs at least 2 axes")
        out = np.swapaxes(a.values, -1, -2)
        return _emit(out, (a,), lambda g: (np.swapaxes(g, -1, -2),))
    axes = tuple(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    out = np.transpose(a.values, axes)
    return _emit(out, (a,), lambda g: (np.transpose(g, inverse),))


def relayout(a, forward: Callable[..., np.ndarray],
             inverse: Callable[[np.ndarray], Any]) -> Tensor:
    """One op for a change of layout: ``forward`` moves a's entries (any
    mix of reshapes, axis swaps and column slices, or a read of an array
    they were copied into, whose other entries are constants) and
    ``inverse`` moves a gradient back to a's shape. For a tuple of Tensors
    forward may also sum entries, and inverse returns a gradient each."""
    if isinstance(a, tuple):
        return _emit(forward(*(t.values for t in a)), a, inverse)
    return _emit(forward(a.values), (a,), lambda g: (inverse(g),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    if len(tensors) == 1:
        return tensors[0]                   # tensors are immutable
    out = np.concatenate([t.values for t in tensors], axis=axis)

    def grad_fn(g):
        sizes = [t.shape[axis] for t in tensors]
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _emit(out, tuple(tensors), grad_fn)


def _is_basic(key) -> bool:
    """True for an int/slice/Ellipsis/None key, or a tuple of them: such a
    key addresses every entry at most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def take(a: Tensor, key) -> Tensor:
    """Indexing/slicing; integer-array keys gather rows (used for lookups)."""
    return _emit(a.values[key], (a,), _take_grad, a, key)


def _take_grad(a: Tensor, key, g):
    gx = np.zeros(a.values.shape, dtype=a.values.dtype)
    if _is_basic(key):
        gx[key] = g                         # no entry repeats: nothing to sum
    else:
        np.add.at(gx, key, g)
    return (gx,)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Row lookup a[idx] for an integer index array of any shape."""
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        raise TypeError("gather_rows needs integer indices")
    return take(a, idx)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.values.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, shape).astype(a.dtype, copy=False),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(a.dtype, copy=False),)

    return _emit(out, (a,), grad_fn)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


_matmul_route = None


@contextmanager
def matmul_routing(fn):
    """Let fn intercept matmul calls while the context is open.

    fn(a, b, cols) may return a replacement Tensor or None to fall through
    to the ordinary float product; ``cols`` is matmul's column block of b,
    or None. Alternate arithmetic (e.g. integer
    quantization) hooks in here without touching the call sites.
    """
    global _matmul_route
    if _matmul_route is not None:
        raise RuntimeError("matmul routing is already active")
    _matmul_route = fn
    try:
        yield
    finally:
        _matmul_route = None


def matmul(a, b, cols: Optional[tuple] = None) -> Tensor:
    """Matrix product; stacked (batched) operands follow numpy semantics.

    A stacked left operand times a 2-d right operand (activations times a
    weight) folds the leading axes into rows: one GEMM forward, and one
    GEMM for each gradient (leading axes of one block need no fold).
    ``cols`` = (lo, hi) multiplies by columns lo..hi-1 of a 2-d b alone,
    without copying them; b's gradient is zero outside the block, and a
    routing function sees b and the block. Two Tensors are used as they
    are; anything else is coerced. The backward's operands are saved only
    when a tape records the product.
    """
    if type(a) is not Tensor or type(b) is not Tensor:
        a, b = _coerce_pair(a, b)
    av, bv = a.values, b.values
    if cols is not None:
        lo, hi = cols
        if bv.ndim != 2 or not 0 <= lo < hi <= bv.shape[1]:
            raise ShapeError(f"no column block {cols} in a {bv.shape} operand")
        bv = bv[:, lo:hi]
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError("matmul operands need at least 2 axes")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"inner extents differ: {av.shape} @ {bv.shape}")
    if _matmul_route is not None:
        routed = _matmul_route(a, b, cols)
        if routed is not None:
            return routed
    # leading axes of one (m, k) block leave nothing to fold: numpy runs
    # the same one GEMM on the block
    if bv.ndim == 2 and (cols is not None or av.ndim > 2
                         and av.size != av.shape[-2] * av.shape[-1]):
        rows = av.reshape(-1, av.shape[-1])
        return _emit(np.matmul(rows, bv).reshape(av.shape[:-1] + bv.shape[-1:]),
                     (a, b), _matmul_rows_grad, av, bv, rows, b, cols, None)
    return _emit(np.matmul(av, bv), (a, b), _matmul_grad, av, bv)


def _matmul_rows_grad(av, bv, rows, b: Tensor, cols: Optional[tuple],
                      a_cols: Optional[tuple], g):
    g_rows = g.reshape(-1, bv.shape[-1])
    ga = np.matmul(g_rows, bv.T)
    if a_cols is None:
        ga = ga.reshape(av.shape)
    else:                                   # head_matmul's column block of a
        block, ga = ga, np.zeros(av.shape, dtype=ga.dtype)
        ga[..., a_cols[0]:a_cols[1]] = block.reshape(av.shape[:-1] + (-1,))
    gb = np.matmul(rows.T, g_rows)
    if cols is not None:
        block, gb = gb, np.zeros(b.values.shape, dtype=gb.dtype)
        gb[:, cols[0]:cols[1]] = block
    return ga, gb


def _matmul_grad(av, bv, g):
    ga = _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape)
    gb = _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape)
    return ga, gb


def head_matmul(a: Tensor, b: Tensor, heads: int = 1,
                cols: Optional[tuple] = None) -> Tensor:
    """Each of the ``heads`` runs of b.shape[0] columns in a's column
    block cols (all of a for None) times the 2-d b, the products side by
    side, as one op: one GEMM over every head's rows."""
    av, bv = a.values, b.values
    lo, hi = cols = (0, av.shape[-1]) if cols is None else cols
    if bv.ndim != 2 or hi - lo != heads * bv.shape[0]:
        raise ShapeError(f"no {heads} heads of {bv.shape[0]} in {cols} of {av.shape}")
    rows = av[..., lo:hi].reshape(-1, bv.shape[0])
    out = np.matmul(rows, bv).reshape(av.shape[:-1] + (heads * bv.shape[1],))
    return _emit(out, (a, b), _matmul_rows_grad, av, bv, rows, b, None, cols)


def ffn(h: Tensor, w_h: Tensor, b_h: Tensor, w_f: Tensor, b_f: Tensor) -> Tensor:
    """ReLU(h W_h + b_h) W_f + b_f over h (..., m, d), as one op.

    The forward repeats the composite of two matmuls, a bias add,
    ``relu`` and an add on h's rows (its leading axes folded, as matmul
    folds them), and the bias add and ReLU run on one fresh array, so float32
    outputs equal it bit for bit. Each product consults the matmul
    routing as matmul does; a routed product has no gradient, so an FFN
    with one is not recorded. The backward is the composite's, in closed
    form, its bias sums taken over h's leading axes as the composite's;
    its arrays are saved only when a tape records the op.
    """
    hv, whv, wfv = h.values, w_h.values, w_f.values
    if hv.ndim < 2 or whv.ndim != 2 or wfv.ndim != 2 \
            or hv.shape[-1] != whv.shape[0] or whv.shape[1] != wfv.shape[0]:
        raise ShapeError(f"no FFN of {hv.shape} through {whv.shape} and {wfv.shape}")
    lead = hv.shape[:-1]
    rows = hv.reshape(-1, hv.shape[-1])
    routed = None if _matmul_route is None else _matmul_route(h, w_h, None)
    z = np.matmul(rows, whv) if routed is None \
        else routed.values.reshape(len(rows), -1)
    hidden = z + b_h.values                 # fresh: ReLU in place
    np.maximum(hidden, _ZERO.get(hidden.dtype, 0), out=hidden)
    second = None if _matmul_route is None \
        else _matmul_route(_result(hidden), w_f, None)
    y = np.matmul(hidden, wfv) if second is None else second.values
    out = (y + b_f.values).reshape(lead + wfv.shape[1:])
    if routed is not None or second is not None:
        return _result(out)
    return _emit(out, (h, w_h, b_h, w_f, b_f), _ffn_grad, hv, rows, hidden,
                 whv, wfv, b_h, b_f)


def _ffn_grad(hv, rows, hidden, whv, wfv, b_h: Tensor, b_f: Tensor, g):
    g_rows = g.reshape(-1, g.shape[-1])
    gz = np.matmul(g_rows, wfv.T)           # fresh: masked in place
    gz *= hidden > 0                        # max(z, 0) > 0 exactly where z > 0
    return (np.matmul(gz, whv.T).reshape(hv.shape), np.matmul(rows.T, gz),
            _unbroadcast(gz.reshape(hv.shape[:-1] + gz.shape[-1:]),
                         b_h.values.shape),
            np.matmul(hidden.T, g_rows), _unbroadcast(g, b_f.values.shape))


def softmax_rows(x: Tensor, additive_mask=None,
                 scale: Optional[float] = None) -> Tensor:
    """Row-wise softmax over the last axis of ``x * scale + mask``,
    stabilized by row-max subtraction.

    ``scale`` (attention's 1/sqrt(d_h)) multiplies the logits in their own
    dtype before the mask is added, as a separate multiply would.
    ``additive_mask`` entries must be finite or -inf; -inf forces the output
    entry to exactly 0. A row with every entry masked has no distribution
    and raises DegenerateRowError. The gradient flows to the logits and, when
    the mask is a Tensor, to its finite entries (additive priors may be
    learnable).
    """
    c = None if scale is None else np.asarray(scale, dtype=x.dtype)
    y, mask_t = _softmax(x.values, c, additive_mask, False)
    out = y.astype(x.dtype, copy=False)

    def grad_fn(g):
        gl = _softmax_grad(g, y, x.dtype, False)
        gx = _unbroadcast(gl if c is None else gl * c, x.shape)
        return (gx,) if mask_t is None else (gx, _unbroadcast(gl, mask_t.shape))

    return _emit(out, (x,) if mask_t is None else (x, mask_t), grad_fn)


def _softmax(y: np.ndarray, c, mask, fresh: bool):
    """Softmax(y * c + mask) over y's last axis (c a 0-d array or None)
    and the mask if it is a Tensor, for every softmax op: in y's dtype
    unless the mask widens it, written into y when ``fresh``, else new."""
    if c is not None:
        y = np.multiply(y, c, out=y if fresh else None)
        fresh = True
    mask_t = mask if isinstance(mask, Tensor) else None
    if mask is not None:
        mv = mask.values if mask_t is not None else np.asarray(mask, dtype=y.dtype)
        # NaN and +inf are the entries whose maximum is not below +inf
        if not np.maximum.reduce(mv, axis=None, initial=-np.inf) < np.inf:
            raise ValueError("mask entries must be finite or -inf")
        y = _into(np.add, y, mv) if fresh else y + mv
        fresh = True
    if y.shape[-1] == 0:
        raise DegenerateRowError("softmax over zero-width rows")
    row_max = np.maximum.reduce(y, axis=-1, keepdims=True, initial=-np.inf)
    if np.fmin.reduce(row_max, axis=None, initial=np.inf) == -np.inf:
        raise DegenerateRowError("softmax row with every entry masked")
    y = np.subtract(y, row_max, out=y if fresh else None)
    np.exp(y, out=y)                        # exp(-inf) == 0 exactly
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    return y, mask_t


def _softmax_grad(g: np.ndarray, y: np.ndarray, dtype, fresh: bool):
    """The gradient of _softmax's scaled, masked logits from the
    probabilities' g, in ``dtype``: written into g when ``fresh``."""
    dot = np.add.reduce(g * y, axis=-1, keepdims=True)
    g = _into(np.subtract, g, dot) if fresh else g - dot
    return _into(np.multiply, g, y).astype(dtype, copy=False)


def head_view(a: np.ndarray, n: int) -> np.ndarray:
    """View of an (..., m, n*d_h) array as (..., n, m, d_h) heads: head j
    is the j-th run of d_h columns."""
    return a.reshape(a.shape[:-1] + (n, a.shape[-1] // n)).swapaxes(-2, -3)


_SCALES: dict = {}             # (d_h, dtype) -> 1/sqrt(d_h), a 0-d array


def attention(q: Optional[Tensor], k: Optional[Tensor], v: Tensor,
              heads: tuple = (1, 1), *, cols: tuple = (None, None, None),
              history: Optional[tuple] = None, mask=None,
              scale: Optional[float] = None, weights: Optional[Tensor] = None,
              keep: bool = False):
    """Multi-head Softmax(Q K^T * scale + mask) V, merged, as one op.

    Q is the column block ``cols[0]`` = (lo, hi) of q (all of q for None)
    cut into ``heads[0]`` heads; K and V are the blocks ``cols[1]`` of k
    and ``cols[2]`` of v, cut into ``heads[1]`` heads each, which is
    heads[0], or 1 for one key/value head shared by every query head. q,
    k and v may be one Tensor, such as a fused Q/K/V projection. A value
    head may be wider than a query/key head. With ``history`` =
    (k_rows, v_rows), K and V are read from these arrays (..., t, width)
    instead: their last m rows hold k's and v's blocks (a KV cache after
    the block was written), and the earlier rows are constants. ``scale``
    defaults to 1/sqrt(d_h) of a query head; ``mask`` is an additive array
    or Tensor, as softmax_rows takes it. Returns the heads side by side,
    (..., m, heads[0] * d_v).

    ``keep`` returns (out, W) with the (..., heads[0], m, n) weights W,
    each recorded with its half of the backward. ``weights``, such a W,
    stands for the scores: out is W V, and q and k may be None.

    The forward repeats the composite on the same head views: the scores
    product, softmax_rows with its scale, the weighted values and the
    merge, so float32 outputs equal it bit for bit. The default scale is a
    0-d array kept per (d_h, dtype), and the column blocks and head views
    are checked and cut inline. The backward is its closed form, each
    input's gradient written once, block by block, from the arrays the
    forward saves when a tape records the op.
    """
    n_q, n_kv = heads
    if n_kv != n_q and n_kv != 1:
        raise ShapeError(f"{n_kv} key/value heads cannot serve {n_q} query heads")
    spans = []
    for t, c, n in ((q, cols[0], n_q), (k, cols[1], n_kv), (v, cols[2], n_kv)):
        if t is None:                       # given weights stand for Q and K
            spans.append(None)
            continue
        shape = t.values.shape
        lo, hi = (0, shape[-1]) if c is None else c
        if len(shape) < 2 or not 0 <= lo < hi <= shape[-1] or (hi - lo) % n:
            raise ShapeError(f"no {n} heads in columns {lo}..{hi} of {shape}")
        spans.append((lo, hi))
    v_lo, v_hi = spans[2]
    m = v.values.shape[-2]
    vb = v.values[..., v_lo:v_hi] if history is None else history[1]
    # head_view's views, cut inline: a call fewer each
    vh = vb.reshape(vb.shape[:-1] + (n_kv, vb.shape[-1] // n_kv)).swapaxes(-2, -3)
    if weights is not None:
        qh = kh = y = c = mask_t = None
        w = weights.values
        if w.shape[-3:-2] != (n_q,) or w.shape[-1] != vb.shape[-2]:
            raise ShapeError(f"weights {w.shape} do not fit values {vh.shape}")
    else:
        (q_lo, q_hi), (k_lo, k_hi), _ = spans
        kb = k.values[..., k_lo:k_hi] if history is None else history[0]
        if history is not None and (kb.shape[-1] != k_hi - k_lo
                                    or vb.shape[-1] != v_hi - v_lo
                                    or kb.shape[-2] < m or vb.shape[-2] < m):
            raise ShapeError("history rows do not end in the key/value blocks")
        qb = q.values[..., q_lo:q_hi]
        d_h = (q_hi - q_lo) // n_q
        qh = qb.reshape(qb.shape[:-1] + (n_q, d_h)).swapaxes(-2, -3)
        kh = kb.reshape(kb.shape[:-1] + (n_kv, kb.shape[-1] // n_kv)).swapaxes(-2, -3)
        n_k = kb.shape[-2]
        if kh.shape[-1] != d_h or vb.shape[-2] != n_k:
            raise ShapeError(f"heads Q {qh.shape}, K {kh.shape}, V {vh.shape} differ")

        s = np.matmul(qh, kh.swapaxes(-1, -2))
        if scale is None:
            c = _SCALES.get((d_h, s.dtype))
            if c is None:
                c = _SCALES[d_h, s.dtype] = np.asarray(1.0 / math.sqrt(d_h), s.dtype)
        else:
            c = np.asarray(scale, s.dtype)
        y, mask_t = _softmax(s, c, mask, True)   # s is fresh
        w = y if y.dtype is s.dtype else y.astype(s.dtype)
    o = np.matmul(w, vh)
    out = o.swapaxes(-2, -3).reshape(
        o.shape[:-3] + (o.shape[-2], o.shape[-3] * o.shape[-1]))

    saved = ((q, k, v), spans, heads, qh, kh, vh, y, w, c, mask_t,
             None if history is None else m)
    if weights is not None:
        return _emit(out, (weights, v), _attention_grad, "values", (v,), *saved)
    srcs = (q,) if k is q else (q, k)        # distinct inputs, in first use
    if keep:                                 # a record per half
        kept = _emit(w, srcs if mask_t is None else srcs + (mask_t,),
                     _attention_grad, "scores", srcs, *saved)
        return _emit(out, (kept, v), _attention_grad, "values", (v,), *saved), kept
    if v is not q and v is not k:
        srcs += (v,)
    return _emit(out, srcs if mask_t is None else srcs + (mask_t,),
                 _attention_grad, "both", srcs, *saved)


def _attention_grad(half: str, srcs: tuple, qkv: tuple, spans: list,
                    heads: tuple, qh, kh, vh, y, w, c, mask_t: Optional[Tensor],
                    cached: Optional[int], g):
    """attention's backward, or one ``half`` of it: "values" takes the
    output's g to the weights' and V's gradients, "scores" the weights' g
    to Q's, K's and the mask's; "both" runs the two in turn. ``cached`` is
    the block's m when K and V were read from history rows, whose earlier
    rows get no gradient."""
    n_q, n_kv = heads
    grads, blocks, gw = [], [], g           # "scores" gets the weights' g
    if half != "scores":
        go = head_view(g, n_q)
        gw = _unbroadcast(np.matmul(go, vh.swapaxes(-1, -2)), w.shape)
        gv = _unbroadcast(np.matmul(w.swapaxes(-1, -2), go), vh.shape)
        if half == "values":
            grads.append(gw)
    if half != "values":
        gl = _softmax_grad(gw, y, w.dtype, half == "both")
        # the mask's gradient is gl itself
        gs = gl * c if mask_t is not None else np.multiply(gl, c, out=gl)
        gq = _unbroadcast(np.matmul(gs, kh), qh.shape)
        gk_t = np.matmul(qh.swapaxes(-1, -2), gs)
        gk = np.swapaxes(_unbroadcast(gk_t, kh.swapaxes(-1, -2).shape), -1, -2)
        if cached is not None:
            gk = gk[..., -cached:, :]
        blocks += [(qkv[0], spans[0], n_q, gq), (qkv[1], spans[1], n_kv, gk)]
    if half != "scores":
        if cached is not None:
            gv = gv[..., -cached:, :]
        blocks.append((qkv[2], spans[2], n_kv, gv))
    for t in srcs:
        parts = [(lo, hi, n, gh) for u, (lo, hi), n, gh in blocks if u is t]
        ranges = sorted((lo, hi) for lo, hi, _, _ in parts)
        tiled = ranges[0][0] == 0 and ranges[-1][1] == t.shape[-1] and all(
            a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        gx = (np.empty if tiled else np.zeros)(
            t.shape, dtype=np.result_type(*(p[3] for p in parts)))
        for lo, hi, n, gh in parts:
            view = head_view(gx[..., lo:hi], n)
            if tiled:
                view[...] = gh
            else:
                view += gh
        grads.append(gx)
    if mask_t is not None and half != "values":
        grads.append(_unbroadcast(gl, mask_t.shape))
    return tuple(grads)


def log_softmax_nll(x: Tensor, targets, weights, floor: float):
    """-sum_i w_i log max(softmax(x_i)[t_i], floor) over the rows of 2-d
    logits, as one op.

    Returns (loss, picked): the scalar loss and every row's target
    probability before the floor, a plain array. A row whose probability
    is below the floor contributes log(floor) and no gradient; the others
    get the gradient w_i (softmax(x_i) - onehot(t_i)). The forward runs
    softmax_rows's softmax, the gather, the floor, log and the weighted
    sum, so a float32 loss equals that composite's bit for bit.
    """
    xv = x.values
    ids = np.asarray(targets, dtype=np.int64)
    if xv.ndim != 2 or ids.shape != xv.shape[:1]:
        raise ShapeError("log_softmax_nll takes (m, |V|) logits and m targets")
    if floor <= 0:
        raise ValueError("the probability floor must be positive")
    rows = np.arange(xv.shape[0])
    y = _softmax(xv, None, None, False)[0]
    picked = y[rows, ids]
    fl = np.asarray(floor, dtype=xv.dtype)
    w = np.asarray(weights, dtype=xv.dtype)
    out = -(np.log(np.maximum(picked, fl)) * w).sum()

    def grad_fn(g):
        coef = g * w * (picked >= fl)       # a floored row gets nothing
        gx = y * coef[:, None]
        gx[rows, ids] -= coef
        return (gx.astype(xv.dtype, copy=False),)

    return _emit(out, (x,), grad_fn), picked


_LN_CONSTANTS: dict = {}       # (n, eps, dtype) -> 1/n and eps as 0-d arrays


def layer_norm(h: Tensor, g: Tensor, b: Tensor, eps: float,
               residual: Optional[Tensor] = None) -> Tensor:
    """g * (h - mu) / D + b over the last axis, as one op.

    mu and sigma are the row's mean and population standard deviation,
    and D is sigma + eps, the paper's denominator. With ``residual`` the
    op normalizes h + residual (a post-norm sub-layer's F(z) + z), added
    first exactly as a separate add would, and both receive its gradient.
    The forward repeats the composite's arithmetic (sums times 1/n in h's
    dtype), so float32 outputs equal it bit for bit; the 0-d constants 1/n
    and eps are made once per (n, eps, dtype). The backward is the closed
    form of Ba et al., Layer Normalization (2016); on a constant row
    (sigma = 0) d sigma / dh is taken as 0, so that row's input gradient
    is (dx - mean(dx)) / D, dx being the gradient at the normalized row.
    """
    hv = h.values if residual is None else h.values + residual.values
    key = hv.shape[-1], eps, hv.dtype
    consts = _LN_CONSTANTS.get(key)
    if consts is None:
        consts = _LN_CONSTANTS[key] = (np.asarray(1.0 / key[0], dtype=hv.dtype),
                                       np.asarray(eps, dtype=hv.dtype))
    inv_n, e = consts
    c = hv - np.add.reduce(hv, axis=-1, keepdims=True) * inv_n
    sigma = np.sqrt(np.add.reduce(c * c, axis=-1, keepdims=True) * inv_n)
    denom = sigma + e
    xhat = c / denom
    out = g.values * xhat + b.values
    inputs = (h, g, b) if residual is None else (h, g, b, residual)
    return _emit(out, inputs, _layer_norm_grad, inputs, xhat, sigma, denom,
                 inv_n)


def _layer_norm_grad(inputs: tuple, xhat, sigma, denom, inv_n, gout):
    h, g, b = inputs[:3]
    dxhat = gout * g.values
    s = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
    # dD/dsigma * dsigma/dc = k * c / n
    k = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 0)
    dc = dxhat / denom - xhat * (s * k * inv_n)
    dh = dc - np.add.reduce(dc, axis=-1, keepdims=True) * inv_n
    return tuple(_unbroadcast(gx, t.values.shape) for gx, t in zip(
        (dh, gout * xhat, gout, dh), inputs))


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------


class Rng:
    """Seeded random stream with deterministic splitting.

    Same seed + same call sequence gives a bit-identical stream. ``split``
    derives an independent child stream; the spawn counter makes repeated
    splits distinct.
    """

    def __init__(self, seed: int, _seq: Optional[np.random.SeedSequence] = None):
        self.seed = int(seed)
        self._seq = _seq if _seq is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def split(self) -> "Rng":
        child = self._seq.spawn(1)[0]
        return Rng(self.seed, _seq=child)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        u = self._gen.random(shape)
        return low + (high - low) * u

    def gaussian(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Box-Muller transform over the uniform stream."""
        n = int(np.prod(shape)) if shape else 1
        half = (n + 1) // 2
        u1 = self._gen.random(half)
        u2 = self._gen.random(half)
        radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], log is safe
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
        z = mean + std * z
        return z.reshape(shape) if shape else z[0]

    def integers(self, low: int, high: int, shape=None):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def xavier_init(d_in: int, d_out: int, gain: float = 1.0,
                dist: str = "uniform", rng: Optional[Rng] = None,
                dtype=np.float32) -> Tensor:
    """Fan-balanced init: eta = gain*sqrt(6/(d_in+d_out)).

    uniform draws from [-eta, eta]; gaussian draws with variance eta^2.
    """
    if d_in < 1 or d_out < 1:
        raise ValueError("xavier_init needs d_in, d_out >= 1")
    if gain <= 0:
        raise ValueError("xavier_init needs gain > 0")
    if rng is None:
        raise ValueError("xavier_init needs an explicit rng")
    eta = gain * np.sqrt(6.0 / (d_in + d_out))
    if dist == "uniform":
        vals = rng.uniform((d_in, d_out), -eta, eta)
    elif dist == "gaussian":
        vals = rng.gaussian((d_in, d_out), std=eta)
    else:
        raise ValueError(f"unknown init dist: {dist!r}")
    return Tensor(vals.astype(dtype), trainable=True)


# ---------------------------------------------------------------------------
# Quantized arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantSpec:
    """Uniform quantizer: step size s, a scalar, a (rows, 1) column of
    per-row steps or a (1, cols) row of per-column steps, and integer
    width p bits."""

    step: float | np.ndarray
    bits: int

    def __post_init__(self):
        if np.any(np.asarray(self.step) <= 0):
            raise ValueError("quantization step must be positive")
        if self.bits < 2:
            raise ValueError("quantizer needs at least 2 bits")

    @property
    def q_min(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def q_max(self) -> int:
        return (1 << (self.bits - 1)) - 1


@dataclass
class QuantStats:
    """Counts how often the quantizer had to saturate."""

    count: int = 0
    saturated: int = 0


def quantize_levels(x, spec: QuantSpec):
    """Integer levels of x as float64, and how many entries saturated.

    Rounds x/s to the nearest integer (ties to even) and clips to the
    quantizer's range. A weight used by many products is rounded once.
    """
    r = np.round(np.asarray(x, dtype=np.float64) / spec.step)
    saturated = int(np.count_nonzero((r < spec.q_min) | (r > spec.q_max)))
    return np.clip(r, spec.q_min, spec.q_max), saturated


_Q_MAX: dict = {}              # bits -> the largest level, a float64 0-d array


def quantized_matmul(a: Tensor, b: Tensor, spec_a: Optional[QuantSpec],
                     spec_b: QuantSpec, stats_a: Optional[QuantStats] = None,
                     stats_b: Optional[QuantStats] = None,
                     levels_b=None) -> Tensor:
    """Integer-accumulated product of quantized operands, then dequantized.

    a's leading axes fold into rows, as in matmul; b is 2-d. The
    worst-case accumulator magnitude k * 2^(p_a-1) * 2^(p_b-1) decides
    the arithmetic. Up to 2^53 a float64 GEMM of the integer levels is
    exact: every partial sum is an integer float64 represents, so the
    result equals the int64 product bit for bit, at BLAS speed. Above that
    the product runs in int64, and an AccumulatorOverflowError is raised
    if even that could wrap. A column step in spec_a scales each row of
    the product by its own row's step, and a row step in spec_b each
    column by its own column's step. ``levels_b`` is b already quantized
    with spec_b, as ``quantize_levels`` returns it; stats_b counts it as if
    it were quantized here.

    With spec_a None each row of a gets its own step max|row| / q_max at
    spec_b's width (1 / q_max for an all-zero row). Then |x / step| <=
    q_max (1 + 2 eps), which rounds to at most q_max, so the row is
    rounded without a clip and saturates nowhere; only a float64 row so
    small that its step is subnormal, and so inexact, is clipped and
    counted as quantize_levels does.
    """
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim != 2:
        raise ShapeError("quantized_matmul expects a (..., k) and a 2-d operand")
    k = bv.shape[0]
    if av.shape[-1] != k:
        raise ShapeError(f"inner extents differ: {av.shape} @ {bv.shape}")
    bits_a = spec_b.bits if spec_a is None else spec_a.bits
    worst = k * (1 << (bits_a - 1)) * (1 << (spec_b.bits - 1))
    if worst > _INT64_MAX:
        raise AccumulatorOverflowError(
            f"k={k} at {bits_a}+{spec_b.bits} bits can overflow the accumulator")
    sat_a = 0
    if spec_a is not None:
        qa, sat_a = quantize_levels(av.reshape(-1, k), spec_a)  # a row each
        step_a = spec_a.step
    else:                                   # a's own shape: no fold needed
        # the row maxima cast to float64 in the reduction, exactly
        top = np.maximum.reduce(np.abs(av), axis=-1, dtype=_F64, keepdims=True)
        step_a = np.where(top == _ZERO[_F64], _ONE64, top)
        q_max = _Q_MAX.get(bits_a)
        if q_max is None:
            q_max = _Q_MAX[bits_a] = np.asarray(float((1 << (bits_a - 1)) - 1))
        step_a /= q_max
        if av.dtype is _F32 or np.min(step_a) >= _TINY:
            qa = np.rint(av / step_a)       # np.round's ties to even
        else:
            qa, sat_a = quantize_levels(av, QuantSpec(step_a, bits_a))
    qb, sat_b = quantize_levels(bv, spec_b) if levels_b is None else levels_b
    if stats_a is not None:
        stats_a.count += qa.size
        stats_a.saturated += sat_a
    if stats_b is not None:
        stats_b.count += qb.size
        stats_b.saturated += sat_b
    if worst <= 1 << 53:
        acc = qa @ qb
    else:
        acc = (qa.astype(np.int64) @ qb.astype(np.int64)).astype(np.float64)
    out = (step_a * spec_b.step) * acc
    out = out.astype(av.dtype if av.dtype is bv.dtype
                     else np.result_type(av.dtype, bv.dtype), copy=False)
    return _result(out if out.ndim == av.ndim
                   else out.reshape(av.shape[:-1] + out.shape[-1:]))
