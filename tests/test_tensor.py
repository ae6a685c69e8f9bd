"""Tensor engine tests: autodiff, masked softmax, init, quantized arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import oracles as O
from seqlab import tensor as T


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity_left():
    b = T.Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
    out = T.matmul(T.eye(3, dtype=np.float64), b)
    np.testing.assert_allclose(out.values, b.values)


def test_matmul_identity_right():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, T.Tensor([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(out.values, [[1, 2], [3, 4]])


def test_matmul_vs_triple_loop():
    rng = T.Rng(7)
    a = rng.gaussian((7, 5))
    b = rng.gaussian((5, 3))
    got = T.matmul(T.Tensor(a, dtype=np.float64), T.Tensor(b, dtype=np.float64))
    want = O.triple_loop_matmul(a, b)
    assert np.max(np.abs(got.values - want)) < 1e-6


def test_matmul_column_block_is_the_product_with_those_columns():
    rng = T.Rng(3)
    a = T.Tensor(rng.gaussian((2, 3, 5)), dtype=np.float32)
    b = T.Tensor(rng.gaussian((5, 9)), dtype=np.float32)
    got = T.matmul(a, b, cols=(2, 6))
    want = T.matmul(a, T.Tensor(b.values[:, 2:6].copy()))
    assert got.values.tobytes() == want.values.tobytes()


def test_matmul_column_block_gradient_is_zero_outside_the_block():
    rng = T.Rng(4)
    a = T.Tensor(rng.gaussian((4, 5)), dtype=np.float64, trainable=True)
    b = T.Tensor(rng.gaussian((5, 9)), dtype=np.float64, trainable=True)
    probe = T.Tensor(rng.gaussian((4, 3)), dtype=np.float64)
    with T.Tape():
        loss = T.reduce_sum(T.matmul(a, b, cols=(6, 9)) * probe)
    grads = T.backward(loss)
    gb = grads[b].values
    assert not gb[:, :6].any()
    np.testing.assert_allclose(gb[:, 6:], a.values.T @ probe.values, atol=1e-12)
    np.testing.assert_allclose(grads[a].values, probe.values @ b.values[:, 6:].T,
                               atol=1e-12)


@pytest.mark.parametrize("cols", [(0, 0), (3, 2), (-1, 4), (2, 10)])
def test_matmul_rejects_a_column_block_outside_the_operand(cols):
    with pytest.raises(T.ShapeError):
        T.matmul(T.ones((2, 5)), T.ones((5, 9)), cols=cols)


def test_matmul_routing_sees_the_column_block():
    seen = []
    with T.matmul_routing(lambda a, b, cols: seen.append(cols)):
        T.matmul(T.ones((2, 5)), T.ones((5, 9)), cols=(1, 4))
        T.matmul(T.ones((2, 5)), T.ones((5, 9)))
    assert seen == [(1, 4), None]


def test_matmul_shape_mismatch():
    with pytest.raises(T.ShapeError):
        T.matmul(T.zeros((2, 3)), T.zeros((4, 2)))


def test_stacked_times_weight_matches_per_slice_products():
    """(b, m, k) @ (k, n) folds into one GEMM; values and gradients equal the
    slice-by-slice products, the weight gradient summed over slices."""
    rng = T.Rng(11)
    a_np, w_np, g_np = rng.gaussian((3, 4, 5)), rng.gaussian((5, 2)), rng.gaussian((3, 4, 2))
    a = T.Tensor(a_np, dtype=np.float64, trainable=True)
    w = T.Tensor(w_np, dtype=np.float64, trainable=True)
    with T.Tape():
        out = T.matmul(a, w)
        loss = (out * T.Tensor(g_np, dtype=np.float64)).sum()
    grads = T.backward(loss)
    assert out.shape == (3, 4, 2)
    np.testing.assert_allclose(out.values, np.stack([x @ w_np for x in a_np]),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads[a].values, g_np @ w_np.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads[w].values,
                               sum(x.T @ g for x, g in zip(a_np, g_np)),
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# softmax_rows
# ---------------------------------------------------------------------------

# Worked 4x4 decoder-attention example: scores already scaled, causal mask.
PRINTED_LOGITS = np.array([
    [2.0, 0.1, 1.0, 1.0],
    [0.0, 0.9, 0.9, 0.9],
    [0.2, 0.8, 0.7, 2.0],
    [0.3, 1.0, 0.3, 3.0],
])
PRINTED_ROWS = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.3, 0.7, 0.0, 0.0],
    [0.2, 0.4, 0.4, 0.0],
    [0.05, 0.1, 0.05, 0.8],
])


def causal_mask(n):
    m = np.zeros((n, n))
    m[np.triu_indices(n, k=1)] = -np.inf
    return m


def test_softmax_printed_causal_example():
    out = T.softmax_rows(T.Tensor(PRINTED_LOGITS, dtype=np.float64),
                         causal_mask(4))
    assert np.max(np.abs(out.values - PRINTED_ROWS)) <= 0.05
    # masked cells are exactly zero, not merely small
    assert np.all(out.values[np.triu_indices(4, k=1)] == 0.0)


def test_softmax_uniform_row():
    out = T.softmax_rows(T.Tensor([[3.0, 3.0, 3.0, 3.0]]))
    np.testing.assert_allclose(out.values, 0.25)


def test_softmax_single_unmasked_entry_is_one_hot():
    mask = np.array([[-np.inf, 0.0, -np.inf]])
    out = T.softmax_rows(T.Tensor([[5.0, -2.0, 9.0]]), mask)
    np.testing.assert_array_equal(out.values, [[0.0, 1.0, 0.0]])


def test_softmax_fully_masked_row_raises():
    with pytest.raises(T.DegenerateRowError):
        T.softmax_rows(T.Tensor([[1.0, 2.0]]), np.full((1, 2), -np.inf))


def test_softmax_rejects_nan_and_posinf_mask():
    with pytest.raises(ValueError):
        T.softmax_rows(T.Tensor([[1.0, 2.0]]), np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        T.softmax_rows(T.Tensor([[1.0, 2.0]]), np.array([[np.inf, 0.0]]))


def test_softmax_fully_masked_row_raises_beside_a_nan_row():
    x = T.Tensor([[np.nan, 1.0], [1.0, 2.0]])
    with pytest.raises(T.DegenerateRowError):
        T.softmax_rows(x, np.array([[0.0, 0.0], [-np.inf, -np.inf]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_softmax_rows_sum_to_one(seed):
    rng = T.Rng(seed)
    x = rng.gaussian((5, 7), std=4.0)
    out = T.softmax_rows(T.Tensor(x, dtype=np.float64))
    np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(out.values >= 0)


def test_softmax_large_logits_stable():
    out = T.softmax_rows(T.Tensor([[1000.0, 1000.0, -1000.0]], dtype=np.float64))
    assert np.all(np.isfinite(out.values))
    np.testing.assert_allclose(out.values[0, :2], 0.5)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_square():
    x = T.Tensor(3.0, trainable=True)
    with T.Tape():
        y = x ** 2
    assert float(T.backward(y)[x].values) == pytest.approx(6.0)


def test_backward_softmax_cross_entropy_is_p_minus_y():
    rng = T.Rng(11)
    logits = T.Tensor(rng.gaussian((1, 6)), dtype=np.float64, trainable=True)
    target = 2
    with T.Tape():
        p = T.softmax_rows(logits)
        loss = -T.log(p[0, target])
    grad = T.backward(loss)[logits].values
    p_vals = np.exp(logits.values) / np.exp(logits.values).sum()
    want = p_vals.copy()
    want[0, target] -= 1.0
    np.testing.assert_allclose(grad, want, atol=1e-12)


def test_backward_shared_parameter_sums_contributions():
    w = T.Tensor(2.0, trainable=True)
    with T.Tape():
        z = w * 3.0 + w * 4.0
    assert float(T.backward(z)[w].values) == pytest.approx(7.0)


def test_backward_rejects_nonscalar():
    x = T.Tensor([1.0, 2.0], trainable=True)
    with T.Tape():
        y = x * 2.0
    with pytest.raises(T.TapeError):
        T.backward(y)


def test_backward_without_tape_raises():
    x = T.Tensor(1.0, trainable=True)
    y = x * 2.0  # no active tape
    with pytest.raises(T.TapeError):
        T.backward(y)


def test_release_drops_records_and_keeps_outputs():
    x = T.Tensor(np.array([1.0, 2.0]), trainable=True)
    with T.Tape() as tape:
        y = (x * x).sum()
    assert T.backward(y)[x].values.tolist() == [2.0, 4.0]
    tape.release()
    assert len(tape) == 0
    assert y.values == 5.0


def _fd_check(build, params, seed, tol=1e-3):
    """Analytic gradients vs central differences for every parameter."""
    rng = T.Rng(seed)
    values = {name: rng.gaussian(shape) for name, shape in params.items()}
    tensors = {name: T.Tensor(v, dtype=np.float64, trainable=True)
               for name, v in values.items()}
    with T.Tape():
        loss = build(tensors)
    table = T.backward(loss)
    for name in params:
        def f(x, _name=name):
            trial = {n: T.Tensor(x if n == _name else values[n], dtype=np.float64)
                     for n in params}
            return float(build(trial).values)
        fd = O.central_difference(f, values[name].copy())
        got = table.get(tensors[name])
        analytic = got.values if got is not None else np.zeros_like(fd)
        err = O.relative_gradient_error(analytic, fd)
        assert err < tol, f"{name}: rel err {err}"


OP_CASES = {
    "add": lambda t: (t["a"] + t["b"]).sum(),
    "sub": lambda t: (t["a"] - t["b"]).mean(),
    "mul": lambda t: (t["a"] * t["b"]).sum(),
    "div": lambda t: (t["a"] / (t["b"] * t["b"] + 1.0)).sum(),
    "neg": lambda t: (-t["a"]).sum(),
    "exp": lambda t: T.exp(t["a"]).sum(),
    "log": lambda t: T.log(t["a"] * t["a"] + 0.5).sum(),
    "sqrt": lambda t: T.sqrt(t["a"] * t["a"] + 1.0).sum(),
    "power": lambda t: (t["a"] ** 3).sum(),
    "relu": lambda t: T.relu(t["a"] + 0.05).sum(),
    "elu": lambda t: T.elu_plus_one(t["a"]).sum(),
    "maximum": lambda t: T.maximum(t["a"], t["b"]).sum(),
    "reshape": lambda t: (t["a"].reshape(6, 2) * 2.0).sum(),
    "transpose": lambda t: (T.transpose(t["a"]) * t["b"].reshape(4, 3)).sum(),
    "concat": lambda t: T.concat([t["a"], t["b"]], axis=1).sum(),
    "take": lambda t: t["a"][1:3, ::2].sum(),
    "sum_axis": lambda t: t["a"].sum(axis=1).sum(),
    "mean_axis": lambda t: t["a"].mean(axis=0, keepdims=True).sum(),
    "matmul": lambda t: T.matmul(t["a"], T.transpose(t["b"])).sum(),
    "softmax": lambda t: (T.softmax_rows(t["a"]) * t["b"]).sum(),
    "gather": lambda t: T.gather_rows(t["a"], np.array([[0, 2], [2, 1]])).sum(),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_finite_difference(name):
    _fd_check(OP_CASES[name], {"a": (3, 4), "b": (3, 4)}, seed=hash(name) % 1000)


def test_composite_chain_gradient():
    def build(t):
        hidden = T.relu(T.matmul(t["x"], t["w"]) + t["b"])
        return T.softmax_rows(hidden).sum(axis=1).mean()

    _fd_check(build, {"x": (4, 3), "w": (3, 5), "b": (1, 5)}, seed=5)


def test_broadcast_gradients():
    def build(t):
        return ((t["a"] + t["row"]) * t["col"]).sum()

    _fd_check(build, {"a": (3, 4), "row": (1, 4), "col": (3, 1)}, seed=9)


# ---------------------------------------------------------------------------
# initialization and RNG
# ---------------------------------------------------------------------------


def test_xavier_unit_eta():
    # d_in = d_out = 3, gain 1: eta = sqrt(6/6) = 1
    w = T.xavier_init(3, 3, gain=1.0, rng=T.Rng(0))
    assert np.all(np.abs(w.values) <= 1.0)
    assert w.trainable


def test_xavier_uniform_bounds_scale_with_gain():
    eta = 2.0 * np.sqrt(6.0 / (16 + 24))
    w = T.xavier_init(16, 24, gain=2.0, rng=T.Rng(1))
    assert np.all(np.abs(w.values) <= eta)
    assert np.max(np.abs(w.values)) > 0.8 * eta  # actually fills the range


def test_xavier_gaussian_variance():
    eta = np.sqrt(6.0 / (200 + 200))
    w = T.xavier_init(200, 200, dist="gaussian", rng=T.Rng(2))
    assert w.values.std() == pytest.approx(eta, rel=0.05)


def test_xavier_validation():
    with pytest.raises(ValueError):
        T.xavier_init(0, 3, rng=T.Rng(0))
    with pytest.raises(ValueError):
        T.xavier_init(3, 3, gain=0.0, rng=T.Rng(0))
    with pytest.raises(ValueError):
        T.xavier_init(3, 3, dist="cauchy", rng=T.Rng(0))


def test_rng_determinism():
    a = T.Rng(123).gaussian((5, 5))
    b = T.Rng(123).gaussian((5, 5))
    np.testing.assert_array_equal(a, b)


def test_rng_split_streams_differ():
    root = T.Rng(123)
    c1, c2 = root.split(), root.split()
    assert not np.array_equal(c1.uniform((8,)), c2.uniform((8,)))


def test_xavier_deterministic_given_seed():
    w1 = T.xavier_init(4, 4, rng=T.Rng(9))
    w2 = T.xavier_init(4, 4, rng=T.Rng(9))
    np.testing.assert_array_equal(w1.values, w2.values)


def test_tensor_values_read_only():
    t = T.zeros((2, 2))
    with pytest.raises(ValueError):
        t.values[0, 0] = 1.0


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def roundtrip(x, spec):
    """x through the quantizer and back: its levels times the step."""
    return T.quantize_levels(x, spec)[0] * spec.step


def test_quantize_worked_example():
    spec = T.QuantSpec(step=0.5, bits=8)
    assert T.quantize_levels(1.3, spec) == (3, 0)
    assert roundtrip(1.3, spec) == 1.5


def test_quantize_zero():
    spec = T.QuantSpec(step=0.25, bits=8)
    assert T.quantize_levels(0.0, spec) == (0, 0)
    assert roundtrip(0.0, spec) == 0.0


def test_quantize_round_half_to_even():
    spec = T.QuantSpec(step=0.5, bits=8)
    levels, _ = T.quantize_levels([0.75, 1.25, -0.75], spec)
    # 1.5 and 2.5 both round to the even 2
    np.testing.assert_array_equal(levels, [2, 2, -2])


def test_quantize_saturates_and_counts():
    spec = T.QuantSpec(step=1.0, bits=4)  # range [-8, 7]
    levels, saturated = T.quantize_levels([100.0, -100.0, 3.0], spec)
    np.testing.assert_array_equal(levels, [7, -8, 3])
    assert saturated == 2


def test_quantize_roundtrip_sweep():
    spec = T.QuantSpec(step=2.0 / (2 ** 8 - 1), bits=8)
    x = T.Rng(4).uniform((10_000,), -1.0, 1.0)
    err = np.abs(roundtrip(x, spec) - x)
    assert err.max() <= spec.step / 2 + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_quantize_roundtrip_property(x):
    spec = T.QuantSpec(step=2.0 / 255, bits=8)
    assert abs(roundtrip(x, spec) - x) <= spec.step / 2 + 1e-12


def test_quantized_matmul_zeros():
    spec = T.QuantSpec(step=0.1, bits=8)
    out = T.quantized_matmul(T.zeros((3, 3)), T.zeros((3, 3)), spec, spec)
    np.testing.assert_array_equal(out.values, 0.0)


def test_quantized_matmul_worked_example():
    spec = T.QuantSpec(step=1.0, bits=8)
    out = T.quantized_matmul(T.Tensor([[2.4]]), T.Tensor([[1.6]]), spec, spec)
    assert out.values[0, 0] == pytest.approx(4.0)  # true product is 3.84


def test_quantized_matmul_error_bound():
    rng = T.Rng(21)
    a = rng.gaussian((8, 8))
    b = rng.gaussian((8, 8))
    spec_a = T.QuantSpec(step=np.abs(a).max() / (2 ** 7 - 1), bits=8)
    spec_b = T.QuantSpec(step=np.abs(b).max() / (2 ** 7 - 1), bits=8)
    got = T.quantized_matmul(T.Tensor(a, dtype=np.float64),
                             T.Tensor(b, dtype=np.float64), spec_a, spec_b).values
    exact = a @ b
    # per-entry bound: sum_t |a|*sB/2 + |b|*sA/2 + sA*sB/4
    bound = (np.abs(a) @ np.full((8, 8), spec_b.step / 2)
             + np.full((8, 8), spec_a.step / 2) @ np.abs(b)
             + 8 * spec_a.step * spec_b.step / 4)
    assert np.all(np.abs(got - exact) <= bound + 1e-12)
    rel_frob = np.linalg.norm(got - exact) / np.linalg.norm(exact)
    assert rel_frob < np.linalg.norm(bound) / np.linalg.norm(exact)


def int64_quantized_matmul(a, b, spec_a, spec_b, stats):
    """The integer reference: int64 levels, int64 accumulation."""
    def levels(x, spec):
        q, saturated = T.quantize_levels(x, spec)
        stats.count += q.size
        stats.saturated += saturated
        return q.astype(np.int64)

    acc = levels(a, spec_a) @ levels(b, spec_b)
    return (spec_a.step * spec_b.step) * acc.astype(np.float64)


@pytest.mark.parametrize("bits", [8, 16])
def test_float64_accumulation_is_bitwise_the_int64_product(bits):
    rng = T.Rng(30 + bits)
    k = 256
    a = rng.gaussian((9, k))
    b = rng.gaussian((k, 7))
    q_max = 2 ** (bits - 1) - 1
    # steps sized for 0.6 of the largest entry, so the tails saturate
    spec_a = T.QuantSpec(0.6 * np.abs(a).max() / q_max, bits)
    spec_b = T.QuantSpec(0.6 * np.abs(b).max() / q_max, bits)
    assert k * 2 ** (2 * bits - 2) <= 2 ** 53      # the float64 branch
    want_stats, got_stats, reused_stats = (T.QuantStats() for _ in range(3))
    want = int64_quantized_matmul(a, b, spec_a, spec_b, want_stats)
    ta, tb = T.Tensor(a, dtype=np.float64), T.Tensor(b, dtype=np.float64)
    got = T.quantized_matmul(ta, tb, spec_a, spec_b, got_stats, got_stats)
    reused = T.quantized_matmul(ta, tb, spec_a, spec_b, reused_stats,
                                reused_stats,
                                levels_b=T.quantize_levels(b, spec_b))
    assert want_stats.saturated > 0
    for out, stats in ((got, got_stats), (reused, reused_stats)):
        assert np.array_equal(out.values, want)
        assert stats == want_stats


def test_wide_products_accumulate_in_int64():
    # 28 + 28 bits over k = 64 exceeds 2^53 but not the int64 range
    rng = T.Rng(33)
    a = rng.gaussian((3, 64))
    b = rng.gaussian((64, 2))
    spec = T.QuantSpec(np.abs(np.concatenate([a.ravel(), b.ravel()])).max()
                       / (2 ** 27 - 1), 28)
    assert 2 ** 53 < 64 * 2 ** 54 <= np.iinfo(np.int64).max
    stats = T.QuantStats()
    want = int64_quantized_matmul(a, b, spec, spec, stats)
    got = T.quantized_matmul(T.Tensor(a, dtype=np.float64),
                             T.Tensor(b, dtype=np.float64), spec, spec)
    assert np.array_equal(got.values, want)


def clipped_per_row_product(a, b, levels, spec_b, stats):
    """The per-row product with a clip: each row's step max|row| / q_max
    (1 / q_max for an all-zero row) passed as a column step, so its levels
    are rounded, clipped and counted by quantize_levels."""
    rows = a.values.reshape(-1, a.shape[-1])
    top = np.abs(rows).max(axis=1, keepdims=True).astype(np.float64)
    spec_a = T.QuantSpec(np.where(top == 0.0, 1.0, top) / spec_b.q_max,
                         spec_b.bits)
    return T.quantized_matmul(T.Tensor(rows), b, spec_a, spec_b, stats, stats,
                              levels_b=levels)


EDGE_VALUES = {                          # zeros, subnormals, the largest
    np.float32: [0.0, -0.0, 1e-45, -1e-45, 1e-40, 1.2e-38, 3.4e38, -3.4e38],
    np.float64: [0.0, -0.0, 5e-324, -1e-310, 2.2e-308, 1e300, -1.7e308]}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), st.integers(1, 4),
       st.integers(1, 6), st.sampled_from([2, 4, 8, 16]), st.data())
def test_a_per_row_step_never_saturates(dtype, n_rows, k, bits, data):
    """|x / step| <= q_max (1 + 2 eps) rounds to at most q_max, so rows
    quantized with their own steps need no clip: zero rows, -0.0,
    subnormals and the largest magnitudes give the clipped path's
    products and counts bit for bit, and the clip never acts. A float64
    row whose step is subnormal, and so inexact, is clipped and counted."""
    width = 32 if dtype is np.float32 else 64
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False,
                                width=width),
                      st.sampled_from(EDGE_VALUES[dtype]))
    rows = np.array(data.draw(st.lists(value, min_size=n_rows * k,
                                       max_size=n_rows * k)), dtype=dtype)
    a = T.Tensor(rows.reshape(n_rows, 1, k))
    w = T.Rng(k).gaussian((k, 3))
    spec_b = T.QuantSpec(np.abs(w).max() / ((1 << (bits - 1)) - 1), bits)
    b = T.Tensor(w, dtype=dtype)
    levels = T.quantize_levels(b.values, spec_b)
    got_stats, want_stats = T.QuantStats(), T.QuantStats()
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = clipped_per_row_product(a, b, levels, spec_b, want_stats)
        except ValueError:                   # a step underflowed to zero
            with pytest.raises(ValueError):
                T.quantized_matmul(a, b, None, spec_b, levels_b=levels)
            return
        got = T.quantized_matmul(a, b, None, spec_b, got_stats, got_stats,
                                 levels_b=levels)
    assert got.shape == (n_rows, 1, 3)
    assert got.values.tobytes() == want.values.reshape(got.shape).tobytes()
    assert got_stats == want_stats
    top = np.abs(rows.reshape(n_rows, k)).max(axis=1).astype(np.float64)
    if dtype is np.float32 or np.all(top / spec_b.q_max >= np.finfo(
            np.float64).tiny):
        assert want_stats.saturated == 0


def test_quantized_matmul_overflow_guard():
    spec = T.QuantSpec(step=1.0, bits=32)
    with pytest.raises(T.AccumulatorOverflowError):
        T.quantized_matmul(T.zeros((4, 4)), T.zeros((4, 4)), spec, spec)


def test_quantized_matmul_shape_checks():
    spec = T.QuantSpec(step=1.0, bits=8)
    with pytest.raises(T.ShapeError):
        T.quantized_matmul(T.zeros((2, 3)), T.zeros((2, 3)), spec, spec)


def test_quant_spec_validation():
    with pytest.raises(ValueError):
        T.QuantSpec(step=0.0, bits=8)
    with pytest.raises(ValueError):
        T.QuantSpec(step=0.5, bits=1)


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------


def take_grad(x, key, probe):
    with T.Tape():
        loss = T.reduce_sum(T.take(x, key) * T.Tensor(probe, dtype=x.dtype))
    return T.backward(loss)[x].values


@pytest.mark.parametrize("key", [
    (slice(None), slice(1, 3)), (Ellipsis, slice(2, 5)), 1,
    (0, slice(None), 2), (slice(None), None, slice(1, 6, 2)),
    (np.int64(2), Ellipsis)], ids=str)
def test_take_gradient_of_a_basic_key_is_the_accumulated_one(key):
    """A basic key addresses each entry once: assigning the slice gives
    the bits np.add.at into zeros gives."""
    x = T.Tensor(T.Rng(5).gaussian((4, 5, 6)), dtype=np.float32, trainable=True)
    probe = T.Rng(6).gaussian(x.values[key].shape).astype(np.float32)
    want = np.zeros(x.shape, dtype=np.float32)
    np.add.at(want, key, probe)
    got = take_grad(x, key, probe)
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def test_take_gradient_of_an_integer_array_key_sums_repeated_rows():
    x = T.Tensor(T.Rng(7).gaussian((3, 4)), dtype=np.float64, trainable=True)
    idx = np.array([[0, 2, 2], [1, 0, 2]])
    probe = T.Rng(8).gaussian((2, 3, 4))
    want = np.zeros((3, 4))
    for r, row in enumerate(idx):
        for c, i in enumerate(row):
            want[i] += probe[r, c]
    np.testing.assert_allclose(take_grad(x, idx, probe), want, atol=1e-12)
    with T.Tape():
        loss = T.reduce_sum(T.gather_rows(x, idx) * T.Tensor(probe))
    np.testing.assert_allclose(T.backward(loss)[x].values, want, atol=1e-12)


@pytest.mark.parametrize("idx", [np.array([0.0, 1.0]), np.array([True, False])])
def test_gather_rows_refuses_non_integer_indices(idx):
    with pytest.raises(TypeError):
        T.gather_rows(T.ones((2, 3)), idx)


def test_op_results_keep_the_dtype_check_and_read_only_flag():
    out = T.add(T.ones((2, 2)), T.ones((2, 2)))
    assert not out.values.flags.writeable
    scalar = T.mul(T.Tensor(np.float32(2.0)), T.Tensor(np.float32(3.0)))
    assert scalar.values.shape == () and scalar.values == 6.0
    with pytest.raises(TypeError):
        T.relayout(T.ones((2,)), lambda a: a.astype(np.int32), lambda g: g)


@pytest.mark.parametrize("a_shape,b_shape,a_dtype,b_dtype", [
    ((1, 4, 2, 16), (1, 4, 2, 16), np.float32, np.float32),
    ((1, 4, 2, 16), (2, 16), np.float32, np.float32),
    ((1, 4, 2, 16), (1, 4, 2, 1), np.float32, np.float32),
    ((1, 4, 2, 16), (4, 1, 1), np.float64, np.float64),
    ((2, 16), (1, 2, 16), np.float32, np.float32),
    ((2, 1), (2, 16), np.float32, np.float32),
    ((2, 16), (2, 16), np.float32, np.float64),
    ((2, 16), (2, 16), np.float64, np.float32),
    ((2, 16), (), np.float32, np.float32),
], ids=str)
def test_into_decides_in_place_as_the_general_rule(a_shape, b_shape, a_dtype,
                                                    b_dtype):
    """In place exactly when the result keeps a's dtype and shape, as
    np.result_type and np.broadcast_shapes decide it."""
    a = np.full(a_shape, 1.5, a_dtype)
    b = np.full(b_shape, 0.25, b_dtype)
    want = np.add(a, b)
    in_place = np.result_type(a, b) == a.dtype \
        and np.broadcast_shapes(a.shape, b.shape) == a.shape
    got = T._into(np.add, a, b)
    assert (got is a) == in_place
    assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the softmax row max
# ---------------------------------------------------------------------------


def pinned_softmax(y, c, mask, fresh):
    """tensor._softmax as it was: the row max without an initial value."""
    if c is not None:
        y = np.multiply(y, c, out=y if fresh else None)
        fresh = True
    mask_t = mask if isinstance(mask, T.Tensor) else None
    if mask is not None:
        mv = mask.values if mask_t is not None else np.asarray(mask, dtype=y.dtype)
        if not np.maximum.reduce(mv, axis=None, initial=-np.inf) < np.inf:
            raise ValueError("mask entries must be finite or -inf")
        y = T._into(np.add, y, mv) if fresh else y + mv
        fresh = True
    if y.shape[-1] == 0:
        raise T.DegenerateRowError("softmax over zero-width rows")
    row_max = np.maximum.reduce(y, axis=-1, keepdims=True)
    if np.fmin.reduce(row_max, axis=None, initial=np.inf) == -np.inf:
        raise T.DegenerateRowError("softmax row with every entry masked")
    y = np.subtract(y, row_max, out=y if fresh else None)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    return y, mask_t


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 4, 64, 64), (8, 64, 64), (2, 4, 3, 9)])
def test_the_softmax_row_max_keeps_every_bit(shape, dtype, monkeypatch):
    """The row max takes an initial -inf, numpy's fast path: attention,
    softmax_rows and log_softmax_nll give the old expression's bits on
    plain rows, a masked row, a NaN row, and raise on an all-masked row
    as it did."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape).astype(dtype) * 4
    x[..., 0, 1] = np.nan                    # one NaN logit in the first row
    mask = np.zeros(shape[-2:])
    mask[1, ::2] = -np.inf                   # a half-masked row
    dead = np.zeros(shape[-2:])
    dead[2] = -np.inf                        # every entry masked
    q, k, v = (T.Tensor(rng.standard_normal(lead + (8,)).astype(dtype))
               for lead in (shape[:-1], shape[:-2] + shape[-1:],
                            shape[:-2] + shape[-1:]))

    def run():
        rows = x.reshape(-1, shape[-1])
        out = [T.softmax_rows(T.Tensor(x), mask, 0.5).values,
               T.attention(q, k, v, mask=mask).values,
               T.log_softmax_nll(T.Tensor(rows[1:]),
                                 np.arange(len(rows) - 1) % shape[-1],
                                 np.ones(len(rows) - 1), 1e-9)[0].values]
        for call in (lambda: T.softmax_rows(T.Tensor(x), dead),
                     lambda: T.attention(q, k, v, mask=dead)):
            with pytest.raises(T.DegenerateRowError):
                call()
        return out

    got = run()
    monkeypatch.setattr(T, "_softmax", pinned_softmax)
    for g, w in zip(got, run()):
        assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=True)
    assert np.isnan(got[0][..., 0, :]).all()
