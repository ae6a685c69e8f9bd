"""State-space module: discretization, the block form against the
recurrence it replaces, diagonalization."""

from typing import List, Optional

import numpy as np
import pytest

from seqlab import model as M
from seqlab import oracles as O
from seqlab import runtime as R
from seqlab import ssm as S
from seqlab import tensor as T
from seqlab.embedding import SOS, Vocab

from test_model import DECODE_VARIANTS

F64 = np.float64


def random_dssm(d_in, d_state, seed, method="zoh", dt=0.1, init="diag-uniform"):
    return S.discretize(S.make_ssm(d_in, d_state, dt, init, T.Rng(seed)), method)


def scan_np(dssm, s):
    return S.ssm_apply(T.Tensor(s, dtype=F64), dssm).values


# ---------------------------------------------------------------------------
# the recurrence, pinned: the position-by-position executions that the block
# form replaced
# ---------------------------------------------------------------------------


def pinned_scan_recurrent(dssm, inputs):
    """Sequential state update from a zero initial state; differentiable."""
    n = inputs.shape[0]
    z = T.zeros((1, dssm.d_state), dtype=inputs.dtype)
    rows = []
    for t in range(n):
        s_t = T.take(inputs, slice(t, t + 1))
        z = T.matmul(z, dssm.a_bar) + T.matmul(s_t, dssm.b_bar)
        rows.append(T.matmul(z, dssm.c_bar) + T.matmul(s_t, dssm.d_bar))
    return T.concat(rows, axis=0)


def pinned_sublayer_scan(h, dssm, carry: Optional[List[np.ndarray]] = None,
                         counter=None):
    """The per-column recurrence, the state block Z (..., d, d_z) carried
    position by position; ``counter`` is accepted and ignored."""
    lead, (m, d) = h.shape[:-2], h.shape[-2:]
    z = T.zeros(lead + (d, dssm.d_state), dtype=h.dtype) if carry is None \
        else T.Tensor(carry[0])
    s_cols = T.transpose(h)
    cols = []
    for t in range(m):
        s_t = T.take(s_cols, (Ellipsis, slice(t, t + 1)))
        z = T.matmul(z, dssm.a_bar) + s_t * dssm.b_bar
        cols.append(T.matmul(z, dssm.c_bar))
    if carry is not None:
        carry[:] = [z.values]
    return T.transpose(T.concat(cols, axis=-1)) + h * dssm.d_bar


def trainable(dssm):
    return S.DiscreteSSM(*(T.Tensor(t.values, trainable=True)
                           for t in (dssm.a_bar, dssm.b_bar, dssm.c_bar,
                                     dssm.d_bar)), dssm.method)


def values_and_grads(fn, s0, dssm, probe):
    """fn(s, dssm) and the gradients of <fn, probe> for s and the four
    system matrices."""
    s = T.Tensor(s0, trainable=True)
    with T.Tape():
        out = fn(s, dssm)
        g = T.backward((out * T.Tensor(probe)).sum())
    return [out.values] + [g[t].values for t in (s, dssm.a_bar, dssm.b_bar,
                                                 dssm.c_bar, dssm.d_bar)]


def assert_close(got, want, tol):
    """Each array within tol, scaled by its largest entry where that is
    above one."""
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.max(np.abs(g - w)) <= tol * max(1.0, np.max(np.abs(w)))


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_euler_zero_state_matrix():
    b = np.arange(6.0).reshape(2, 3)
    cont = S.ContinuousSSM(np.zeros((3, 3)), b, np.zeros((3, 2)), np.eye(2), 0.25)
    d = S.discretize(cont, "euler")
    np.testing.assert_array_equal(d.a_bar.values, np.eye(3))
    np.testing.assert_allclose(d.b_bar.values, 0.25 * b)


def test_zoh_scalar_is_exponential():
    cont = S.ContinuousSSM([[-0.7]], [[1.0]], [[1.0]], [[0.0]], 0.3)
    d = S.discretize(cont, "zoh")
    assert d.a_bar.values[0, 0] == pytest.approx(np.exp(-0.21), abs=1e-12)


def test_zoh_zero_state_matrix_uses_series():
    cont = S.ContinuousSSM([[0.0]], [[2.0]], [[1.0]], [[0.0]], 0.5)
    d = S.discretize(cont, "zoh")
    assert d.a_bar.values[0, 0] == pytest.approx(1.0)
    assert d.b_bar.values[0, 0] == pytest.approx(1.0)  # dt * b


def scalar_gap(method_a, method_b, dt):
    cont = S.ContinuousSSM([[-1.0]], [[1.0]], [[1.0]], [[0.0]], dt)
    da = S.discretize(cont, method_a).a_bar.values[0, 0]
    db = S.discretize(cont, method_b).a_bar.values[0, 0]
    return abs(da - db)


def test_bilinear_zoh_gap_is_third_order():
    # both methods match exp() through dt^2, so their gap is ~dt^3/12
    # and halving dt shrinks it ~8x (frozen from the direct computation;
    # 7.62 for dt = 0.1 -> 0.05)
    ratio = scalar_gap("bilinear", "zoh", 0.1) / scalar_gap("bilinear", "zoh", 0.05)
    assert ratio == pytest.approx(7.62, rel=0.2)


def test_euler_zoh_gap_is_second_order():
    # first-order Euler leaves a dt^2/2 gap: halving dt shrinks it ~4x
    ratio = scalar_gap("euler", "zoh", 0.1) / scalar_gap("euler", "zoh", 0.05)
    assert ratio == pytest.approx(4.0, rel=0.2)


def test_c_and_d_pass_through_unchanged():
    cont = S.make_ssm(2, 4, 0.1, "random", T.Rng(1))
    for method in S.METHODS:
        d = S.discretize(cont, method)
        np.testing.assert_array_equal(d.c_bar.values, cont.c)
        np.testing.assert_array_equal(d.d_bar.values, cont.d)
        assert d.method == method


def test_bilinear_singularity():
    # I - dt/2 A vanishes when A = (2/dt) I
    cont = S.ContinuousSSM(np.eye(2) * 20.0, np.ones((1, 2)), np.ones((2, 1)),
                           np.eye(1), 0.1)
    with pytest.raises(S.SingularityError):
        S.discretize(cont, "bilinear")


def test_zoh_singular_large_state_matrix():
    a = np.diag([1.0, 0.0])  # singular, norm well above the series cutoff
    cont = S.ContinuousSSM(a, np.ones((1, 2)), np.ones((2, 1)), np.eye(1), 0.1)
    with pytest.raises(S.SingularityError):
        S.discretize(cont, "zoh")


def test_invalid_construction():
    with pytest.raises(ValueError):
        S.ContinuousSSM([[0.0]], [[1.0]], [[1.0]], [[1.0]], -0.1)
    with pytest.raises(T.ShapeError):
        S.ContinuousSSM(np.zeros((2, 3)), np.ones((1, 2)), np.ones((2, 1)),
                        np.eye(1), 0.1)
    with pytest.raises(ValueError):
        S.discretize(S.make_ssm(1, 2), "leapfrog")


# ---------------------------------------------------------------------------
# the block form against the pinned recurrence
# ---------------------------------------------------------------------------


SYSTEMS = [dict(d_in=2, d_state=4, seed=3), dict(d_in=2, d_state=4, seed=3,
                                                  method="bilinear",
                                                  init="random")]


@pytest.mark.parametrize("system", SYSTEMS,
                         ids=["diagonal-zoh", "random-bilinear"])
@pytest.mark.parametrize("m", [1, 7, 16, 33, 64])
def test_block_form_equals_the_pinned_recurrence_in_float64(system, m):
    """Values and gradients of s, Abar, Bbar, Cbar and Dbar within 1e-12:
    one block, several, and a short last one."""
    dssm = trainable(random_dssm(**system))
    s0, probe = T.Rng(m).gaussian((m, 2)), T.Rng(m + 1).gaussian((m, 2))
    assert_close(values_and_grads(S.ssm_apply, s0, dssm, probe),
                 values_and_grads(lambda s, d: pinned_scan_recurrent(d, s),
                                  s0, dssm, probe),
                 1e-12)


def sublayer_runs(fn, h0, dssm, probe, splits):
    """Values, carried states and gradients of fn over consecutive blocks
    of h0's positions, the state carried from one call to the next."""
    carry, lo, runs = [np.zeros(h0.shape[:-2] + (h0.shape[-1], dssm.d_state),
                                dtype=h0.dtype)], 0, []
    for m in splits:
        block = (slice(None), slice(lo, lo + m))
        runs += values_and_grads(lambda s, d: fn(s, d, carry), h0[block],
                                 dssm, probe[block]) + [carry[0]]
        lo += m
    return runs


@pytest.mark.parametrize("splits", [(64,), (5, 1, 34, 24)],
                         ids=["full", "carried"])
def test_sublayer_equals_the_pinned_scan_in_float64(splits):
    dssm = trainable(S.init_ssm_sublayer(16, 0.1, "zoh", "diag-uniform",
                                         T.Rng(1), dtype=F64))
    h0, probe = T.Rng(2).gaussian((8, 64, 64)), T.Rng(3).gaussian((8, 64, 64))
    assert_close(sublayer_runs(S.ssm_sublayer_scan, h0, dssm, probe, splits),
                 sublayer_runs(pinned_sublayer_scan, h0, dssm, probe, splits),
                 1e-12)


@pytest.mark.parametrize("splits", [(64,), (5, 1, 34, 24)],
                         ids=["full", "carried"])
def test_sublayer_equals_the_pinned_scan_in_float32_within_tolerance(splits):
    """The block form sums in another order. Measured over five seeds:
    outputs and carried states within 1.2e-6 (|out| <= 4.8); gradients
    within 1.2e-5 of their largest entry, except Dbar's full-pass one at
    1.6e-4. That one sums 32768 products: the block form inside a
    512-row float32 product, the recurrence with numpy's pairwise sum
    (1.4e-4 and 2.1e-5 off the float64 gradient on the first seed). The
    bounds are about twice the measured ones."""
    dssm = trainable(S.init_ssm_sublayer(16, 0.1, "zoh", "diag-uniform",
                                         T.Rng(1), dtype=np.float32))
    h0 = T.Rng(2).gaussian((8, 64, 64)).astype(np.float32)
    probe = T.Rng(3).gaussian((8, 64, 64)).astype(np.float32)
    got = sublayer_runs(S.ssm_sublayer_scan, h0, dssm, probe, splits)
    want = sublayer_runs(pinned_sublayer_scan, h0, dssm, probe, splits)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == np.float32
        err = np.max(np.abs(g - w))
        if i % 7 in (0, 6):                  # outputs and carried states
            assert err <= 2.5e-6
        else:
            assert err <= (4e-4 if i % 7 == 5 else 2.5e-5) * np.max(np.abs(w))


SSM_VARIANTS = [kw for kw in DECODE_VARIANTS if kw.get("attention") == "ssm"]


@pytest.fixture
def pinned(monkeypatch):
    """``pinned(fn)`` is fn() run with the pinned per-column recurrence."""
    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(S, "ssm_sublayer_scan", pinned_sublayer_scan)
            return fn()
    return run


@pytest.mark.parametrize("kw", SSM_VARIANTS, ids=[str(sorted(k.items()))
                                                  for k in SSM_VARIANTS])
def test_ssm_models_equal_the_pinned_scan_in_float64(kw, pinned):
    """Full-pass logits and every parameter's gradient, then one-token and
    block decodes, within 1e-12."""
    vocab = Vocab.from_text("abcdefgh")
    model = M.Model.init(M.ModelConfig(d=8, n_layers=2, tau=2, d_ffn=16, **kw),
                         vocab, seed=0, dtype=F64)
    ids = [SOS] + vocab.encode("cabdabcadbca")
    probe = T.Rng(4).gaussian((len(ids), len(vocab)))

    def run():
        with T.Tape():
            logits = model.decoder_forward(ids)
            g = T.backward((logits * T.Tensor(probe)).sum())
        session = model.decode_session()
        steps = [model.decode_step(session, t) for t in ids]
        session = model.decode_session()
        blocks = [model.decode_step(session, np.array([ids[:5]])),
                  model.decode_step(session, np.array([ids[5:]]))]
        return [logits.values] + [g[p].values for p in model.parameters()] \
            + [np.stack(steps)] + blocks

    assert_close(run(), pinned(run), 1e-12)


def test_beam_search_equals_the_pinned_scan(pinned):
    """A float32 model: beam-4 tokens equal, scores within float32 rounding."""
    vocab = Vocab.from_text("abcdefgh")
    model = M.Model.init(M.ModelConfig(d=16, n_layers=2, tau=2, d_ffn=32,
                                       attention="ssm"), vocab, seed=5)
    cfg = R.SearchConfig(beam=4, n_max=12)
    prompt = vocab.encode("ab")
    got = R.beam_search(model, prompt, cfg)
    want = pinned(lambda: R.beam_search(model, prompt, cfg))
    assert [h.tokens for h in got] == [h.tokens for h in want]
    for g, w in zip(got, want):
        assert abs(g.logprob - w.logprob) < 1e-5 * max(1.0, abs(w.logprob))


# ---------------------------------------------------------------------------
# block form
# ---------------------------------------------------------------------------


def test_scan_no_state_carryover():
    d = random_dssm(3, 4, seed=2)
    dead = S.DiscreteSSM(T.zeros((4, 4), dtype=F64), d.b_bar, d.c_bar,
                         d.d_bar, d.method)
    s = T.Rng(3).gaussian((6, 3))
    out = scan_np(dead, s)
    want = s @ d.b_bar.values @ d.c_bar.values + s @ d.d_bar.values
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_scan_zero_inputs():
    d = random_dssm(2, 3, seed=4)
    out = scan_np(d, np.zeros((5, 2)))
    np.testing.assert_array_equal(out, 0.0)


def test_scan_matches_closed_form():
    d = random_dssm(3, 5, seed=5)
    s = T.Rng(6).gaussian((16, 3))
    want = O.ssm_closed_form(d.a_bar.values, d.b_bar.values, d.c_bar.values,
                             d.d_bar.values, s)
    assert np.max(np.abs(scan_np(d, s) - want)) < 1e-6


def test_scan_linearity():
    d = random_dssm(2, 4, seed=7)
    rng = T.Rng(8)
    s1, s2 = rng.gaussian((10, 2)), rng.gaussian((10, 2))
    combo = scan_np(d, 2.0 * s1 - 3.0 * s2)
    parts = 2.0 * scan_np(d, s1) - 3.0 * scan_np(d, s2)
    np.testing.assert_allclose(combo, parts, atol=1e-9)


def test_scan_causality_is_bitwise():
    d = random_dssm(2, 4, seed=9)
    rng = T.Rng(10)
    s = rng.gaussian((8, 2))
    base = scan_np(d, s)
    s2 = s.copy()
    s2[5:] += rng.gaussian((3, 2))
    assert np.array_equal(scan_np(d, s2)[:5], base[:5])


def test_scan_gradient_vs_finite_difference():
    d = random_dssm(2, 3, seed=11)
    d = S.DiscreteSSM(T.Tensor(d.a_bar.values, trainable=True),
                      T.Tensor(d.b_bar.values, trainable=True),
                      T.Tensor(d.c_bar.values, trainable=True),
                      T.Tensor(d.d_bar.values, trainable=True), d.method)
    s0 = T.Rng(12).gaussian((5, 2))
    probe = T.Rng(13).gaussian((5, 2))

    s = T.Tensor(s0, dtype=F64, trainable=True)
    with T.Tape():
        loss = (S.ssm_apply(s, d) * T.Tensor(probe, dtype=F64)).sum()
    g = T.backward(loss)

    def loss_at(values, which):
        parts = {"s": s0, "a": d.a_bar.values, "b": d.b_bar.values}
        parts[which] = values
        dd = S.DiscreteSSM(T.Tensor(parts["a"], dtype=F64),
                           T.Tensor(parts["b"], dtype=F64), d.c_bar, d.d_bar,
                           d.method)
        out = S.ssm_apply(T.Tensor(parts["s"], dtype=F64), dd).values
        return float((out * probe).sum())

    for which, tensor in (("s", s), ("a", d.a_bar), ("b", d.b_bar)):
        fd = O.central_difference(lambda v: loss_at(v, which),
                                  {"s": s0, "a": d.a_bar.values,
                                   "b": d.b_bar.values}[which].copy())
        assert O.relative_gradient_error(g[tensor].values, fd) < 1e-5, which


# ---------------------------------------------------------------------------
# taps
# ---------------------------------------------------------------------------


def impulse_response(dssm, n):
    """Outputs (n, d_in, d_in) of one pass whose group c holds a unit
    impulse in channel c: the taps, with Dbar joining the first."""
    d = dssm.d_in
    s = np.zeros((n, d * d))
    s[0, np.arange(d) * (d + 1)] = 1.0
    return scan_np(dssm, s).reshape(n, d, d)


def test_kernel_single_tap():
    d = random_dssm(2, 3, seed=14)
    np.testing.assert_allclose(impulse_response(d, 1)[0],
                               d.b_bar.values @ d.c_bar.values
                               + d.d_bar.values)


@pytest.mark.parametrize("method", S.METHODS)
def test_conv_equals_scan(method):
    """Two 16-position blocks against the pinned recurrence."""
    d = random_dssm(3, 6, seed=15, method=method)
    s = T.Rng(16).gaussian((32, 3))
    scan = pinned_scan_recurrent(d, T.Tensor(s, dtype=F64)).values
    assert np.max(np.abs(scan_np(d, s) - scan)) < 1e-6


def test_conv_equals_scan_nondiagonal():
    d = random_dssm(2, 4, seed=17, init="random", method="bilinear")
    s = T.Rng(18).gaussian((20, 2))
    scan = pinned_scan_recurrent(d, T.Tensor(s, dtype=F64)).values
    assert np.max(np.abs(scan_np(d, s) - scan)) < 1e-6


def test_diagonal_kernel_matches_dense_powers():
    d = random_dssm(2, 4, seed=19)  # diag-uniform -> diagonal a_bar
    taps = impulse_response(d, 8) - np.eye(8)[:, :1, None] * d.d_bar.values
    a, b, c = (d.a_bar.values, d.b_bar.values, d.c_bar.values)
    p = b.copy()
    for t in range(8):
        np.testing.assert_allclose(taps[t], p @ c, atol=1e-12)
        p = p @ a


def test_method_consistency_as_dt_shrinks():
    rng = T.Rng(21)
    a = np.diag(-(0.1 + 0.9 * rng.uniform(3)))
    b, c = rng.gaussian((2, 3)), rng.gaussian((3, 2))
    s = rng.gaussian((10, 2))
    gaps = []
    for dt in (0.2, 0.1, 0.05):
        cont = S.ContinuousSSM(a, b, c, np.eye(2), dt)
        outs = [scan_np(S.discretize(cont, m), s) for m in S.METHODS]
        gaps.append(max(np.max(np.abs(outs[i] - outs[j]))
                        for i in range(3) for j in range(i + 1, 3)))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------


def test_eigendecomposition_reconstruction():
    """The system in its eigenbasis, stepped one position at a time through
    ``carry``, gives the dense system's full pass."""
    rng = T.Rng(24)
    g = rng.gaussian((4, 4))
    dense = S.DiscreteSSM(T.Tensor(0.3 * (g + g.T) / 2.0),
                          T.Tensor(rng.gaussian((2, 4))),
                          T.Tensor(rng.gaussian((4, 2))),
                          T.Tensor(rng.gaussian((2, 2))), "zoh")
    diag = O.diagonalize(dense)
    assert np.count_nonzero(diag.a_bar.values - np.diag(np.diagonal(
        diag.a_bar.values))) == 0
    s = rng.gaussian((20, 2))
    carry = [np.zeros((1, 4))]
    steps = [S.ssm_apply(T.Tensor(s[t:t + 1]), diag, carry).values
             for t in range(len(s))]
    assert np.max(np.abs(np.vstack(steps) - scan_np(dense, s))) < 1e-10


# ---------------------------------------------------------------------------
# per-column sub-layer wiring
# ---------------------------------------------------------------------------


def test_sublayer_scan_equals_per_column_loop():
    dssm = S.init_ssm_sublayer(d_state=4, dt=0.1, method="zoh",
                               init="diag-uniform", rng=T.Rng(25))
    h = T.Rng(26).gaussian((7, 5))
    got = S.ssm_sublayer_scan(T.Tensor(h, dtype=F64), dssm).values
    for col in range(5):
        want = scan_np(dssm, h[:, col:col + 1])
        np.testing.assert_allclose(got[:, col:col + 1], want, atol=1e-10)


def test_groups_of_columns_run_as_separate_sequences():
    """A MIMO system over g = 3 groups of d_in = 2 columns, carried over a
    split, equals each group run alone in one pass."""
    d = random_dssm(2, 4, seed=30)
    s = T.Rng(31).gaussian((2, 21, 6))
    carry = [np.zeros((2, 3, 4))]
    got = np.concatenate([S.ssm_apply(T.Tensor(s[:, :17]), d, carry).values,
                          S.ssm_apply(T.Tensor(s[:, 17:]), d, carry).values],
                         axis=1)
    for row in range(2):
        for grp in range(3):
            cols = slice(2 * grp, 2 * grp + 2)
            np.testing.assert_allclose(got[row, :, cols],
                                       scan_np(d, s[row, :, cols]), atol=1e-12)


def test_sublayer_requires_siso():
    d = random_dssm(2, 3, seed=27)
    with pytest.raises(T.ShapeError):
        S.ssm_sublayer_scan(T.zeros((4, 2), dtype=F64), d)


def test_sublayer_gradient_reaches_parameters():
    dssm = S.init_ssm_sublayer(4, 0.1, "euler", "diag-uniform", T.Rng(28))
    h = T.Tensor(T.Rng(29).gaussian((5, 3)), dtype=F64)
    with T.Tape():
        loss = S.ssm_sublayer_scan(h, dssm).sum()
    g = T.backward(loss)
    for _, t in dssm.named("ssm"):
        assert g.get(t) is not None
        assert np.all(np.isfinite(g[t].values))
