"""Kernelized attention (whole sequences, carried spans, and the block
form against the per-position prefix sums it replaced) and low-rank
reductions."""

import numpy as np
import pytest

from seqlab import attention as A
from seqlab import efficient as EF
from seqlab import model as M
from seqlab import oracles as O
from seqlab import runtime as R
from seqlab import tensor as T
from seqlab.embedding import Vocab

from test_model import DECODE_VARIANTS

F64 = np.float64
ALL_MAPS = [EF.FeatureMap(k) for k in EF.FEATURE_KINDS]


def rand(shape, seed):
    return T.Rng(seed).gaussian(shape)


# ---------------------------------------------------------------------------
# kernelized attention
# ---------------------------------------------------------------------------


def test_single_pair_any_feature_map():
    v = T.Tensor([[2.0, -1.0, 3.0]], dtype=F64)
    for phi in ALL_MAPS:
        q = T.Tensor([[0.5, 1.5]], dtype=F64)
        k = T.Tensor([[1.0, 0.2]], dtype=F64)
        out = EF.kernelized_attention(q, k, v, phi)
        np.testing.assert_allclose(out.values, v.values, atol=1e-12)


def two_op_elu_plus_one(x):
    """elu(x) + 1 as two taped ops: elu, then an add of the constant."""
    av = x.values
    elu = T.relayout(
        x, lambda a: np.where(a > 0, a, 1.0 * np.expm1(a)).astype(a.dtype),
        lambda g: g * np.where(av > 0, 1.0, 1.0 * np.exp(av)).astype(av.dtype))
    return elu + 1.0


@pytest.mark.parametrize("dtype", [np.float32, F64], ids=["float32", "float64"])
def test_elu_plus_one_is_bitwise_the_two_op_form(dtype):
    """The default feature map is one op: its values and gradients are
    the bits of elu followed by an add."""
    x = np.concatenate([rand((3, 40), 50) * 4.0,
                        [[0.0, -0.0, 1e-30, -1e-30, 80.0, -80.0, 3.5, -3.5]]],
                       axis=None).reshape(4, 32)
    probe = T.Tensor(rand((4, 32), 51), dtype=dtype)
    results = []
    for phi in (EF.FeatureMap("elu_plus_one"), two_op_elu_plus_one):
        t = T.Tensor(x, dtype=dtype, trainable=True)
        with T.Tape() as tape:
            out = phi(t)
            loss = T.reduce_sum(out * probe)
        results.append((out.values.tobytes(), T.backward(loss)[t].values.tobytes()))
        tape.release()
    assert results[0] == results[1]


def test_causal_matches_naive_kernel_loop():
    n, d = 8, 4
    q, k, v = (T.Tensor(rand((n, d), s), dtype=F64) for s in (1, 2, 3))
    phi = EF.FeatureMap()
    got = EF.kernelized_attention(q, k, v, phi, causal=True)
    want = O.kernel_attention_loop(q.values, k.values, v.values,
                                   phi.apply_np, causal=True)
    assert np.max(np.abs(got.values - want)) < 1e-6


def test_batch_matches_naive_kernel_loop():
    n, d = 7, 5
    q, k, v = (T.Tensor(rand((n, d), s), dtype=F64) for s in (4, 5, 6))
    phi = EF.FeatureMap()
    got = EF.kernelized_attention(q, k, v, phi)
    want = O.kernel_attention_loop(q.values, k.values, v.values,
                                   phi.apply_np, causal=False)
    assert np.max(np.abs(got.values - want)) < 1e-6


def test_implicit_weights_nonnegative():
    # outputs stay in the convex hull of values for a constant-column V probe
    n, d = 6, 3
    q = T.Tensor(rand((n, d), 7), dtype=F64)
    k = T.Tensor(rand((n, d), 8), dtype=F64)
    v = T.ones((n, 1), dtype=F64)
    for phi in (EF.FeatureMap(), EF.FeatureMap("identity_positive_clip")):
        out = EF.kernelized_attention(q, k, v, phi, causal=True)
        np.testing.assert_allclose(out.values, 1.0, atol=1e-12)


def test_relu_zero_denominator_raises():
    q = T.Tensor([[-1.0, -2.0]], dtype=F64)  # relu(q) = 0
    k = T.Tensor([[-3.0, -4.0]], dtype=F64)
    v = T.Tensor([[1.0, 1.0]], dtype=F64)
    with pytest.raises(EF.DegenerateQueryError):
        EF.kernelized_attention(q, k, v, EF.FeatureMap("relu"))


def test_kernel_gradient_vs_finite_difference():
    n, d = 5, 3
    x0 = rand((n, d), 9)
    probe = rand((n, d), 10)
    phi = EF.FeatureMap()

    x = T.Tensor(x0, dtype=F64, trainable=True)
    with T.Tape():
        out = EF.kernelized_attention(x, x, x, phi, causal=True)
        loss = (out * T.Tensor(probe, dtype=F64)).sum()
    analytic = T.backward(loss)[x].values

    def f(a):
        t = T.Tensor(a, dtype=F64)
        return float((EF.kernelized_attention(t, t, t, phi, causal=True)
                      .values * probe).sum())

    fd = O.central_difference(f, x0.copy())
    assert O.relative_gradient_error(analytic, fd) < 1e-5


def test_work_counter_is_linear_in_n():
    d = 8
    for causal in (True, False):
        ratios = []
        for n in (16, 32, 64):
            q, k, v = (T.Tensor(rand((n, d), s), dtype=F64) for s in (11, 12, 13))
            c = A.OpCounter()
            EF.kernelized_attention(q, k, v, causal=causal, counter=c)
            ratios.append(c.multiply_adds / (n * d * d))
        for r in ratios[1:]:
            assert abs(r - ratios[0]) <= 0.1 * ratios[0]
    # dense comparison point: quadratic in n
    c_dense = A.OpCounter()
    n = 64
    q = T.Tensor(rand((n, d), 14), dtype=F64)
    A.qkv_attention(q, q, q, A.causal_mask(n), counter=c_dense)
    assert c_dense.multiply_adds / (n * n * d) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# carried prefix sums
# ---------------------------------------------------------------------------


def rows(x, lo, hi):
    return T.Tensor(x[lo:hi], dtype=F64)


@pytest.mark.parametrize("phi", ALL_MAPS, ids=EF.FEATURE_KINDS)
def test_streaming_equals_batch_causal(phi):
    n, d = 16, 4
    q, k, v = (rand((n, d), s) + 0.5 for s in (15, 16, 17))
    batch = EF.kernelized_attention(T.Tensor(q, dtype=F64),
                                    T.Tensor(k, dtype=F64),
                                    T.Tensor(v, dtype=F64), phi, causal=True)
    carry = [np.zeros((d, d)), np.zeros(d)]
    for j in range(n):
        out = EF.kernelized_attention(*(rows(x, j, j + 1) for x in (q, k, v)),
                                      phi, causal=True, carry=carry)
        assert np.max(np.abs(out.values[0] - batch.values[j])) < 1e-6
    # the carried sums are those of the whole sequence
    np.testing.assert_allclose(carry[1], phi.apply_np(k).sum(axis=0),
                               atol=1e-12)


def test_carried_blocks_equal_the_batch_and_take_no_gradient_back():
    n, d, cut = 9, 3, 4
    phi = EF.FeatureMap()
    q, k, v = (rand((n, d), s) for s in (30, 31, 32))
    whole = [T.Tensor(x, dtype=F64, trainable=True) for x in (q, k, v)]
    with T.Tape():
        want = EF.kernelized_attention(*whole, phi, causal=True)
        g_want = T.backward(T.reduce_sum(T.take(want, slice(cut, n))))
    carry = [np.zeros((d, d)), np.zeros(d)]
    EF.kernelized_attention(*(rows(x, 0, cut) for x in (q, k, v)), phi,
                            causal=True, carry=carry)
    tail = [T.Tensor(x[cut:], dtype=F64, trainable=True) for x in (q, k, v)]
    with T.Tape():
        got = EF.kernelized_attention(*tail, phi, causal=True, carry=carry)
        g_got = T.backward(T.reduce_sum(got))
    assert np.max(np.abs(got.values - want.values[cut:])) < 1e-12
    # the earlier positions enter as constants: the tail's gradients are
    # those of the same loss over the whole sequence
    for part, full in zip(tail, whole):
        assert np.max(np.abs(g_got[part].values
                             - g_want[full].values[cut:])) < 1e-12


def test_stream_zero_denominator():
    carry = [np.zeros((2, 2)), np.zeros(2)]
    q, k, v = ([[-1.0, -1.0]], [[-1.0, -1.0]], [[1.0, 1.0]])
    with pytest.raises(EF.DegenerateQueryError):
        EF.kernelized_attention(*(T.Tensor(x, dtype=F64) for x in (q, k, v)),
                                EF.FeatureMap("relu"), causal=True,
                                carry=carry)
    # a refused block leaves the carried sums as they were
    assert not carry[0].any() and not carry[1].any()


# ---------------------------------------------------------------------------
# the block form against the per-position prefix sums it replaced
# ---------------------------------------------------------------------------


def pinned_kernelized_attention(q, k, v, phi=None, causal=False, counter=None,
                                carry=None):
    """kernelized_attention as it was before the block form: a causal pass
    built the (..., n, d', d_v) outer products phi(k)^T v and took their
    prefix sums position by position (T.cumsum then; a loop of taped adds
    in the same order here, so values and gradients are the old bits).
    ``counter`` is accepted and ignored."""
    phi = phi or EF.FeatureMap()
    lead = q.shape[:-2]
    n, d_p = q.shape[-2:]
    d_v = v.shape[-1]
    qp, kp = phi(q), phi(k)
    if not causal:
        numer = T.matmul(qp, T.matmul(T.transpose(kp), v))
        ksum = T.reduce_sum(kp, axis=-2, keepdims=True)
        den = T.matmul(qp, T.transpose(ksum))
        EF._check_denominator(den.values)
        return numer / den

    def prefix(x, axis):
        at = lambda i: (Ellipsis, slice(i, i + 1)) + (slice(None),) * (-1 - axis)
        sums = [T.take(x, at(0))]
        for i in range(1, n):
            sums.append(sums[-1] + T.take(x, at(i)))
        return T.concat(sums, axis=axis)

    outer = T.reshape(kp, lead + (n, d_p, 1)) * T.reshape(v, lead + (n, 1, d_v))
    mu, nu = prefix(outer, -3), prefix(kp, -2)
    if carry is not None:
        mu = mu + T.Tensor(carry[0][..., None, :, :])
        nu = nu + T.Tensor(carry[1][..., None, :])
    numer = T.reduce_sum(T.reshape(qp, lead + (n, d_p, 1)) * mu, axis=-2)
    den = T.reduce_sum(qp * nu, axis=-1, keepdims=True)
    EF._check_denominator(den.values)
    if carry is not None:
        carry[:] = [mu.values[..., -1, :, :].copy(), nu.values[..., -1, :].copy()]
    return numer / den


# float64: the largest difference measured is 3.2e-15 (values and gradients,
# relative to max(1, largest entry)); float32: 3.0e-7 on values and 7.2e-7
# on gradients, so 2e-6 is pinned
TOL = {np.float64: 1e-12, np.float32: 2e-6}


def off(a, b):
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))


def values_and_grads(fn, xs, dtype, probe, **kw):
    leaves = [T.Tensor(x, dtype=dtype, trainable=True) for x in xs]
    with T.Tape():
        out = fn(*leaves, **kw)
        grads = T.backward(T.reduce_sum(out * T.Tensor(probe, dtype=dtype)))
    return [out.values] + [grads[x].values for x in leaves]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("phi", ALL_MAPS, ids=EF.FEATURE_KINDS)
@pytest.mark.parametrize("shape,causal", [
    ((1, 6), True), ((15, 6), True), ((16, 6), True), ((17, 6), True),
    ((64, 6), True), ((2, 3, 37, 6), True),            # (..., tau, m, d_h)
    ((1, 6), False), ((17, 6), False), ((2, 3, 37, 6), False)])
def test_block_form_equals_the_pinned_prefix_sums(shape, causal, phi, dtype):
    xs = [rand(shape, s) + 1.0 for s in (41, 42, 43)]  # relu rows stay > 0
    probe = rand(shape, 44)
    got = values_and_grads(EF.kernelized_attention, xs, dtype, probe,
                           phi=phi, causal=causal)
    want = values_and_grads(pinned_kernelized_attention, xs, dtype, probe,
                            phi=phi, causal=causal)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and off(g, w) < TOL[dtype]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("phi", ALL_MAPS, ids=EF.FEATURE_KINDS)
def test_carried_spans_equal_the_pinned_prefix_sums(phi, dtype):
    """Spans that start and end inside blocks of 16, a lone position
    among them, carry the same sums and gradients as before."""
    lead, n, d = (2, 3), 41, 5
    xs = [rand(lead + (n, d), s) + 1.0 for s in (45, 46, 47)]
    probe = rand(lead + (n, d), 48)
    cuts = [0, 5, 21, 40, 41]
    carries = [[np.zeros(lead + (d, d), dtype), np.zeros(lead + (d,), dtype)]
               for _ in range(2)]
    for lo, hi in zip(cuts, cuts[1:]):
        span = [x[..., lo:hi, :] for x in xs]
        got, want = (values_and_grads(fn, span, dtype, probe[..., lo:hi, :],
                                      phi=phi, causal=True, carry=carry)
                     for fn, carry in zip((EF.kernelized_attention,
                                           pinned_kernelized_attention),
                                          carries))
        for g, w in zip(got, want):
            assert off(g, w) < TOL[dtype]
        for g, w in zip(*carries):
            assert g.shape == w.shape and off(g, w) < TOL[dtype]


LINEAR = [kw for kw in DECODE_VARIANTS if kw.get("attention") == "linear"]
VOCAB = Vocab.from_text("abcdefgh")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kw", LINEAR, ids=[str(sorted(k.items())) for k in LINEAR])
def test_search_tokens_equal_the_pinned_prefix_sums(kw, dtype, monkeypatch):
    """A prompt block of 8 positions, then one-id steps (greedy) or
    batched rows (beam-4) past the first block of 16."""
    model = M.Model.init(M.ModelConfig(d=16, n_layers=2, tau=2, d_ffn=32, **kw),
                         VOCAB, seed=0, dtype=dtype)
    prompt = VOCAB.encode("cabbage")

    def search():
        greedy = R.greedy_generate(model, prompt, R.SearchConfig(n_max=20))
        beam = R.beam_search(model, prompt, R.SearchConfig(beam=4, n_max=20))
        return greedy, [h.tokens for h in beam]

    got = search()
    monkeypatch.setattr(EF, "kernelized_attention", pinned_kernelized_attention)
    assert got == search()


# ---------------------------------------------------------------------------
# low-rank reductions
# ---------------------------------------------------------------------------


def test_length_identity_projection_is_vanilla():
    n, d = 6, 4
    q, k, v = (T.Tensor(rand((n, d), s), dtype=F64) for s in (20, 21, 22))
    proj = EF.LowRankProjections(u_k=T.eye(n, dtype=F64), u_v=T.eye(n, dtype=F64))
    got = EF.lowrank_length_attention(q, k, v, proj)
    want = A.qkv_attention(q, k, v)
    np.testing.assert_allclose(got.values, want.values, atol=1e-12)


def test_length_reduction_shapes():
    n, n_r, d = 8, 3, 4
    k = T.Tensor(rand((n, d), 23), dtype=F64)
    v = T.Tensor(rand((n, d), 24), dtype=F64)
    proj = EF.LowRankProjections(u_k=T.Tensor(rand((n_r, n), 25), dtype=F64),
                                 u_v=T.Tensor(rand((n_r, n), 26), dtype=F64))
    k_r, v_r = EF.reduce_length(k, v, proj)
    assert k_r.shape == (n_r, d) and v_r.shape == (n_r, d)


def test_strided_mean_conv_is_pairwise_mean():
    n, d = 8, 3
    k = T.Tensor(rand((n, d), 27), dtype=F64)
    v = T.Tensor(rand((n, d), 28), dtype=F64)
    u = T.Tensor(np.kron(np.eye(n // 2), [[0.5, 0.5]]))    # pairwise means
    proj = EF.LowRankProjections(u_k=u, u_v=u)
    k_r, _ = EF.reduce_length(k, v, proj)
    want = (k.values[0::2] + k.values[1::2]) / 2.0
    np.testing.assert_allclose(k_r.values, want, atol=1e-12)


def test_length_reduction_rejects_causal():
    n, d = 4, 2
    q = T.zeros((n, d), dtype=F64)
    u = T.eye(n, dtype=F64)
    proj = EF.LowRankProjections(u_k=u, u_v=u)
    with pytest.raises(ValueError):
        EF.lowrank_length_attention(q, q, q, proj, causal=True)


def reduced_params(d, tau, d_r, seed, identity=False):
    """Attention params of width d and tau heads, and the same projections
    with their query/key heads reduced to d_r columns."""
    plain = A.AttentionParams.init(d, tau, T.Rng(seed), dtype=F64)
    d_h = d // tau
    proj = EF.LowRankProjections(
        u_q=T.eye(d_h, dtype=F64) if identity
        else T.Tensor(rand((d_h, d_r), seed + 1), dtype=F64),
        u_kd=T.eye(d_h, dtype=F64) if identity
        else T.Tensor(rand((d_h, d_r), seed + 2), dtype=F64))
    reduced = A.AttentionParams(d, tau, plain.w_qkv, plain.w_out, proj)
    return plain, reduced


def test_width_identity_is_vanilla_logits():
    plain, reduced = reduced_params(8, 2, 4, 29, identity=True)
    h = T.Tensor(rand((5, 8), 30), dtype=F64)
    mask = A.causal_mask(5)
    np.testing.assert_allclose(A.self_attention(h, reduced, mask).values,
                               A.self_attention(h, plain, mask).values,
                               atol=1e-12)


def test_width_reduction_rank_bound():
    n, d, d_r = 10, 8, 3
    q = T.Tensor(rand((n, d), 32), dtype=F64)
    k = T.Tensor(rand((n, d), 33), dtype=F64)
    proj = EF.LowRankProjections(u_q=T.Tensor(rand((d, d_r), 34), dtype=F64),
                                 u_kd=T.Tensor(rand((d, d_r), 35), dtype=F64))
    q_r, k_r = EF.reduce_width(q, k, proj)
    logits = q_r.values @ k_r.values.T
    assert logits.shape == (n, n)
    assert np.linalg.matrix_rank(logits) <= d_r


def test_width_reduction_keeps_the_sqrt_d_temperature():
    """The op scores the reduced heads Q_j U^q, K_j U^kd at the full
    heads' 1/sqrt(d_h), not 1/sqrt(d')."""
    d, tau, d_r = 8, 2, 2
    plain, reduced = reduced_params(d, tau, d_r, 36)
    h = T.Tensor(rand((4, d), 39), dtype=F64)
    q, k, v = plain.heads(h)
    q_r, k_r = EF.reduce_width(q, k, reduced.reduce)
    got = A.self_attention(h, reduced).values

    def merged(scale):
        return plain.merge(A.qkv_attention(q_r, k_r, v, scale=scale)).values

    np.testing.assert_allclose(got, merged(np.sqrt(d // tau)), atol=1e-12)
    assert np.max(np.abs(got - merged(np.sqrt(d_r)))) > 1e-8


def test_reduce_width_cuts_heads_from_a_fused_block():
    """reduce_width on column blocks of one fused projection equals it on
    split heads, merged: values and the gradients of x, U^q and U^kd."""
    tau, d_h, d_r = 3, 4, 2
    x = T.Tensor(rand((2, 5, 3 * tau * d_h), 44), dtype=F64, trainable=True)
    proj = EF.LowRankProjections(
        u_q=T.Tensor(rand((d_h, d_r), 45), dtype=F64, trainable=True),
        u_kd=T.Tensor(rand((d_h, d_r), 46), dtype=F64, trainable=True))
    cols = (0, tau * d_h), (tau * d_h, 2 * tau * d_h)
    probe = T.Tensor(rand((2, 5, tau * d_r), 47), dtype=F64)

    def merged(t):
        shape = t.shape
        return T.relayout(t, lambda a: a.swapaxes(-2, -3).reshape(
            shape[:-3] + (shape[-2], shape[-3] * shape[-1])),
            lambda g: T.head_view(g, shape[-3]))

    def fused():
        return EF.reduce_width(x, x, proj, (tau, tau), cols)

    def split():
        q, k = EF.reduce_width(A.split_heads(x, tau, cols[0]),
                               A.split_heads(x, tau, cols[1]), proj)
        return merged(q), merged(k)

    results = []
    for build in (fused, split):
        with T.Tape():
            q_r, k_r = build()
            loss = T.reduce_sum(q_r * probe) + T.reduce_sum(k_r * k_r)
        grads = T.backward(loss)
        results.append([q_r.values, k_r.values]
                       + [grads[t].values for t in (x, proj.u_q, proj.u_kd)])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
