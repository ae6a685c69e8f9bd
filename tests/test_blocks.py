"""Sub-layer machinery: LN, FFN, residual wrappers, RK, fusion, MoE, sharing."""

import numpy as np
import pytest

from seqlab import blocks as B
from seqlab import oracles as O
from seqlab import tensor as T

F64 = np.float64

# 4 x 3 normalization example with printed one-decimal statistics
LN_INPUT = np.array([
    [1.0, 1.0, 2.0],
    [0.9, 0.9, 0.0],
    [0.7, 0.8, 0.0],
    [3.0, 1.0, 7.0],
])
LN_PRINTED_STATS = np.array([
    [1.3, 0.5],
    [0.6, 0.4],
    [0.5, 0.4],
    [3.7, 2.5],
])
LN_PRINTED_ROWS = np.array([
    [-0.5, -0.5, 7.0 / 6.0],
    [0.6, 0.6, -1.2],
    [0.4, 0.6, -1.0],
    [-0.7 / 2.6, -2.7 / 2.6, 3.3 / 2.6],
])


def ln_identity(d, eps=1e-5, dtype=F64):
    return B.LNParams.init(d, eps=eps, dtype=dtype)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------


def test_row_stats_match_printed_values():
    mu, sigma = B.row_stats(T.Tensor(LN_INPUT, dtype=F64))
    got = np.concatenate([mu.values, sigma.values], axis=1)
    assert np.max(np.abs(got - LN_PRINTED_STATS)) <= 0.05


def test_normalize_with_rounded_stats_matches_printed_rows():
    params = ln_identity(3, eps=0.1)
    out = B.normalize(T.Tensor(LN_INPUT, dtype=F64),
                      LN_PRINTED_STATS[:, :1], LN_PRINTED_STATS[:, 1:], params)
    assert np.max(np.abs(out.values - LN_PRINTED_ROWS)) <= 0.05


def test_exact_path_deviates_only_through_stat_rounding():
    # full-precision statistics drift from the printed one-decimal ones by
    # just under 0.05, which pushes a few cells slightly past that band;
    # the worst cell sits at ~0.097
    out = B.layer_norm(T.Tensor(LN_INPUT, dtype=F64), ln_identity(3, eps=0.1))
    dev = np.max(np.abs(out.values - LN_PRINTED_ROWS))
    assert 0.05 < dev <= 0.1


def test_constant_row_returns_bias():
    params = B.LNParams(T.Tensor(np.full(4, 2.0), dtype=F64),
                        T.Tensor(np.array([1.0, -1.0, 0.5, 0.0]), dtype=F64),
                        eps=0.01)
    out = B.layer_norm(T.full((2, 4), 3.3, dtype=F64), params)
    np.testing.assert_array_equal(out.values, np.tile(params.b.values, (2, 1)))


def test_moments_standardized():
    h = T.Tensor(T.Rng(1).gaussian((1, 256)), dtype=F64)
    out = B.layer_norm(h, ln_identity(256, eps=1e-9)).values
    assert abs(out.mean()) < 1e-6
    assert abs(out.std()) == pytest.approx(1.0, abs=1e-3)


def test_shift_invariance_with_zero_bias():
    h = T.Tensor(T.Rng(2).gaussian((3, 8)), dtype=F64)
    params = ln_identity(8)
    base = B.layer_norm(h, params).values
    shifted = B.layer_norm(h + 5.0, params).values
    np.testing.assert_allclose(shifted, base, atol=1e-9)


def test_scale_invariance_at_vanishing_eps():
    h = T.Tensor(T.Rng(3).gaussian((3, 8)), dtype=F64)
    params = ln_identity(8, eps=1e-300)  # positive but negligible
    base = B.layer_norm(h, params).values
    scaled = B.layer_norm(h * 7.5, params).values
    np.testing.assert_allclose(scaled, base, atol=1e-12)


def test_denominator_is_sigma_plus_eps():
    h = T.Tensor(T.Rng(4).gaussian((2, 6)), dtype=F64)
    plain = ln_identity(6, eps=0.04)
    mu, sigma = B.row_stats(h)
    want = (h.values - mu.values) / (sigma.values + 0.04)
    conventional = (h.values - mu.values) / np.sqrt(sigma.values ** 2 + 0.04)
    np.testing.assert_allclose(B.layer_norm(h, plain).values, want, atol=1e-12)
    assert np.max(np.abs(B.layer_norm(h, plain).values - conventional)) > 1e-4


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        B.LNParams(T.ones(3, dtype=F64), T.zeros(3, dtype=F64), eps=0.0)


def test_layer_norm_gradient():
    x0 = T.Rng(5).gaussian((3, 5))
    probe = T.Rng(6).gaussian((3, 5))
    params = ln_identity(5, eps=0.1)

    x = T.Tensor(x0, dtype=F64, trainable=True)
    with T.Tape():
        loss = (B.layer_norm(x, params) * T.Tensor(probe, dtype=F64)).sum()
    analytic = T.backward(loss)[x].values

    def f(v):
        out = B.layer_norm(T.Tensor(v, dtype=F64), params).values
        return float((out * probe).sum())

    fd = O.central_difference(f, x0.copy())
    assert O.relative_gradient_error(analytic, fd) < 1e-6


# ---------------------------------------------------------------------------
# ffn
# ---------------------------------------------------------------------------


def test_ffn_zero_outer_weights_give_bias():
    d = 4
    p = B.FFNParams.init(d, rng=T.Rng(7), dtype=F64)
    zeroed = B.FFNParams(p.w_h, p.b_h, T.zeros((p.w_f.shape), dtype=F64),
                         T.Tensor(np.arange(float(d)), dtype=F64))
    out = B.ffn(T.Tensor(T.Rng(8).gaussian((3, d)), dtype=F64), zeroed)
    np.testing.assert_array_equal(out.values,
                                  np.tile(np.arange(float(d)), (3, 1)))


def test_ffn_dead_hidden_gives_bias():
    d = 3
    p = B.FFNParams(T.eye(d, dtype=F64) * 0.0 + T.eye(d, dtype=F64),
                    T.full((d,), -100.0, dtype=F64),
                    T.Tensor(T.Rng(9).gaussian((d, d)), dtype=F64),
                    T.Tensor(np.array([5.0, 6.0, 7.0]), dtype=F64))
    out = B.ffn(T.Tensor(T.Rng(10).gaussian((2, d)), dtype=F64), p)
    np.testing.assert_array_equal(out.values, np.tile([5.0, 6.0, 7.0], (2, 1)))


def test_ffn_default_hidden_width():
    p = B.FFNParams.init(6, rng=T.Rng(11))
    assert p.w_h.shape == (6, 24) and p.w_f.shape == (24, 6)
    out = B.ffn(T.zeros((2, 6)), p)
    assert out.shape == (2, 6)


def test_ffn_gradient():
    d = 4
    p = B.FFNParams.init(d, 8, rng=T.Rng(12), dtype=F64)
    x0 = T.Rng(13).gaussian((3, d))
    probe = T.Rng(14).gaussian((3, d))

    x = T.Tensor(x0, dtype=F64, trainable=True)
    with T.Tape():
        loss = (B.ffn(x, p) * T.Tensor(probe, dtype=F64)).sum()
    g = T.backward(loss)

    def f(v):
        return float((B.ffn(T.Tensor(v, dtype=F64), p).values * probe).sum())

    fd = O.central_difference(f, x0.copy())
    assert O.relative_gradient_error(g[x].values, fd) < 1e-6
    assert g.get(p.w_h) is not None and g.get(p.b_f) is not None


# ---------------------------------------------------------------------------
# residual wrappers
# ---------------------------------------------------------------------------


def make_core(d, seed):
    p = B.FFNParams.init(d, 2 * d, rng=T.Rng(seed), dtype=F64)
    return lambda z: B.ffn(z, p)


def test_post_and_pre_reductions():
    d = 6
    core = make_core(d, 15)
    ln = ln_identity(d)
    z = T.Tensor(T.Rng(16).gaussian((4, d)), dtype=F64)
    post = B.sublayer_apply(z, core, ln, B.SublayerConfig("post"))
    np.testing.assert_allclose(post.values,
                               B.layer_norm(core(z) + z, ln).values, atol=1e-12)
    pre = B.sublayer_apply(z, core, ln, B.SublayerConfig("pre"))
    np.testing.assert_allclose(pre.values,
                               (B.layer_norm(core(z), ln) + z).values, atol=1e-12)
    w10 = B.sublayer_apply(z, core, ln,
                           B.SublayerConfig("weighted", beta=1.0, gamma=0.0))
    np.testing.assert_allclose(w10.values, post.values, atol=1e-12)
    w01 = B.sublayer_apply(z, core, ln,
                           B.SublayerConfig("weighted", beta=0.0, gamma=1.0))
    np.testing.assert_allclose(w01.values, pre.values, atol=1e-12)


def test_zero_core_pre_norm_adds_ln_bias():
    d = 4
    ln = B.LNParams(T.ones(d, dtype=F64),
                    T.Tensor(np.array([0.1, 0.2, 0.3, 0.4]), dtype=F64),
                    eps=0.01)
    z = T.Tensor(T.Rng(17).gaussian((3, d)), dtype=F64)
    out = B.sublayer_apply(z, lambda x: x * 0.0, ln, B.SublayerConfig("pre"))
    np.testing.assert_allclose(out.values, z.values + ln.b.values, atol=1e-12)


def test_weighted_wrapper_is_continuous_in_beta_gamma():
    d = 5
    core = make_core(d, 18)
    ln = ln_identity(d)
    z = T.Tensor(T.Rng(19).gaussian((3, d)), dtype=F64)

    def at(beta, gamma):
        cfg = B.SublayerConfig("weighted", beta=beta, gamma=gamma)
        return B.sublayer_apply(z, core, ln, cfg).values

    base = at(0.7, 0.4)
    for eps in (1e-3, 1e-4, 1e-5):
        delta = np.max(np.abs(at(0.7 + eps, 0.4 + eps) - base))
        assert delta < 50 * eps


def test_weighted_requires_both_weights():
    with pytest.raises(B.ConfigurationError):
        B.SublayerConfig("weighted", beta=0.5)


# ---------------------------------------------------------------------------
# runge-kutta sub-layers
# ---------------------------------------------------------------------------


def test_rk_zero_field_is_identity():
    z = T.Tensor(T.Rng(20).gaussian((3, 4)), dtype=F64)
    for order in (1, 2, 4):
        out = B.rk_sublayer(z, lambda x: x * 0.0, order=order)
        np.testing.assert_array_equal(out.values, z.values)


def test_rk1_equals_pre_norm_sublayer():
    d = 6
    core = make_core(d, 21)
    ln = ln_identity(d)
    z = T.Tensor(T.Rng(22).gaussian((4, d)), dtype=F64)
    rk = B.rk_sublayer(z, lambda x: B.layer_norm(core(x), ln), order=1, h=1.0)
    pre = B.sublayer_apply(z, core, ln, B.SublayerConfig("pre"))
    np.testing.assert_allclose(rk.values, pre.values, atol=1e-12)


def rk_error(order, h, lam=-0.3):
    z = T.Tensor(np.array([[1.0]]), dtype=F64)
    stepped = B.rk_sublayer(z, lambda x: x * lam, order=order, h=h)
    return abs(float(stepped.values[0, 0]) - float(np.exp(lam * h)))


@pytest.mark.parametrize("order,expected", [(1, 4.0), (2, 8.0), (4, 32.0)])
def test_rk_local_error_order(order, expected):
    ratio = rk_error(order, 0.5) / rk_error(order, 0.25)
    assert abs(ratio - expected) <= 0.2 * expected


def test_rk_invalid_order():
    with pytest.raises(B.ConfigurationError):
        B.rk_sublayer(T.zeros((1, 2), dtype=F64), lambda x: x, order=3)


def test_rk4_gradient():
    d = 4
    core = make_core(d, 23)
    ln = ln_identity(d)
    f = lambda x: B.layer_norm(core(x), ln)
    x0 = T.Rng(24).gaussian((2, d))
    probe = T.Rng(25).gaussian((2, d))

    x = T.Tensor(x0, dtype=F64, trainable=True)
    with T.Tape():
        loss = (B.rk_sublayer(x, f, order=4) * T.Tensor(probe, dtype=F64)).sum()
    analytic = T.backward(loss)[x].values

    def fd_fn(v):
        out = B.rk_sublayer(T.Tensor(v, dtype=F64), f, order=4).values
        return float((out * probe).sum())

    fd = O.central_difference(fd_fn, x0.copy())
    assert O.relative_gradient_error(analytic, fd) < 1e-5


# ---------------------------------------------------------------------------
# layer dropout
# ---------------------------------------------------------------------------


def dropout_stack(d, n_sub, seed):
    out = []
    for i in range(n_sub):
        p = B.FFNParams.init(d, 2 * d, rng=T.Rng(seed + i), dtype=F64)
        out.append(((lambda pp: lambda z: B.ffn(z, pp))(p), ln_identity(d)))
    return out


def test_dropout_rho_zero_is_identity():
    d = 4
    stack = dropout_stack(d, 3, seed=39)
    z = T.Tensor(T.Rng(40).gaussian((2, d)), dtype=F64)
    for seed in (0, 1, 2):
        out = B.layer_dropout(z, stack, rho=0.0, mode="train", rng=T.Rng(seed))
        np.testing.assert_array_equal(out.values, z.values)


def test_dropout_rho_one_is_plain_stack():
    d = 4
    stack = dropout_stack(d, 3, seed=41)
    z = T.Tensor(T.Rng(42).gaussian((2, d)), dtype=F64)
    got = B.layer_dropout(z, stack, rho=1.0, mode="train", rng=T.Rng(0))
    want = z
    for core, ln in stack:
        want = B.layer_norm(core(want), ln) + want
    np.testing.assert_allclose(got.values, want.values, atol=1e-12)


def test_dropout_expectation_matches_inference_rescale():
    d = 4
    w = T.Tensor(T.Rng(43).gaussian((d, d)), dtype=F64)
    stack = [(lambda z: T.matmul(z, w), ln_identity(d))]
    z = T.Tensor(T.Rng(44).gaussian((1, d)), dtype=F64)
    infer = B.layer_dropout(z, stack, rho=0.7, mode="infer").values
    rng = T.Rng(45)
    acc = np.zeros_like(infer)
    n = 10_000
    for _ in range(n):
        acc += B.layer_dropout(z, stack, rho=0.7, mode="train", rng=rng).values
    mean = acc / n
    scale = np.max(np.abs(infer))
    assert np.max(np.abs(mean - infer)) <= 0.02 * scale


def test_dropout_validation():
    stack = dropout_stack(2, 1, seed=46)
    z = T.zeros((1, 2), dtype=F64)
    with pytest.raises(ValueError):
        B.layer_dropout(z, stack, rho=1.5, mode="train", rng=T.Rng(0))
    with pytest.raises(ValueError):
        B.layer_dropout(z, stack, rho=0.5, mode="eval")
    with pytest.raises(ValueError):
        B.layer_dropout(z, stack, rho=0.5, mode="train")


# ---------------------------------------------------------------------------
# mixture-of-experts
# ---------------------------------------------------------------------------


def test_moe_full_k_equals_dense_mixture():
    d, m_rows = 4, 3
    moe = B.MoEFFN.init(d, 8, n_experts=3, k=3, rng=T.Rng(47), dtype=F64)
    h = T.Tensor(T.Rng(48).gaussian((m_rows, d)), dtype=F64)
    got = B.moe_ffn(h, moe)
    probs = T.softmax_rows(T.matmul(h, moe.w_g)).values
    want = np.zeros((m_rows, d))
    for j, e in enumerate(moe.experts):
        want += probs[:, j:j + 1] * B.ffn(h, e).values
    np.testing.assert_allclose(got.values, want, atol=1e-10)


def test_moe_single_expert_is_plain_ffn():
    d = 4
    moe = B.MoEFFN.init(d, 8, n_experts=1, k=1, rng=T.Rng(49), dtype=F64)
    h = T.Tensor(T.Rng(50).gaussian((2, d)), dtype=F64)
    np.testing.assert_allclose(B.moe_ffn(h, moe).values,
                               B.ffn(h, moe.experts[0]).values, atol=1e-12)


def test_top_k_selection_matches_sort_oracle():
    rng = T.Rng(51)
    scores = rng.uniform((20, 8))
    sel = B.top_k_rows(scores, 2)
    for i in range(20):
        want = sorted(range(8), key=lambda j: (-scores[i, j], j))[:2]
        assert set(np.nonzero(sel[i])[0]) == set(want)
        assert sel[i].sum() == 2


def test_top_k_tie_breaks_to_lower_index():
    scores = np.array([[0.5, 0.3, 0.5, 0.5]])
    sel = B.top_k_rows(scores, 2)
    np.testing.assert_array_equal(np.nonzero(sel[0])[0], [0, 2])


def test_selection_invariant_to_logit_shift():
    d = 4
    moe = B.MoEFFN.init(d, 8, n_experts=6, k=2, rng=T.Rng(52), dtype=F64)
    h = T.Tensor(T.Rng(53).gaussian((5, d)), dtype=F64)
    logits = T.matmul(h, moe.w_g).values
    base = B.top_k_rows(logits, 2)
    shifted = B.top_k_rows(logits + 13.7, 2)
    np.testing.assert_array_equal(base, shifted)


def test_routing_modes():
    d = 4
    rng = T.Rng(54)
    h = T.Tensor(rng.gaussian((6, d)), dtype=F64)
    base = B.MoEFFN.init(d, 8, n_experts=5, k=2, rng=T.Rng(55), dtype=F64)
    outs = {}
    for mode in B.MOE_MODES:
        moe = B.MoEFFN(base.experts, base.w_g, 2, mode)
        outs[mode] = B.moe_ffn(h, moe).values
    # renormalized softmax over the kept set == softmax over kept logits
    np.testing.assert_allclose(outs["renorm"], outs["topk-softmax"], atol=1e-10)
    assert np.max(np.abs(outs["mask"] - outs["renorm"])) > 1e-6


def test_mask_mode_keeps_submass_gates():
    d = 4
    moe = B.MoEFFN.init(d, 8, n_experts=5, k=2, rng=T.Rng(56), dtype=F64)
    moe = B.MoEFFN(moe.experts, moe.w_g, 2, "mask")
    h = T.Tensor(T.Rng(57).gaussian((3, d)), dtype=F64)
    logits = T.matmul(h, moe.w_g)
    probs = T.softmax_rows(logits).values
    sel = B.top_k_rows(probs, 2)
    kept = (probs * sel).sum(axis=1)
    assert np.all(kept < 1.0)


def test_moe_gradient_reaches_gate_and_experts():
    d = 4
    moe = B.MoEFFN.init(d, 8, n_experts=3, k=2, rng=T.Rng(58), dtype=F64)
    h = T.Tensor(T.Rng(59).gaussian((4, d)), dtype=F64)
    with T.Tape():
        loss = B.moe_ffn(h, moe).sum()
    g = T.backward(loss)
    assert g.get(moe.w_g) is not None
    assert any(g.get(e.w_h) is not None for e in moe.experts)


def test_moe_validation():
    with pytest.raises(B.ConfigurationError):
        B.MoEFFN.init(4, 8, n_experts=3, k=4, rng=T.Rng(60))
    with pytest.raises(B.ConfigurationError):
        B.MoEFFN.init(4, 8, n_experts=3, k=0, rng=T.Rng(61))
    ok = B.MoEFFN.init(4, 8, n_experts=3, k=2, rng=T.Rng(62))
    with pytest.raises(B.ConfigurationError):
        B.MoEFFN(ok.experts, ok.w_g, 2, "sparse")


# ---------------------------------------------------------------------------
# parameter sharing
# ---------------------------------------------------------------------------


def ffn_stack(d, n, seed, dtype=F64):
    return [B.FFNParams.init(d, 2 * d, rng=T.Rng(seed + i), dtype=dtype)
            for i in range(n)]


def test_tied_stack_parameter_count():
    stack = ffn_stack(4, 5, seed=63)
    tied = B.share_group(stack, [[0, 1, 2, 3, 4]])
    assert all(e is tied[0] for e in tied)


def test_tied_forward_equals_copied_weights():
    d = 4
    stack = ffn_stack(d, 3, seed=64)
    tied = B.share_group(stack, [[0, 1, 2]])
    copied = [B.FFNParams(*(T.Tensor(t.values.copy(), dtype=F64)
                            for _, t in stack[0].named("p")))
              for _ in range(3)]
    z = T.Tensor(T.Rng(65).gaussian((2, d)), dtype=F64)
    zt, zc = z, z
    for pt, pc in zip(tied, copied):
        zt, zc = B.ffn(zt, pt), B.ffn(zc, pc)
    np.testing.assert_allclose(zt.values, zc.values, atol=1e-12)


def test_tied_gradient_is_sum_of_per_use_gradients():
    d = 3
    stack = ffn_stack(d, 2, seed=66)
    tied = B.share_group(stack, [[0, 1]])
    z = T.Tensor(T.Rng(67).gaussian((2, d)), dtype=F64)

    with T.Tape():
        out = B.ffn(B.ffn(z, tied[0]), tied[1])
        loss = out.sum()
    g_tied = T.backward(loss)[stack[0].w_h].values

    # untied copies with identical values: per-use gradients add up
    c1 = B.FFNParams(*(T.Tensor(t.values.copy(), dtype=F64, trainable=True)
                       for _, t in stack[0].named("p")))
    c2 = B.FFNParams(*(T.Tensor(t.values.copy(), dtype=F64, trainable=True)
                       for _, t in stack[0].named("p")))
    with T.Tape():
        loss2 = B.ffn(B.ffn(z, c1), c2).sum()
    g = T.backward(loss2)
    np.testing.assert_allclose(g_tied, g[c1.w_h].values + g[c2.w_h].values,
                               atol=1e-9)


def test_share_group_validation():
    stack = ffn_stack(4, 3, seed=68) + ffn_stack(6, 1, seed=69)
    with pytest.raises(B.ConfigurationError):
        B.share_group(stack, [[0, 3]])  # width mismatch
    with pytest.raises(B.ConfigurationError):
        B.share_group(stack[:3], [[0, 1], [1, 2]])  # overlap
    with pytest.raises(B.ConfigurationError):
        B.share_group(stack[:3], [[0, 7]])
