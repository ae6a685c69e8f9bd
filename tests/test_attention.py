"""Attention tests: QKV core, masks, priors, RPR, multi-query, caching."""

import numpy as np
import pytest

from seqlab import attention as A
from seqlab import embedding as E
from seqlab import oracles as O
from seqlab import tensor as T

F64 = np.float64


def params_for(d, tau, seed=0, multi_query=False, dtype=F64):
    return A.AttentionParams.init(d, tau, T.Rng(seed), multi_query=multi_query,
                                  dtype=dtype)


# ---------------------------------------------------------------------------
# qkv core
# ---------------------------------------------------------------------------


def test_single_pair_returns_value_row():
    q = T.Tensor([[1.0, 2.0]])
    k = T.Tensor([[0.3, 0.4]])
    v = T.Tensor([[5.0, 6.0, 7.0]])
    out = A.qkv_attention(q, k, v)
    np.testing.assert_allclose(out.values, v.values)


def test_qkv_reproduces_printed_causal_rows():
    # Choose Q = logits, K = 2*I so that Q K^T / sqrt(4) recovers the logits.
    logits = np.array([
        [2.0, 0.1, 1.0, 1.0],
        [0.0, 0.9, 0.9, 0.9],
        [0.2, 0.8, 0.7, 2.0],
        [0.3, 1.0, 0.3, 3.0],
    ])
    printed = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.3, 0.7, 0.0, 0.0],
        [0.2, 0.4, 0.4, 0.0],
        [0.05, 0.1, 0.05, 0.8],
    ])
    out = A.qkv_attention(T.Tensor(logits, dtype=F64),
                          T.Tensor(2.0 * np.eye(4), dtype=F64),
                          T.eye(4, dtype=F64), A.causal_mask(4))
    assert np.max(np.abs(out.values - printed)) <= 0.05


def test_qkv_matches_weighted_sum_oracle():
    rng = T.Rng(3)
    q, k, v = (rng.gaussian((6, 6)) for _ in range(3))
    got = A.qkv_attention(T.Tensor(q, dtype=F64), T.Tensor(k, dtype=F64),
                          T.Tensor(v, dtype=F64))
    want = O.attention_loop(q, k, v)
    assert np.max(np.abs(got.values - want)) < 1e-6


def test_qkv_fully_masked_row_raises():
    rng = T.Rng(4)
    q = T.Tensor(rng.gaussian((2, 3)), dtype=F64)
    k = T.Tensor(rng.gaussian((2, 3)), dtype=F64)
    mask = np.array([[0.0, 0.0], [-np.inf, -np.inf]])
    with pytest.raises(T.DegenerateRowError):
        A.qkv_attention(q, k, k, mask)


def test_attention_weights_are_convex():
    rng = T.Rng(5)
    q = T.Tensor(rng.gaussian((5, 4)), dtype=F64)
    k = T.Tensor(rng.gaussian((7, 4)), dtype=F64)
    v = T.Tensor(rng.gaussian((7, 4)), dtype=F64)
    _, w = A.qkv_attention(q, k, v, return_weights=True)
    assert np.all(w.values >= 0)
    np.testing.assert_allclose(w.values.sum(axis=-1), 1.0, atol=1e-6)


def test_causal_future_perturbation_is_bitwise_invisible():
    rng = T.Rng(6)
    q = rng.gaussian((6, 4))
    k = rng.gaussian((6, 4))
    v = rng.gaussian((6, 4))
    base = A.qkv_attention(T.Tensor(q, dtype=F64), T.Tensor(k, dtype=F64),
                           T.Tensor(v, dtype=F64), A.causal_mask(6)).values
    k2, v2 = k.copy(), v.copy()
    k2[4:] += rng.gaussian((2, 4))
    v2[4:] += rng.gaussian((2, 4))
    pert = A.qkv_attention(T.Tensor(q, dtype=F64), T.Tensor(k2, dtype=F64),
                           T.Tensor(v2, dtype=F64), A.causal_mask(6)).values
    assert np.array_equal(base[:4], pert[:4])  # bitwise


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def test_causal_mask_shapes():
    m1 = A.causal_mask(1).additive
    np.testing.assert_array_equal(m1, [[0.0]])
    m4 = A.causal_mask(4).additive
    assert np.all(np.isneginf(m4[np.triu_indices(4, k=1)]))
    assert np.all(m4[np.tril_indices(4)] == 0.0)
    for i in range(4):
        assert np.count_nonzero(m4[i] == 0.0) == i + 1


def test_local_prior_zero_gamma_is_vanilla():
    rng = T.Rng(7)
    q = T.Tensor(rng.gaussian((5, 4)), dtype=F64)
    k = T.Tensor(rng.gaussian((5, 4)), dtype=F64)
    v = T.Tensor(rng.gaussian((5, 4)), dtype=F64)
    plain = A.qkv_attention(q, k, v)
    primed = A.qkv_attention(q, k, v, A.local_prior("abs", 5, 0.0))
    np.testing.assert_allclose(primed.values, plain.values, atol=1e-12)


def test_local_prior_diagonal_is_free():
    for kind, sigma in (("abs", None), ("gaussian", 2.0)):
        spec = A.local_prior(kind, 6, 1.7, sigma=sigma)
        np.testing.assert_array_equal(np.diag(spec.additive), 0.0)


def test_sharp_gaussian_prior_pins_diagonal():
    rng = T.Rng(8)
    n = 8
    q = T.Tensor(rng.gaussian((n, 4)), dtype=F64)
    k = T.Tensor(rng.gaussian((n, 4)), dtype=F64)
    v = T.Tensor(rng.gaussian((n, 4)), dtype=F64)
    spec = A.local_prior("gaussian", n, 100.0, sigma=1.0).combine(A.causal_mask(n))
    _, w = A.qkv_attention(q, k, v, spec, return_weights=True)
    np.testing.assert_array_equal(np.argmax(w.values, axis=1), np.arange(n))


def test_mixture_extremes():
    rng = T.Rng(9)
    q = T.Tensor(rng.gaussian((4, 4)), dtype=F64)
    k = T.Tensor(rng.gaussian((4, 4)), dtype=F64)
    v = T.Tensor(rng.gaussian((4, 4)), dtype=F64)
    causal = A.causal_mask(4)
    # beta=0 reduces to vanilla
    spec0 = A.local_prior("abs", 4, 2.0, beta=0.0).combine(causal)
    vanilla = A.qkv_attention(q, k, v, causal)
    np.testing.assert_allclose(A.qkv_attention(q, k, v, spec0).values,
                               vanilla.values, atol=1e-12)
    # beta=1 ignores the scores entirely
    spec1 = A.local_prior("abs", 4, 2.0, beta=1.0).combine(causal)
    _, w = A.qkv_attention(q, k, v, spec1, return_weights=True)
    prior = np.where(np.triu(np.ones((4, 4)), k=1) > 0, -np.inf,
                     -2.0 * np.abs(np.subtract.outer(np.arange(4), np.arange(4))))
    want = np.array([O.softmax_vec(r) for r in prior])
    np.testing.assert_allclose(w.values, want, atol=1e-12)


def test_multiplicative_zero_does_not_zero_weight():
    # A zero gate entry only zeroes the logit; the softmax weight stays positive.
    q = T.Tensor([[1.0, 0.0], [0.0, 1.0]], dtype=F64)
    spec = A.MaskSpec(mode="multiplicative",
                      multiplicative=np.array([[1.0, 0.0], [0.0, 1.0]]))
    _, w = A.qkv_attention(q, q, q, spec, return_weights=True)
    assert np.all(w.values > 0)


def test_local_decay_matrix_diagonal_ones():
    spec = A.local_decay_matrix(5, sigma=2.0)
    g = spec.multiplicative
    np.testing.assert_allclose(np.diag(g), 1.0)
    assert np.all((g >= 0) & (g <= 1))


# ---------------------------------------------------------------------------
# attention fields
# ---------------------------------------------------------------------------


def test_window_full_width_equals_causal():
    n = 6
    spec = A.make_attention_field("window", n, causal=True, window=n)
    np.testing.assert_array_equal(spec.field_additive(), A.causal_mask(n).additive)


def test_chunk_one_is_diagonal():
    spec = A.make_attention_field("chunked", 5, chunk=1)
    np.testing.assert_array_equal(spec.field, np.eye(5, dtype=bool))


def test_chunked_blocks():
    spec = A.make_attention_field("chunked", 6, chunk=3)
    assert spec.field[0, 2] and spec.field[4, 5]
    assert not spec.field[2, 3]


def test_strided_and_dilated_structure():
    st = A.make_attention_field("strided", 8, stride=3)
    assert st.field[6, 0] and st.field[6, 3] and st.field[6, 6]
    assert not st.field[6, 1]
    dl = A.make_attention_field("dilated", 9, window=2, dilation=3)
    assert dl.field[6, 3] and dl.field[6, 6]
    assert not dl.field[6, 5]


def test_hybrid_is_union_of_components():
    n, w, k_rand = 10, 2, 2
    seed = 17
    spec = A.make_attention_field("hybrid", n, window=w, global_positions=[1],
                                  n_random=k_rand, rng=T.Rng(seed))
    window_only = A.make_attention_field("window", n, window=w).field
    glob = np.zeros((n, n), dtype=bool)
    glob[1, :] = True
    glob[:, 1] = True
    rand = np.zeros((n, n), dtype=bool)
    for (r, c) in spec.random_pairs:
        rand[r, c] = True
    np.testing.assert_array_equal(spec.field, window_only | glob | rand)


def test_decoder_field_is_causal():
    spec = A.make_attention_field("strided", 7, causal=True, stride=2)
    i, j = np.nonzero(spec.field)
    assert np.all(j <= i)


def test_sparsity_ratio():
    spec = A.make_attention_field("chunked", 6, chunk=1)
    assert spec.sparsity == pytest.approx(6 / 36)


def test_field_rows_outside_pi_get_zero_weight():
    rng = T.Rng(11)
    n = 6
    q = T.Tensor(rng.gaussian((n, 4)), dtype=F64)
    spec = A.make_attention_field("window", n, causal=True, window=2)
    _, w = A.qkv_attention(q, q, q, spec, return_weights=True)
    assert np.all(w.values[~spec.field] == 0.0)


def test_sparse_field_attention_matches_dense():
    rng = T.Rng(12)
    n = 16
    q = T.Tensor(rng.gaussian((n, 8)), dtype=F64)
    k = T.Tensor(rng.gaussian((n, 8)), dtype=F64)
    v = T.Tensor(rng.gaussian((n, 8)), dtype=F64)
    spec = A.make_attention_field("window", n, causal=True, window=3)
    dense = A.qkv_attention(q, k, v, spec)
    sparse = A.sparse_field_attention(q, k, v, spec)
    np.testing.assert_allclose(sparse.values, dense.values, atol=1e-10)


def test_sparse_counter_scales_with_window_not_n_squared():
    d = 8
    counts = {}
    for n in (32, 64):
        rng = T.Rng(13)
        q = T.Tensor(rng.gaussian((n, d)), dtype=F64)
        spec = A.make_attention_field("window", n, causal=True, window=4)
        c = A.OpCounter()
        A.sparse_field_attention(q, q, q, spec, counter=c)
        counts[n] = c.multiply_adds
    # roughly linear: doubling n should roughly double the work
    assert counts[64] < 2.6 * counts[32]
    dense_counter = A.OpCounter()
    rng = T.Rng(13)
    q = T.Tensor(rng.gaussian((64, d)), dtype=F64)
    A.qkv_attention(q, q, q, A.causal_mask(64), counter=dense_counter)
    assert dense_counter.multiply_adds == 64 * 64 * d * 2


# ---------------------------------------------------------------------------
# multi-head
# ---------------------------------------------------------------------------


def test_single_head_identity_merge_equals_qkv():
    d = 6
    p = params_for(d, 1)
    p.w_out = T.eye(d, dtype=F64)
    rng = T.Rng(14)
    h = T.Tensor(rng.gaussian((5, d)), dtype=F64)
    got = A.multi_head_self(h, p)
    want = A.qkv_attention(T.matmul(h, p.wq), T.matmul(h, p.wk),
                           T.matmul(h, p.wv))
    np.testing.assert_allclose(got.values, want.values, atol=1e-12)


@pytest.mark.parametrize("tau", [1, 2, 3, 6])
def test_multi_head_output_shape(tau):
    d = 12
    rng = T.Rng(15)
    h = T.Tensor(rng.gaussian((7, d)), dtype=F64)
    out = A.multi_head_self(h, params_for(d, tau, seed=tau))
    assert out.shape == (7, d)


def test_tau_must_divide_d():
    with pytest.raises(ValueError):
        params_for(10, 3)


def test_head_permutation_with_merge_rows_is_invariant():
    d, tau = 8, 4
    p = params_for(d, tau, seed=16)
    rng = T.Rng(17)
    h = T.Tensor(rng.gaussian((5, d)), dtype=F64)
    base = A.multi_head_self(h, p)
    perm = [2, 0, 3, 1]
    d_h = d // tau
    w_out_rows = p.w_out.values.reshape(tau, d_h, d)[perm].reshape(d, d)

    def blocks(w):
        return T.Tensor(w.values.reshape(d, tau, d_h)[:, perm].reshape(d, d),
                        dtype=F64)

    p2 = A.AttentionParams(d, tau, blocks(p.wq), blocks(p.wk), blocks(p.wv),
                           T.Tensor(w_out_rows, dtype=F64))
    swapped = A.multi_head_self(h, p2)
    np.testing.assert_allclose(swapped.values, base.values, atol=1e-12)


def test_multi_head_gradient_vs_finite_difference():
    d, tau, m = 6, 2, 4
    p = params_for(d, tau, seed=18)
    rng = T.Rng(19)
    h0 = rng.gaussian((m, d))
    probe = rng.gaussian((m, d))

    h = T.Tensor(h0, dtype=F64, trainable=True)
    with T.Tape():
        out = A.multi_head_self(h, p, A.causal_mask(m))
        loss = (out * T.Tensor(probe, dtype=F64)).sum()
    analytic = T.backward(loss)[h].values

    def f(x):
        out = A.multi_head_self(T.Tensor(x, dtype=F64), p, A.causal_mask(m))
        return float((out.values * probe).sum())

    fd = O.central_difference(f, h0.copy())
    assert O.relative_gradient_error(analytic, fd) < 1e-6


# ---------------------------------------------------------------------------
# cross attention
# ---------------------------------------------------------------------------


def test_cross_single_source_row():
    d = 4
    p = params_for(d, 2, seed=20)
    rng = T.Rng(21)
    h_enc = T.Tensor(rng.gaussian((1, d)), dtype=F64)
    s = T.Tensor(rng.gaussian((5, d)), dtype=F64)
    out = A.cross_attention(h_enc, s, p)
    # with one key, every query row gets exactly the single value row
    want_row = T.matmul(h_enc, p.wv).values @ p.w_out.values
    np.testing.assert_allclose(out.values, np.repeat(want_row, 5, axis=0),
                               atol=1e-12)


def test_cross_reduces_to_unmasked_self():
    d = 6
    p = params_for(d, 1, seed=22)
    rng = T.Rng(23)
    h = T.Tensor(rng.gaussian((4, d)), dtype=F64)
    np.testing.assert_allclose(A.cross_attention(h, h, p).values,
                               A.multi_head_self(h, p).values, atol=1e-12)


def test_cross_composes_from_qkv():
    d = 6
    p = params_for(d, 1, seed=24)
    p.w_out = T.eye(d, dtype=F64)
    rng = T.Rng(25)
    h_enc = T.Tensor(rng.gaussian((7, d)), dtype=F64)
    s = T.Tensor(rng.gaussian((4, d)), dtype=F64)
    got = A.cross_attention(h_enc, s, p)
    want = A.qkv_attention(T.matmul(s, p.wq), T.matmul(h_enc, p.wk),
                           T.matmul(h_enc, p.wv))
    np.testing.assert_allclose(got.values, want.values, atol=1e-12)


def test_cross_empty_source():
    p = params_for(4, 1)
    with pytest.raises(A.EmptySourceError):
        A.cross_attention(T.zeros((0, 4), dtype=F64), T.zeros((3, 4), dtype=F64), p)


# ---------------------------------------------------------------------------
# RPR attention
# ---------------------------------------------------------------------------


def test_rpr_zero_table_equals_multi_head():
    d, tau, n = 8, 2, 5
    p = params_for(d, tau, seed=26)
    zero = E.RprTable(2, {r: T.zeros((5, d // tau), dtype=F64) for r in "qkv"})
    rng = T.Rng(27)
    h = T.Tensor(rng.gaussian((n, d)), dtype=F64)
    mask = A.causal_mask(n)
    np.testing.assert_allclose(A.rpr_attention(h, p, zero, mask).values,
                               A.multi_head_self(h, p, mask).values, atol=1e-12)


def test_rpr_matches_double_loop_oracle():
    d, n, clip_k = 6, 5, 2
    p = params_for(d, 1, seed=28)
    p.w_out = T.eye(d, dtype=F64)
    table = E.RprTable.init(clip_k, d, T.Rng(29), dtype=F64)
    rng = T.Rng(30)
    h = rng.gaussian((n, d))
    got = A.rpr_attention(T.Tensor(h, dtype=F64), p, table, A.causal_mask(n))
    want = O.rpr_attention_loop(h, p.wq.values, p.wk.values, p.wv.values,
                                table.tables["q"].values, table.tables["k"].values,
                                table.tables["v"].values, clip_k, causal=True)
    assert np.max(np.abs(got.values - want)) < 1e-6


def test_rpr_key_only_variant_matches_zeroed_query_table():
    d, n, clip_k = 4, 5, 2
    p = params_for(d, 1, seed=31)
    p.w_out = T.eye(d, dtype=F64)
    rng = T.Rng(32)
    kv = T.Tensor(rng.gaussian((2 * clip_k + 1, d)), dtype=F64, trainable=True)
    vv = T.Tensor(rng.gaussian((2 * clip_k + 1, d)), dtype=F64, trainable=True)
    key_only = E.RprTable(clip_k, {"k": kv, "v": vv})
    h = rng.gaussian((n, d))
    got = A.rpr_attention(T.Tensor(h, dtype=F64), p, key_only, A.causal_mask(n))
    want = O.rpr_attention_loop(h, p.wq.values, p.wk.values, p.wv.values,
                                np.zeros((5, d)), kv.values, vv.values,
                                clip_k, causal=True)
    assert np.max(np.abs(got.values - want)) < 1e-6


def test_rpr_wide_clip_buckets_distinct():
    t = E.RprTable.init(6, 4, T.Rng(33))
    m = t.offset_index_matrix(5, 5)
    # with clip_k >= n-1 every distinct offset keeps a distinct bucket
    offsets = np.subtract.outer(np.arange(5), np.arange(5)) * -1
    assert len(np.unique(m)) == len(np.unique(offsets))


def test_rpr_gradient_reaches_tables():
    d, n, clip_k = 4, 4, 1
    p = params_for(d, 1, seed=34)
    table = E.RprTable.init(clip_k, d, T.Rng(35), dtype=F64)
    rng = T.Rng(36)
    h = T.Tensor(rng.gaussian((n, d)), dtype=F64)
    with T.Tape():
        out = A.rpr_attention(h, p, table, A.causal_mask(n))
        loss = out.sum()
    g = T.backward(loss)
    for role in ("q", "k", "v"):
        assert g.get(table.tables[role]) is not None


# ---------------------------------------------------------------------------
# multi-query
# ---------------------------------------------------------------------------


def test_multi_query_tau_one_equals_single_head():
    d = 6
    mq = params_for(d, 1, seed=37, multi_query=True)
    std = A.AttentionParams(d, 1, mq.wq, mq.wk, mq.wv, mq.w_out)
    rng = T.Rng(38)
    h = T.Tensor(rng.gaussian((4, d)), dtype=F64)
    np.testing.assert_allclose(A.multi_query_attention(h, mq).values,
                               A.multi_head_self(h, std).values, atol=1e-12)


def test_multi_query_equals_weight_copied_multi_head():
    d, tau = 8, 4
    mq = params_for(d, tau, seed=39, multi_query=True)
    copied = A.AttentionParams(d, tau, mq.wq,
                               T.Tensor(np.tile(mq.wk.values, tau), dtype=F64),
                               T.Tensor(np.tile(mq.wv.values, tau), dtype=F64),
                               mq.w_out)
    rng = T.Rng(40)
    h = T.Tensor(rng.gaussian((6, d)), dtype=F64)
    mask = A.causal_mask(6)
    np.testing.assert_allclose(A.multi_query_attention(h, mq, mask).values,
                               A.multi_head_self(h, copied, mask).values,
                               atol=1e-12)


def test_wrong_variant_flags_rejected():
    mh = params_for(8, 2, seed=41)
    mq = params_for(8, 2, seed=41, multi_query=True)
    h = T.zeros((3, 8), dtype=F64)
    with pytest.raises(ValueError):
        A.multi_query_attention(h, mh)
    with pytest.raises(ValueError):
        A.multi_head_self(h, mq)


def test_multi_query_cache_is_tau_times_smaller():
    steps, layers, d, tau = 5, 2, 8, 4
    mh = params_for(d, tau, seed=50)
    mq = params_for(d, tau, seed=50, multi_query=True)
    mh_cache, mq_cache = A.KVCache(layers), A.KVCache(layers)
    rng = T.Rng(51)
    for _ in range(steps):
        x = T.Tensor(rng.gaussian((1, d)), dtype=F64)
        for layer in range(layers):
            A.attend_step_cached(x, mh_cache, mh, layer)
            A.attend_step_cached(x, mq_cache, mq, layer)

    def stored(cache):
        return sum(cache.keys(i).size + cache.values_(i).size
                   for i in range(layers))

    assert stored(mh_cache) == tau * stored(mq_cache)


# ---------------------------------------------------------------------------
# cached stepping
# ---------------------------------------------------------------------------


def test_empty_cache_step_equals_length_one_attention():
    d, tau = 8, 2
    p = params_for(d, tau, seed=42)
    cache = A.KVCache(1)
    rng = T.Rng(43)
    x = T.Tensor(rng.gaussian((1, d)), dtype=F64)
    out, cache = A.attend_step_cached(x, cache, p, layer=0)
    want = A.multi_head_self(x, p)
    np.testing.assert_allclose(out.values, want.values, atol=1e-12)
    assert cache.length(0) == 1


def test_incremental_equals_full_recompute():
    d, tau, n = 8, 2, 12
    p = params_for(d, tau, seed=44)
    rng = T.Rng(45)
    h = rng.gaussian((n, d))
    full = A.multi_head_self(T.Tensor(h, dtype=F64), p, A.causal_mask(n)).values
    cache = A.KVCache(1)
    for i in range(n):
        out, cache = A.attend_step_cached(T.Tensor(h[i:i + 1], dtype=F64),
                                          cache, p, layer=0)
        assert np.max(np.abs(out.values[0] - full[i])) < 1e-6
        assert cache.length(0) == i + 1
    assert cache.lengths_consistent()


def test_incremental_multi_query_equals_full():
    d, tau, n = 8, 4, 10
    p = params_for(d, tau, seed=46, multi_query=True)
    rng = T.Rng(47)
    h = rng.gaussian((n, d))
    full = A.multi_query_attention(T.Tensor(h, dtype=F64), p,
                                   A.causal_mask(n)).values
    cache = A.KVCache(1)
    for i in range(n):
        out, cache = A.attend_step_cached(T.Tensor(h[i:i + 1], dtype=F64),
                                          cache, p, layer=0)
        assert np.max(np.abs(out.values[0] - full[i])) < 1e-6


def test_cache_layer_out_of_range():
    p = params_for(4, 1)
    cache = A.KVCache(2)
    with pytest.raises(A.CacheLayerError):
        A.attend_step_cached(T.zeros((1, 4), dtype=F64), cache, p, layer=2)


def test_windowed_cached_step_restricts_positions():
    d = 4
    p = params_for(d, 1, seed=48)
    rng = T.Rng(49)
    h = rng.gaussian((4, d))
    cache = A.KVCache(1)
    outs = []
    for i in range(4):
        allowed = np.zeros(i + 1, dtype=bool)
        allowed[max(0, i - 1):] = True  # window of 2
        out, cache = A.attend_step_cached(T.Tensor(h[i:i + 1], dtype=F64),
                                          cache, p, layer=0, allowed=allowed)
        outs.append(out.values[0])
    spec = A.make_attention_field("window", 4, causal=True, window=2)
    q = T.matmul(T.Tensor(h, dtype=F64), p.wq)
    k = T.matmul(T.Tensor(h, dtype=F64), p.wk)
    v = T.matmul(T.Tensor(h, dtype=F64), p.wv)
    want = T.matmul(A.qkv_attention(q, k, v, spec), p.w_out).values
    np.testing.assert_allclose(np.array(outs), want, atol=1e-10)
