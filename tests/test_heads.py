"""Heads as column blocks of one wide projection.

Every attention form is checked against a per-head reference written out
here with column slices of the fused W^q/W^k/W^v: outputs and gradients
agree within 1e-12 in float64. Guard tests pin the number of attention
calls and taped ops per step, so per-head loops cannot quietly return.
"""

import importlib.resources

import numpy as np
import pytest

import seqlab.attention as A
import seqlab.efficient as EF
import seqlab.model as M
import seqlab.oracles as O
import seqlab.tensor as T
import seqlab.train as TR
from seqlab.embedding import SOS, RprTable, Vocab

from test_qkv import three_matrix_digest

F64 = np.float64
VOCAB = Vocab.from_text("abcdefgh")
TOL = 1e-12


def leaf(shape, seed=0):
    return T.Tensor(T.Rng(seed).gaussian(shape), dtype=F64, trainable=True)


def params(d=12, tau=3, seed=1, n_kv=None):
    return A.AttentionParams.init(d, tau, T.Rng(seed), n_kv=n_kv, dtype=F64)


def model(seed=2, **kw):
    base = dict(d=12, n_layers=2, tau=3, d_ffn=16)
    base.update(kw)
    return M.Model.init(M.ModelConfig(**base), VOCAB, seed=seed, dtype=F64)


def cols(j, d_h):
    return (slice(None), slice(j * d_h, (j + 1) * d_h))


def per_head(x_q, x_kv, p, attend):
    """Merge(head_1..head_tau) W_c, where head j is
    attend(j, x_q W^q_j, x_kv W^k_j, x_kv W^v_j) and W_j is column block
    j of the fused matrix (block 0 of W^k/W^v with one key/value head)."""
    d_h = p.d_head
    outs = []
    for j in range(p.tau):
        j_kv = 0 if p.n_kv == 1 else j
        outs.append(attend(j, T.matmul(x_q, T.take(p.wq, cols(j, d_h))),
                           T.matmul(x_kv, T.take(p.wk, cols(j_kv, d_h))),
                           T.matmul(x_kv, T.take(p.wv, cols(j_kv, d_h)))))
    return T.matmul(T.concat(outs, axis=-1), p.w_out)


def att_leaves(p):
    return [p.w_qkv, p.w_out]


def assert_same(got_fn, want_fn, leaves):
    """Outputs, and the gradients of one random probe of them, agree; every
    leaf gets a gradient on both sides."""
    results = []
    probe = None
    for fn in (got_fn, want_fn):
        with T.Tape() as tape:
            out = fn()
            if probe is None:
                probe = T.Tensor(T.Rng(99).gaussian(out.shape), dtype=F64)
            loss = T.reduce_sum(out * probe)
        grads = T.backward(loss)
        tape.release()
        results.append((out.values, [grads.get(t) for t in leaves]))
    (out_a, grads_a), (out_b, grads_b) = results
    assert out_a.shape == out_b.shape
    assert np.max(np.abs(out_a - out_b)) < TOL
    for a, b in zip(grads_a, grads_b):
        assert a is not None and b is not None
        assert np.max(np.abs(a.values - b.values)) < TOL


def dense(mask=None):
    return lambda j, q, k, v: A.qkv_attention(q, k, v, mask)


# ---------------------------------------------------------------------------
# attention forms against the per-head reference
# ---------------------------------------------------------------------------


def test_self_attention_matches_per_head():
    p = params()
    z = leaf((2, 5, 12))
    mask = A.causal_mask(5)
    assert_same(lambda: A.self_attention(z, p, mask),
                lambda: per_head(z, z, p, dense(mask)), [z] + att_leaves(p))


def test_cross_attention_matches_per_head():
    p = params(seed=3)
    s, h_enc = leaf((2, 4, 12), 1), leaf((2, 6, 12), 2)
    assert_same(lambda: A.cross_attention(h_enc, s, p),
                lambda: per_head(s, h_enc, p, dense()),
                [s, h_enc] + att_leaves(p))


def test_multi_query_matches_per_head():
    p = params(d=12, tau=4, seed=4, n_kv=1)
    z = leaf((2, 5, 12))
    mask = A.causal_mask(5)
    assert p.wk.shape == (12, 3)
    assert_same(lambda: A.self_attention(z, p, mask),
                lambda: per_head(z, z, p, dense(mask)), [z] + att_leaves(p))


def rpr_head(rpr, m, additive):
    offs = rpr.offset_index_matrix(m, m)
    pe = {role: T.gather_rows(t, offs) for role, t in rpr.tables.items()}

    def attend(j, q, k, v):
        lead, d_h = q.shape[:-2], q.shape[-1]
        q_exp = T.reshape(q, lead + (m, 1, d_h)) + pe["q"]
        k_exp = T.reshape(k, lead + (1, m, d_h)) + pe["k"]
        logits = T.reduce_sum(q_exp * k_exp, axis=-1) * (1.0 / np.sqrt(d_h))
        alpha = T.softmax_rows(logits, additive)
        v_exp = T.reshape(v, lead + (1, m, d_h)) + pe["v"]
        return T.reduce_sum(T.reshape(alpha, lead + (m, m, 1)) * v_exp, axis=-2)

    return attend


@pytest.mark.parametrize("multi_query", [False, True])
def test_rpr_attention_matches_per_head(multi_query):
    p = params(d=12, tau=3, seed=5, n_kv=1 if multi_query else None)
    rpr = RprTable.init(2, 4, T.Rng(6), dtype=F64)
    z = leaf((2, 5, 12))
    mask = A.causal_mask(5)
    tables = [rpr.tables[r] for r in "qkv"]
    assert_same(lambda: p.merge(A.rpr_attention(*p.heads(z), rpr, mask)),
                lambda: per_head(z, z, p, rpr_head(rpr, 5, mask)),
                [z] + att_leaves(p) + tables)


def first_rows(n):
    return (Ellipsis, slice(0, n), slice(None))


@pytest.mark.parametrize("architecture,causal,m_real", [
    ("decoder-only", True, 6), ("encoder-only", False, 4)])
def test_linear_core_matches_per_head(architecture, causal, m_real):
    m = model(attention="linear", architecture=architecture)
    layer = (m.dec_layers or m.enc_layers)[0]
    z = leaf((2, 6, 12))
    phi = EF.FeatureMap(m.cfg.feature_map)
    rows = first_rows(m_real)

    def attend(j, q, k, v):
        return EF.kernelized_attention(q, T.take(k, rows), T.take(v, rows),
                                       phi, causal=causal)

    core = m._att_core(layer, None, causal, m_real, None, None)
    assert_same(lambda: core(z), lambda: per_head(z, z, layer.att, attend),
                [z] + att_leaves(layer.att))


def test_lowrank_width_core_matches_per_head():
    m = model(attention="lowrank-d")
    layer = m.dec_layers[0]
    z = leaf((2, 5, 12))
    mask = m._mask_for(5, True, None)

    def attend(j, q, k, v):
        # Q_j U^q against K_j U^kd, at the full head's sqrt(d_h)
        return A.qkv_attention(T.matmul(q, layer.att.reduce.u_q),
                               T.matmul(k, layer.att.reduce.u_kd), v, mask,
                               scale=np.sqrt(m.cfg.d_head))

    core = m._att_core(layer, mask, True, None, None, None)
    assert_same(lambda: core(z), lambda: per_head(z, z, layer.att, attend),
                [z] + att_leaves(layer.att)
                + [layer.att.reduce.u_q, layer.att.reduce.u_kd])


def test_lowrank_length_core_matches_per_head():
    m = model(attention="lowrank-n", architecture="encoder-only",
              reduced_length=3, max_length=8)
    layer = m.enc_layers[0]
    z = leaf((7, 12))
    m_real = 5
    rows = first_rows(m_real)

    def want():
        proj = EF.LowRankProjections(
            u_k=T.take(layer.lowrank.u_k, (slice(None), slice(0, m_real))),
            u_v=T.take(layer.lowrank.u_v, (slice(None), slice(0, m_real))))
        return per_head(z, z, layer.att, lambda j, q, k, v:
                        EF.lowrank_length_attention(q, T.take(k, rows),
                                                    T.take(v, rows), proj))

    core = m._att_core(layer, None, False, m_real, None, None)
    assert_same(lambda: core(z), want,
                [z] + att_leaves(layer.att)
                + [layer.lowrank.u_k, layer.lowrank.u_v])


@pytest.mark.parametrize("multi_query", [False, True])
def test_window_counting_core_matches_per_head(multi_query):
    m = model(attention="window", window=3, tau=4, multi_query=multi_query)
    layer = m.dec_layers[0]
    z = leaf((2, 10, 12), 7)
    mask = np.where(O.window_field(10, 3, causal=True), 0.0, -np.inf)
    count = A.OpCounter()
    assert_same(lambda: m._att_core(layer, None, True, None, None, count)(z),
                lambda: per_head(z, z, layer.att, dense(mask)),
                [z] + att_leaves(layer.att))
    # 2 rows of 4 blocks of 3 queries, each over 6 keys, in 4 heads of
    # width 3, for the logits and the weighted values
    assert count.multiply_adds == 2 * 4 * 3 * 6 * 4 * 3 * 2


def test_reused_maps_match_per_head():
    m = model(reuse_maps=True)
    first, second = m.dec_layers
    z = leaf((2, 5, 12))
    mask = m._mask_for(5, True, None)

    def got():
        maps = []
        h = m._att_core(first, mask, True, None, maps, None)(z)
        return m._att_core(second, mask, True, None, maps, None)(h)

    def want():
        maps = []

        def record(j, q, k, v):
            out, w = A.qkv_attention(q, k, v, mask, return_weights=True)
            maps.append(w)
            return out

        h = per_head(z, z, first.att, record)
        return per_head(h, h, second.att,
                        lambda j, q, k, v: T.matmul(maps[j], v))

    assert_same(got, want, [z] + att_leaves(first.att) + att_leaves(second.att))


def test_chunk_prefix_core_matches_per_head():
    m = model()
    layer = m.dec_layers[0]
    d_h = m.cfg.d_head
    kv = []
    m.decoder_forward([4, 5, 6, 7], kv_out=kv)
    k_prev, v_prev = kv[0]
    assert k_prev.shape == v_prev.shape == (4, 12)
    z = leaf((3, 12))
    additive = np.zeros((3, 7))
    additive[:, 4:][np.triu(np.ones((3, 3), dtype=bool), 1)] = -np.inf

    def attend(j, q, k, v):
        k = T.concat([T.Tensor(k_prev[cols(j, d_h)]), k], axis=0)
        v = T.concat([T.Tensor(v_prev[cols(j, d_h)]), v], axis=0)
        return A.qkv_attention(q, k, v, additive)

    def cached():
        cache = A.KVCache(1)
        cache.write(0, k_prev[None], v_prev[None])
        out = A.attend_step_cached(T.reshape(z, (1, 3, 12)), cache,
                                   layer.att, 0)
        sink.append(cache.keys(0).values[0, 4:])
        return T.reshape(out, (3, 12))

    sink = []
    assert_same(cached, lambda: per_head(z, z, layer.att, attend),
                [z] + att_leaves(layer.att))
    np.testing.assert_allclose(sink[0], z.values @ layer.att.wk.values,
                               rtol=0, atol=TOL)


@pytest.mark.parametrize("multi_query,window", [
    (False, None), (True, None), (False, 2), (True, 3)])
def test_cached_decode_matches_per_head(multi_query, window):
    p = params(d=12, tau=4, seed=8, n_kv=1 if multi_query else None)
    n = 7
    xs = T.Rng(9).gaussian((n, 12))
    cache = A.KVCache(1, window)
    for i in range(n):
        additive = None
        if window is not None:
            seen = np.arange(i + 1) > i - window
            additive = np.where(seen, 0.0, -np.inf)[None, :]
        x = T.Tensor(xs[i:i + 1], dtype=F64)
        prefix = T.Tensor(xs[:i + 1], dtype=F64)
        before = cache.clone()
        got = A.attend_step_cached(T.reshape(x, (1, 1, 12)), cache, p, 0)
        want = per_head(x, prefix, p, dense(additive))
        assert np.max(np.abs(got.values[0] - want.values)) < TOL
        held = i + 1 if window is None else min(i + 1, window)
        assert cache.keys(0).shape == (1, held, p.n_kv * p.d_head)
    # gradients of the last step: cached rows are constants, the new row
    # and every projection are live; the step sees the last window-1 of them
    x = leaf((1, 12), 10)
    d_h = p.d_head
    back = n - 1 if window is None else window - 1

    def reference():
        def attend(j, q, k, v):
            j_kv = 0 if multi_query else j
            k_prev = before.keys(0).values[0][-back:]
            v_prev = before.values_(0).values[0][-back:]
            k = T.concat([T.Tensor(k_prev[cols(j_kv, d_h)]), k], axis=0)
            v = T.concat([T.Tensor(v_prev[cols(j_kv, d_h)]), v], axis=0)
            return A.qkv_attention(q, k, v)
        return per_head(x, x, p, attend)

    def cached():
        out = A.attend_step_cached(T.reshape(x, (1, 1, 12)), before.clone(),
                                   p, 0)
        return T.reshape(out, (1, 12))

    assert_same(cached, reference, [x] + att_leaves(p))


def test_stream_decode_matches_per_head():
    m = model(attention="linear", tau=4)
    layer = m.dec_layers[0]
    att = layer.att
    d_h = att.d_head
    phi = EF.FeatureMap(m.cfg.feature_map).apply_np
    session = m.decode_session()
    # per head: the prefix sums of phi(k)^T v and phi(k), one row at a time
    mu = np.zeros((att.tau, d_h, d_h))
    nu = np.zeros((att.tau, d_h))
    for t, row in enumerate(T.Rng(11).gaussian((6, 12))):
        got = EF.kernel_step(T.Tensor(row[None, None, :]), session.state,
                             att, 0, m._phi)
        outs = []
        for j in range(att.tau):
            q, k, v = (row @ w.values[cols(j, d_h)]
                       for w in (att.wq, att.wk, att.wv))
            mu[j] += np.outer(phi(k), v)
            nu[j] += phi(k)
            outs.append(phi(q) @ mu[j] / (phi(q) @ nu[j]))
        want = np.concatenate(outs)[None, :] @ att.w_out.values
        assert np.max(np.abs(got.values - want)) < TOL


# ---------------------------------------------------------------------------
# initial weights
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("multi_query", [False, True])
def test_fused_init_concatenates_per_head_draws_bitwise(multi_query):
    d, tau = 12, 3
    n_kv = 1 if multi_query else tau
    p = A.AttentionParams.init(d, tau, T.Rng(5), n_kv=n_kv)
    rng = T.Rng(5)

    def draws(n):
        return np.concatenate([T.xavier_init(d, d // tau, rng=rng).values
                               for _ in range(n)], axis=1)

    w_qkv = np.concatenate([draws(tau), draws(n_kv), draws(n_kv)], axis=1)
    for w, want in ((p.w_qkv, w_qkv),
                    (p.w_out, T.xavier_init(d, d, rng=rng).values)):
        assert w.trainable and np.array_equal(w.values, want)


# sha256 over (name, float32 bytes) of every tensor of Model.init(cfg,
# seed=3), with each per-head W^q_h/W^k_h/W^v_h of the earlier per-head
# layout concatenated, in head order, into the fused matrix, and a fused
# w_qkv hashed as its three blocks wq, wk, wv
PER_HEAD_INIT_DIGESTS = [
    (dict(d=16, n_layers=2, tau=4, d_ffn=32),
     "270f0d3501ee5648cc4c781904e3d1bbf18f097f5d1a80e1a5ae5b61b4fa9170"),
    (dict(d=16, n_layers=2, tau=4, d_ffn=32, multi_query=True),
     "c1087487279a1c8073df90620cbf04e4460d0396fe12dc1979926a93f7f166f2"),
    (dict(d=16, n_layers=1, tau=2, d_ffn=32, architecture="encoder-decoder"),
     "445370b7830d3b97cccb29cf3e44d755bd82699e5a03a91d082727ca2c6fe347"),
    (dict(d=16, n_layers=1, tau=4, d_ffn=32, attention="lowrank-d"),
     "7a0a6314314eb6077a7241ff68cb43e33377ae6c70998e85ca70b61fec912782"),
]


@pytest.mark.parametrize("kw,digest", PER_HEAD_INIT_DIGESTS)
def test_seeded_model_init_equals_the_per_head_draws(kw, digest):
    fresh = M.Model.init(M.ModelConfig(**kw), VOCAB, seed=3)
    assert three_matrix_digest(fresh) == digest


# ---------------------------------------------------------------------------
# guards: one attention op per layer, not one per head
# ---------------------------------------------------------------------------


@pytest.fixture
def attention_calls(monkeypatch):
    calls = []
    real = T.attention

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(T, "attention", counting)
    return calls


def test_training_step_attends_once_per_layer(attention_calls):
    """The criterion-10 shape: d=64, 2 layers, 4 heads, FFN 256, batch 8,
    seq 64. The per-head layout made 8 attention calls and 145 taped ops."""
    text = (importlib.resources.files("seqlab") / "data" / "corpus.txt").read_text()
    vocab = Vocab.from_text(text)
    lm = M.Model.init(M.ModelConfig(d=64, n_layers=2, tau=4, d_ffn=256), vocab)
    batch = TR.make_batches(TR.segments_from_text(text, vocab, 64)[:8], 8)[0]
    assert batch.inputs.shape == (8, 65)
    with T.Tape() as tape:
        TR._batch_loss(lm, batch, TR.WarningTally())
        n_records = len(tape)
    tape.release()
    assert len(attention_calls) == 2
    assert n_records < 145


@pytest.mark.parametrize("kw", [dict(), dict(multi_query=True),
                                dict(attention="window", window=2)])
def test_cached_decode_step_attends_once_per_layer(attention_calls, kw):
    m = model(n_layers=3, tau=4, **kw)
    session = m.decode_session()
    assert isinstance(session.state, A.KVCache)
    for tok in (SOS, 4, 5, 6):
        before = len(attention_calls)
        m.decode_step(session, tok)
        assert len(attention_calls) - before == 3
