"""Whole-model behavior: configs, padding, decoding sessions, pooling."""

import numpy as np
import pytest

import seqlab.attention as A
import seqlab.blocks as B
import seqlab.model as M
import seqlab.tensor as T
from seqlab.config import Config
from seqlab.embedding import CLS, EOS, PAD, SOS, Vocab, VocabError

F64 = np.float64
VOCAB = Vocab.from_text("abcdefgh")


def small_cfg(**kw):
    base = dict(d=8, n_layers=2, tau=2, d_ffn=16, architecture="decoder-only")
    base.update(kw)
    return M.ModelConfig(**base)


def build(seed=0, **kw):
    return M.Model.init(small_cfg(**kw), VOCAB, seed=seed, dtype=F64)


def toks(text):
    return VOCAB.encode(text)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_round_trips_through_text():
    cfg = small_cfg(attention="ssm", placement="weighted", beta=0.7, gamma=0.4,
                    moe_experts=4, moe_k=2, ssm_method="bilinear",
                    share_groups=((0, 1),), tie_embedding=True)
    text = cfg.to_config().to_text()
    again = M.ModelConfig.from_config(Config.parse(text))
    assert again == cfg


def test_config_defaults_survive_round_trip():
    cfg = small_cfg()
    assert M.ModelConfig.from_config(cfg.to_config()) == cfg


@pytest.mark.parametrize("kw", [
    dict(n_layers=0),
    dict(tau=3),                                   # does not divide d=8
    dict(placement="weighted"),                    # beta/gamma missing
    dict(attention="lowrank-n", reduced_length=4),  # needs encoder-only
    dict(attention="nope"),
    dict(dropout_rho=0.5),                         # post-norm default
    dict(moe_experts=2, moe_k=3),
    dict(integrator_order=4),                      # post-norm default
    dict(rpr=True, attention="window"),
    dict(attention="ssm", multi_query=True),
    dict(share_groups=((0,),)),
])
def test_config_rejects_inconsistent_settings(kw):
    with pytest.raises(B.ConfigurationError):
        small_cfg(**kw)


def test_final_norm_follows_residual_placement():
    post = build(placement="post")
    pre = build(placement="pre")
    names_post = dict(post.named())
    names_pre = dict(pre.named())
    assert "dec_norm.g" not in names_post
    assert "dec_norm.g" in names_pre


# ---------------------------------------------------------------------------
# construction and parameters
# ---------------------------------------------------------------------------


def test_named_parameters_are_unique_and_trainable():
    m = build()
    names = [n for n, _ in m.named()]
    assert len(names) == len(set(names))
    assert all(t.trainable for _, t in m.named())


def test_shared_layers_collapse_the_parameter_count():
    untied = build(n_layers=3)
    tied = build(n_layers=3, share_groups=((0, 1, 2),))
    assert len(tied.parameters()) < len(untied.parameters())
    # tied layers yield the very same tensors under different names
    named = dict(tied.named())
    assert named["dec0.att.w_qkv"] is named["dec2.att.w_qkv"]


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_embedding_reads_a_grown_position_table_bitwise(dtype):
    """The position rows come from a table kept in the model dtype and
    grown on demand; they equal sin/cos evaluated for just those rows."""
    m = M.Model.init(small_cfg(), VOCAB, seed=0, dtype=dtype)
    ids = np.array([4, 5, 6, 7, 3])
    for start in (0, 3, 2, 40, 17, 300, 1):
        got = m._embed_at(ids, start).values
        want = m.embed.weights.values[ids] \
            + m.pe.table(start + len(ids), start).astype(dtype)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_tied_embedding_drops_the_output_matrix():
    m = build(tie_embedding=True)
    assert "head.w_o" not in dict(m.named())
    lg = m.decoder_forward(toks("abc"))
    assert lg.shape == (3, len(VOCAB))


def test_zero_output_matrix_gives_the_uniform_distribution():
    m = build()
    T.assign_(m.w_o, np.zeros(m.w_o.shape))
    s = m.decode_session()
    p = m.decode_step(s, SOS)
    assert np.allclose(p, 1.0 / len(VOCAB), atol=1e-12)


# ---------------------------------------------------------------------------
# encoding and padding
# ---------------------------------------------------------------------------

ENC_VARIANTS = [
    dict(attention="dense"),
    dict(attention="window", window=3),
    dict(attention="linear"),
    dict(attention="lowrank-d"),
    dict(attention="lowrank-n", reduced_length=3, max_length=32),
    dict(attention="ssm"),
    dict(attention="dense", multi_query=True),
]


@pytest.mark.parametrize("kw", ENC_VARIANTS,
                         ids=[str(sorted(k.items())) for k in ENC_VARIANTS])
def test_appending_pad_leaves_non_pad_rows_unchanged(kw):
    m = build(architecture="encoder-only", **kw)
    ids = toks("fedcab")
    base = m.encode(ids).values
    padded = m.encode(ids + [PAD, PAD, PAD]).values
    assert np.max(np.abs(padded[: len(ids)] - base)) < 1e-9


def test_encode_rejects_empty_and_unknown_tokens():
    m = build(architecture="encoder-only")
    with pytest.raises(M.ContractError):
        m.encode([])
    with pytest.raises(VocabError):
        m.encode([len(VOCAB)])


def test_encode_needs_an_encoder():
    with pytest.raises(M.ContractError):
        build(architecture="decoder-only").encode(toks("ab"))


def test_interior_pad_is_rejected_where_masking_cannot_express_it():
    m = build(architecture="encoder-only", attention="linear")
    with pytest.raises(M.ContractError):
        m.encode([5, PAD, 6])


# ---------------------------------------------------------------------------
# decoder forward
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kw", [dict(), dict(attention="linear"),
                                dict(attention="ssm")])
def test_decoder_is_causal_bitwise(kw):
    m = build(**kw)
    a = m.decoder_forward(toks("abcde")).values
    b = m.decoder_forward(toks("abche")).values
    assert np.array_equal(a[:3], b[:3])


@pytest.mark.parametrize("kw", [dict(), dict(attention="window", window=2),
                                dict(attention="linear"), dict(attention="ssm"),
                                dict(rpr=True), dict(moe_experts=3)])
def test_id_matrix_forward_stacks_the_row_forwards(kw):
    m = build(**kw)
    rows = np.array([toks("abcde"), toks("hgfed"), toks("aaaab")])
    got = m.decoder_forward(rows).values
    assert got.shape == (3, 5, len(VOCAB))
    for r, ids in enumerate(rows):
        assert np.max(np.abs(got[r] - m.decoder_forward(ids).values)) < 1e-12


def test_encode_takes_one_sequence():
    m = build(architecture="encoder-only")
    with pytest.raises(M.ContractError):
        m.encode(np.array([toks("ab"), toks("cd")]))


def test_decoder_only_rejects_encoder_output():
    m = build()
    with pytest.raises(M.ContractError):
        m.decoder_forward(toks("ab"), enc_out=T.Tensor(np.zeros((2, 8))))


def test_encoder_decoder_requires_encoder_output():
    m = build(architecture="encoder-decoder")
    with pytest.raises(M.ContractError):
        m.decoder_forward(toks("ab"))


def test_decoder_only_is_the_cross_free_decoder():
    dec = build(seed=11)
    both = M.Model.init(small_cfg(architecture="encoder-decoder"), VOCAB,
                        seed=12, dtype=F64)
    src = dict(dec.named())
    for name, t in both.named():
        if name in src:
            T.assign_(t, src[name].values)
    for lay in both.dec_layers:
        lay.cross = None
        lay.ln_cross = None
    dummy = T.Tensor(np.zeros((3, 8)))
    got = both.decoder_forward(toks("abcd"), enc_out=dummy).values
    want = dec.decoder_forward(toks("abcd")).values
    assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------------------
# incremental decoding
# ---------------------------------------------------------------------------

DECODE_VARIANTS = [
    dict(),
    dict(placement="pre"),
    dict(placement="weighted", beta=0.6, gamma=0.7),
    dict(attention="window", window=3),
    dict(multi_query=True),
    dict(attention="linear"),
    dict(attention="ssm"),
    dict(attention="lowrank-d"),
    dict(rpr=True, rpr_clip=3),
    dict(placement="pre", integrator_order=2),
    dict(placement="pre", integrator_order=4),
    dict(attention="linear", placement="pre", integrator_order=2),
    dict(attention="ssm", placement="pre", integrator_order=2),
    dict(placement="pre", dropout_rho=0.7),
    dict(moe_experts=3, moe_k=2),
    dict(architecture="encoder-decoder"),
    dict(reuse_maps=True),
]


@pytest.mark.parametrize("kw", DECODE_VARIANTS,
                         ids=[str(sorted(k.items())) for k in DECODE_VARIANTS])
def test_stepwise_decoding_matches_the_full_forward_pass(kw):
    kw = dict(kw)
    arch = kw.pop("architecture", "decoder-only")
    m = build(architecture=arch, **kw)
    source = toks("hgf") if arch == "encoder-decoder" else None
    ids = [SOS] + toks("cabdab")
    enc = m.encode(source) if source else None
    full = T.softmax_rows(m.decoder_forward(ids, enc)).values
    sess = m.decode_session(source)
    for t, tok in enumerate(ids):
        p = m.decode_step(sess, tok)
        assert abs(p.sum() - 1.0) < 1e-6
        assert np.max(np.abs(p - full[t])) < 1e-6, f"step {t}"


def test_decode_session_clone_branches_independently():
    m = build()
    ids = [SOS] + toks("abc")
    sess = m.decode_session()
    for tok in ids:
        m.decode_step(sess, tok)
    branch = sess.clone()
    p_branch = m.decode_step(branch, toks("d")[0])
    p_orig = m.decode_step(sess, toks("e")[0])
    # original was not advanced by the branch
    assert sess.prefix[-1] == toks("e")[0]
    assert branch.prefix[-1] == toks("d")[0]
    replay = m.decode_session()
    for tok in ids + [toks("e")[0]]:
        p_ref = m.decode_step(replay, tok)
    assert np.max(np.abs(p_orig - p_ref)) < 1e-12
    assert not np.allclose(p_branch, p_orig)


def test_tampered_cache_raises_a_state_error():
    m = build()
    sess = m.decode_session()
    m.decode_step(sess, SOS)
    sess.prefix.pop()                      # cache now ahead of the prefix
    with pytest.raises(M.StateError):
        m.decode_step(sess, 4)


@pytest.mark.parametrize("tamper", ["rows", "width", "layers"])
def test_tampered_ssm_state_raises_a_state_error(tamper):
    m = build(attention="ssm")
    sess = m.decode_session()
    m.decode_step(sess, SOS)
    carry = sess.state.carry(0)
    if tamper == "rows":
        carry[:] = [np.concatenate([carry[0], carry[0]])]
    elif tamper == "width":
        carry[:] = [carry[0][:, :-1]]
    else:                                  # the state of a one-layer model
        sess.state = build(attention="ssm", n_layers=1).decode_session().state
    with pytest.raises(M.StateError):
        m.decode_step(sess, 4)


def test_tampered_stream_state_raises_a_state_error():
    m = build(attention="linear")
    sess = m.decode_session()
    m.decode_step(sess, SOS)
    sess.state._t[1] += 1                  # slot 1 ahead of the prefix
    with pytest.raises(M.StateError):
        m.decode_step(sess, 4)


@pytest.mark.parametrize("kw", [dict(), dict(attention="linear"),
                                dict(attention="ssm"), dict(rpr=True)])
def test_a_block_of_another_row_count_raises_a_state_error(kw):
    m = build(**kw)
    sess = m.decode_session()
    m.decode_step(sess, np.array([[SOS, 4]]))
    with pytest.raises(M.StateError):
        m.decode_step(sess, np.array([[4], [5]]))
    sess.select([0, 0])
    assert m.decode_step(sess, np.array([[4], [5]])).shape == (2, 1, len(VOCAB))


def test_a_cache_ahead_of_one_layer_raises_a_state_error():
    m = build()
    sess = m.decode_session()
    m.decode_step(sess, SOS)
    layer = m.dec_layers[1]
    x = T.Tensor(np.zeros((1, 1, m.cfg.d)))
    A.attend_step_cached(x, sess.state, layer.att, 1)   # layer 1 only
    with pytest.raises(M.StateError):
        m.decode_step(sess, 4)


def test_session_is_bound_to_its_model():
    m1, m2 = build(seed=1), build(seed=2)
    sess = m1.decode_session()
    with pytest.raises(M.StateError):
        m2.decode_step(sess, SOS)


def test_decode_step_rejects_out_of_range_tokens():
    m = build()
    sess = m.decode_session()
    with pytest.raises(VocabError):
        m.decode_step(sess, len(VOCAB))


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def test_sequence_logprob_matches_stepwise_accumulation():
    m = build(placement="pre")
    target = toks("bead") + [EOS]
    want = 0.0
    sess = m.decode_session()
    prev = SOS
    for tok in target:
        p = m.decode_step(sess, prev)
        want += float(np.log(p[tok]))
        prev = tok
    got = m.sequence_logprob(target)
    assert abs(got - want) < 1e-9


def test_sequence_logprob_with_a_source_side():
    m = build(architecture="encoder-decoder")
    got = m.sequence_logprob(toks("ab") + [EOS], source=toks("gh"))
    assert np.isfinite(got) and got < 0.0
    with pytest.raises(M.ContractError):
        m.sequence_logprob(toks("ab"))
    with pytest.raises(M.ContractError):
        build().sequence_logprob(toks("ab"), source=toks("gh"))
    with pytest.raises(M.ContractError):
        m.sequence_logprob([], source=toks("gh"))


# ---------------------------------------------------------------------------
# chunked evaluation with a frozen previous chunk
# ---------------------------------------------------------------------------


def test_chunked_forward_matches_the_full_pass():
    m = build()
    ids = [SOS] + toks("abcdefgh") + toks("hgf")
    full = m.decoder_forward(ids).values
    kv = []
    first = m.decoder_forward(ids[:6], kv_out=kv).values
    second = m.decoder_forward(ids[6:], start_pos=6, kv_prefix=kv).values
    got = np.vstack([first, second])
    assert np.max(np.abs(got - full)) < 1e-9


def test_cached_forward_counts_the_attention_work():
    """A forward through the KV cache (kv_out given) and a decode-style
    span over a prefix tally the same multiply-adds as the plain pass."""
    m = M.Model.init(small_cfg(), VOCAB, seed=0)
    ids = [SOS] + toks("abc")
    plain, cached, split = A.OpCounter(), A.OpCounter(), A.OpCounter()
    m.decoder_forward(ids, counter=plain)
    m.decoder_forward(ids, counter=cached, kv_out=[])
    kv = []
    m.decoder_forward(ids[:2], counter=split, kv_out=kv)
    m.decoder_forward(ids[2:], counter=split, start_pos=2, kv_prefix=kv)
    assert plain.multiply_adds == 512
    assert cached.multiply_adds == 512
    # query-key pairs: 2 x 2 in the first span, 2 x (2 + 2) in the
    # second, against 4 x 4 in one pass
    assert split.multiply_adds == 512 * (4 + 8) // 16


CHUNK_VARIANTS = [
    dict(attention="window", window=3),
    dict(attention="window", window=7),
    dict(multi_query=True),
    dict(rpr=True, rpr_clip=3),
    dict(attention="lowrank-d"),
    dict(reuse_maps=True),
    dict(placement="pre", integrator_order=2),
    dict(placement="pre", integrator_order=4),
    dict(attention="linear"),
    dict(attention="ssm"),
    dict(attention="linear", placement="pre", integrator_order=2),
    dict(attention="ssm", placement="pre", integrator_order=2),
]


@pytest.mark.parametrize("kw", CHUNK_VARIANTS,
                         ids=[str(sorted(k.items())) for k in CHUNK_VARIANTS])
def test_chunked_forward_matches_the_full_pass_per_variant(kw):
    # a span of 6 reaches every position a window of up to 7 sees
    m = build(**kw)
    ids = [SOS] + toks("abcdefgh") + toks("hgf")
    full = m.decoder_forward(ids).values
    kv = []
    first = m.decoder_forward(ids[:6], kv_out=kv).values
    assert len(kv) == m.cfg.n_layers * m.cfg.integrator_order
    second = m.decoder_forward(ids[6:], start_pos=6, kv_prefix=kv).values
    got = np.vstack([first, second])
    assert np.max(np.abs(got - full)) < 1e-12


@pytest.mark.parametrize("kw", CHUNK_VARIANTS,
                         ids=[str(sorted(k.items())) for k in CHUNK_VARIANTS])
def test_a_span_through_the_cache_has_the_full_pass_gradients(kw):
    m = build(**kw)
    ids = [SOS] + toks("abcdefgh")
    probe = T.Tensor(T.Rng(5).gaussian((len(ids), len(VOCAB))), dtype=F64)
    grads = []
    for kv_out in (None, []):
        with T.Tape() as tape:
            loss = T.reduce_sum(m.decoder_forward(ids, kv_out=kv_out) * probe)
        table = T.backward(loss)
        tape.release()
        grads.append([table.get(p) for p in m.parameters()])
    for got, want in zip(*grads):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.max(np.abs(got.values - want.values)) < 1e-12


@pytest.mark.parametrize("kw", [dict(placement="pre", dropout_rho=0.7)],
                         ids=["layer-dropout"])
def test_chunked_forward_refuses_what_keeps_no_key_value_history(kw):
    m = build(**kw)
    with pytest.raises(B.ConfigurationError):
        m.decoder_forward(toks("abcd"), kv_out=[])


# ---------------------------------------------------------------------------
# pooling and similarity
# ---------------------------------------------------------------------------


def test_mean_pooling_ignores_padding():
    m = build(architecture="encoder-only")
    ids = toks("cafe")
    base = M.pool(m.encode(ids), ids).values
    padded_ids = ids + [PAD, PAD]
    padded = M.pool(m.encode(padded_ids), padded_ids).values
    assert np.max(np.abs(base - padded)) < 1e-9


def test_cls_pooling_returns_the_marker_row_and_demands_it():
    m = build(architecture="encoder-only")
    ids = [CLS] + toks("db")
    h = m.encode(ids)
    assert np.array_equal(M.pool(h, ids, "cls").values, h.values[:1])
    with pytest.raises(M.ContractError):
        M.pool(h, toks("adb"), "cls")


def test_pooling_rejects_all_pad_and_unknown_modes():
    h = T.Tensor(np.ones((2, 4)))
    with pytest.raises(M.ContractError):
        M.pool(h, [PAD, PAD])
    with pytest.raises(ValueError):
        M.pool(h, [4, 5], mode="max")


def test_similarity_metrics():
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert M.similarity(u, v, "euclidean") == pytest.approx(np.sqrt(2.0))
    assert M.similarity(u, u, "cosine") == pytest.approx(1.0)
    assert M.similarity(u, -u, "cosine") == pytest.approx(-1.0)
    with pytest.raises(M.DegenerateVectorError):
        M.similarity(u, np.zeros(2), "cosine")
    with pytest.raises(ValueError):
        M.similarity(u, v, "manhattan")


def test_euclidean_similarity_satisfies_the_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c = rng.normal(size=(3, 6))
        ab = M.similarity(a, b, "euclidean")
        bc = M.similarity(b, c, "euclidean")
        ac = M.similarity(a, c, "euclidean")
        assert ac <= ab + bc + 1e-12


def test_represent_gives_one_vector_per_sequence():
    m = build(architecture="encoder-only")
    vec = m.represent(toks("bag"))
    assert vec.shape == (8,) and vec.dtype == np.float64


def test_sequence_similarity_is_symmetric_and_reflexive():
    m = build(architecture="encoder-only")
    a, b = toks("head"), toks("bed")
    assert m.similarity(a, a, "euclidean") == pytest.approx(0.0, abs=1e-12)
    assert m.similarity(a, a, "cosine") == pytest.approx(1.0)
    assert m.similarity(a, b, "cosine") == pytest.approx(m.similarity(b, a, "cosine"))


def test_single_token_sequences_work_end_to_end():
    m = build(architecture="encoder-only")
    h = m.encode(toks("a"))
    assert h.shape == (1, 8)
    assert np.array_equal(M.pool(h, toks("a"), "mean").values, h.values)
    hc = m.encode([CLS])
    assert np.array_equal(M.pool(hc, [CLS], "cls").values, hc.values)


def test_length_one_target_scores_the_single_softmax_entry():
    m = build()
    tgt = toks("c")
    sess = m.decode_session()
    p = m.decode_step(sess, SOS)
    assert m.sequence_logprob(tgt) == pytest.approx(float(np.log(p[tgt[0]])))
