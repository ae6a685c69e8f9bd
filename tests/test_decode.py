"""Array-backed, batched decode sessions against the paths they replace.

Block prefill is checked against one-token steps, batched beam search
against a pinned copy of the clone-per-candidate search, the bounded
window cache against the masked full-history forward, and the encoder
K/V projection count of encoder-decoder decoding. Everything runs in
float64.
"""

import numpy as np
import pytest

import seqlab.attention as A
import seqlab.model as M
import seqlab.runtime as R
import seqlab.tensor as T
from seqlab.embedding import CLS, EOS, PAD, SOS, Vocab

from test_model import DECODE_VARIANTS

F64 = np.float64
VOCAB = Vocab.from_text("abcdefgh")
TOL = 1e-12


def build(seed=0, **kw):
    base = dict(d=8, n_layers=2, tau=2, d_ffn=16)
    base.update(kw)
    return M.Model.init(M.ModelConfig(**base), VOCAB, seed=seed, dtype=F64)


def source_for(model):
    return VOCAB.encode("hgfe") if model.cfg.architecture == "encoder-decoder" \
        else None


# ---------------------------------------------------------------------------
# block prefill
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kw", DECODE_VARIANTS,
                         ids=[str(sorted(k.items())) for k in DECODE_VARIANTS])
def test_block_prefill_equals_token_steps(kw):
    m = build(**kw)
    ids = [SOS] + VOCAB.encode("cabdabc")
    stepped = m.decode_session(source_for(m))
    want = np.stack([m.decode_step(stepped, t) for t in ids])
    blocked = m.decode_session(source_for(m))
    got = np.concatenate([m.decode_step(blocked, np.array([ids[:5]]))[0],
                          m.decode_step(blocked, np.array([ids[5:]]))[0]])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < TOL
    # both sessions continue identically
    tok = VOCAB.encode("d")[0]
    assert np.max(np.abs(m.decode_step(blocked, tok)
                         - m.decode_step(stepped, tok))) < TOL


@pytest.mark.parametrize("kw", DECODE_VARIANTS,
                         ids=[str(sorted(k.items())) for k in DECODE_VARIANTS])
def test_decode_never_reruns_the_prefix(kw, monkeypatch):
    m = build(**kw)
    ids = [SOS] + VOCAB.encode("cabdabc")
    enc = m.encode(source_for(m)) if source_for(m) else None
    full = T.softmax_rows(m.decoder_forward(ids, enc)).values

    def refuse(*args, **kwargs):
        raise AssertionError("a decode session ran the full forward")

    fed = []
    attend = A.attend_step_cached

    def recording(x, *args, **kwargs):
        fed.append(x.shape[-2])
        return attend(x, *args, **kwargs)

    monkeypatch.setattr(M.Model, "decoder_forward", refuse)
    monkeypatch.setattr(A, "attend_step_cached", recording)
    session = m.decode_session(source_for(m))
    got = [m.decode_step(session, np.array([ids[:3]]))[0]]
    got += [m.decode_step(session, t)[None] for t in ids[3:]]
    assert np.max(np.abs(np.concatenate(got) - full)) < TOL
    # a cached step attends only its new block: one call per layer and
    # integrator stage, each fed the block's positions and no earlier one
    slots = m.cfg.n_layers * m.cfg.integrator_order
    if session.mode == "cache":
        assert fed == [3] * slots + [1] * slots * (len(ids) - 3)


def test_batched_rows_equal_separate_sessions():
    m = build(attention="window", window=3)
    rows = [[SOS] + VOCAB.encode(s) for s in ("abcd", "hgfe", "aaaa")]
    batched = m.decode_session()
    batched.select([0, 0, 0])
    got = m.decode_step(batched, np.array(rows))
    for r, ids in enumerate(rows):
        single = m.decode_session()
        want = m.decode_step(single, np.array([ids]))[0]
        assert np.max(np.abs(got[r] - want)) < TOL


def test_decode_step_rejects_a_one_dimensional_block():
    m = build()
    with pytest.raises(M.ContractError):
        m.decode_step(m.decode_session(), [SOS, 4])


@pytest.mark.parametrize("shape", [(0, 1), (1, 0), (0, 0)], ids=str)
def test_decode_step_rejects_an_empty_block(shape):
    m = build()
    with pytest.raises(M.ContractError):
        m.decode_step(m.decode_session(), np.zeros(shape, dtype=np.int64))


# ---------------------------------------------------------------------------
# batched beam search against the clone-per-candidate loop
# ---------------------------------------------------------------------------


_SUPPRESSED = (PAD, SOS, CLS)


def reference_beam(model, prompt, cfg, source=None):
    """Beam search as it was before sessions held rows: every candidate
    clones its parent's one-row session and takes its own step, including
    candidates that retire."""
    session = model.decode_session(source)
    dist = model.decode_step(session, SOS)
    for t in prompt:
        dist = model.decode_step(session, int(t))
    live = [([], 0.0, session, dist)]
    pool = []
    while live:
        candidates = []
        for idx, (tokens, logprob, _, dist) in enumerate(live):
            logp = np.log(np.maximum(dist.astype(np.float64), 1e-300))
            for v in range(len(model.vocab)):
                if v in _SUPPRESSED:
                    continue
                cum = logprob + float(logp[v])
                length = len(tokens) + 1
                norm = cum if cfg.alpha_len == 0.0 \
                    else cum / length ** cfg.alpha_len
                candidates.append((-norm, idx, v, cum))
        candidates.sort()
        next_live = []
        for _, idx, v, cum in candidates[:cfg.beam]:
            tokens, _, parent, _ = live[idx]
            sess = parent.clone()
            d = model.decode_step(sess, v)
            hyp = (tokens + [v], cum, sess, d)
            if v == EOS or len(hyp[0]) >= cfg.n_max:
                pool.append(hyp)
            else:
                next_live.append(hyp)
        live = next_live

    def score(h):
        if cfg.alpha_len == 0.0 or not h[0]:
            return h[1]
        return h[1] / len(h[0]) ** cfg.alpha_len

    pool.sort(key=lambda h: (-score(h), len(h[0]), h[0]))
    return [(h[0], h[1]) for h in pool]


BEAM_MODELS = [
    dict(),
    dict(attention="window", window=3),
    dict(multi_query=True),
    dict(architecture="encoder-decoder"),
    dict(attention="linear"),
    dict(attention="ssm"),
    dict(rpr=True, rpr_clip=3),
]


def eos_likely(model):
    # lift the EOS column so some hypotheses retire before n_max
    w = model.w_o.values.copy()
    w[:, EOS] += T.Rng(3).gaussian((model.cfg.d,)) * 2.0
    T.assign_(model.w_o, w)
    return model


@pytest.mark.parametrize("kw", BEAM_MODELS,
                         ids=[str(sorted(k.items())) for k in BEAM_MODELS])
@pytest.mark.parametrize("beam,alpha", [(3, 0.0), (4, 0.7)])
def test_batched_beam_equals_clone_per_candidate(kw, beam, alpha):
    model = eos_likely(build(seed=5, **kw))
    assert model.decode_mode() in ("cache", "stream", "ssm")
    cfg = R.SearchConfig(beam=beam, n_max=6, alpha_len=alpha)
    prompt = VOCAB.encode("ab")
    got = R.beam_search(model, prompt, cfg, source=source_for(model))
    want = reference_beam(model, prompt, cfg, source=source_for(model))
    assert [h.tokens for h in got] == [tokens for tokens, _ in want]
    assert any(h.tokens[-1] == EOS for h in got)
    for hyp, (_, logprob) in zip(got, want):
        assert abs(hyp.logprob - logprob) < TOL


def test_beam_takes_one_step_per_iteration_and_none_for_retirees(monkeypatch):
    model = build(seed=6)
    w = model.w_o.values.copy()
    w[:, EOS] = -50.0                      # EOS never wins a beam slot
    T.assign_(model.w_o, w)
    fed = []
    step = M.Model.decode_step

    def counting(self, session, tokens):
        fed.append(np.shape(tokens))
        return step(self, session, tokens)

    monkeypatch.setattr(M.Model, "decode_step", counting)
    pool = R.beam_search(model, VOCAB.encode("ab"),
                         R.SearchConfig(beam=3, n_max=4))
    assert len(pool) == 3 and all(len(h.tokens) == 4 for h in pool)
    # the prompt block, then one (3, 1) step for each of the 3 iterations
    # whose hypotheses go on; the last iteration retires all of them
    assert fed == [(1, 3), (3, 1), (3, 1), (3, 1)]


# ---------------------------------------------------------------------------
# bounded window cache
# ---------------------------------------------------------------------------


def test_window_cache_stays_bounded_and_equals_the_masked_forward():
    window, n = 8, 70
    m = build(seed=3, attention="window", window=window)
    rng = np.random.default_rng(0)
    ids = [SOS] + [int(t) for t in rng.integers(4, len(VOCAB), n - 1)]
    full = T.softmax_rows(m.decoder_forward(ids)).values
    session = m.decode_session()
    for t, tok in enumerate(ids):
        got = m.decode_step(session, tok)
        assert np.max(np.abs(got - full[t])) < TOL, f"step {t}"
    for layer in range(m.cfg.n_layers):
        assert session.kv.length(layer) == n
        assert session.kv.keys(layer).shape[1] <= window
        assert session.kv.values_(layer).shape[1] <= window
        # the arrays' capacity stays within twice a window plus a step
        assert session.kv._kv[layer][0].shape[1] <= 2 * window


@pytest.mark.parametrize("kw,widths", [
    (dict(), [(8, 8)] * 3),
    (dict(attention="window", window=3), [(8, 8)] * 3),
    (dict(multi_query=True), [(4, 4)] * 3),
    (dict(attention="lowrank-d"), [(4, 8)] * 3),
    (dict(attention="lowrank-d", reduced_width=1), [(2, 8)] * 3),
    (dict(reuse_maps=True), [(8, 8), (0, 8), (0, 8)]),
], ids=["dense", "window", "multi-query", "lowrank-d", "lowrank-d-1",
        "map-reuse"])
def test_cache_columns_per_position(kw, widths):
    """Key and value columns each layer caches per position, d_h = 4 and
    n_kv = 2: 2 n_kv d_h for dense and window, 2 d_h for multi-query,
    n_kv (d' + d_h) for width reduction, and n_kv d_h (V alone) for the
    layers after the first with map reuse."""
    m = build(n_layers=3, **kw)
    session = m.decode_session()
    m.decode_step(session, np.array([[SOS] + VOCAB.encode("cab")]))
    m.decode_step(session, 4)
    got = [(session.kv.keys(i).shape[-1], session.kv.values_(i).shape[-1])
           for i in range(3)]
    assert got == widths
    assert [tuple(a.shape[-1] for a in session.kv._kv[i]) for i in range(3)] \
        == widths


def test_cache_rows_are_never_overwritten():
    cache = A.KVCache(1)
    rng = T.Rng(4)
    first = rng.gaussian((1, 3, 4))
    k, v, back = cache.write(0, first, first)
    assert back == 0
    snapshot = k.copy()
    for _ in range(40):                    # forces several regrowths
        row = rng.gaussian((1, 1, 4))
        cache.write(0, row, row)
    cache.select([0, 0])
    assert np.array_equal(k, snapshot)
    assert cache.keys(0).shape == (2, 43, 4)


def test_cache_refuses_a_block_of_another_row_count():
    cache = A.KVCache(1)
    cache.write(0, np.zeros((2, 1, 4)), np.zeros((2, 1, 4)))
    with pytest.raises(M.StateError):
        cache.write(0, np.zeros((3, 1, 4)), np.zeros((3, 1, 4)))


# ---------------------------------------------------------------------------
# cross-attention keys and values, projected once
# ---------------------------------------------------------------------------


def test_encoder_rows_meet_cross_wk_wv_once_per_layer(monkeypatch):
    m = M.Model.init(M.ModelConfig(d=16, n_layers=2, tau=2, d_ffn=32,
                                   architecture="encoder-decoder"),
                     VOCAB, seed=1)
    w = m.w_o.values.copy()
    w[:, EOS] = -50.0                      # run the full 20 tokens
    T.assign_(m.w_o, w)
    cross = {id(lay.cross.w_qkv) for lay in m.dec_layers}
    hits = []
    matmul = T.matmul

    def counting(a, b, cols=None):
        if id(b) in cross and cols != (0, 16):      # not the query columns
            hits.append((np.shape(getattr(a, "values", a)), cols))
        return matmul(a, b, cols=cols)

    monkeypatch.setattr(T, "matmul", counting)
    source = VOCAB.encode("abcdefghabcdef")
    out = R.greedy_generate(m, VOCAB.encode("ab"), R.SearchConfig(n_max=20),
                            source=source)
    assert len(out) == 20
    # one product per layer against the key and value columns together
    assert hits == [((len(source), 16), (16, 48))] * m.cfg.n_layers
