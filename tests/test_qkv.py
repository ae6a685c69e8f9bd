"""One QKV product per attention layer against the three-matrix path.

Every attention block stores W^q, W^k and W^v side by side in one W^qkv.
The reference kept here runs the path it replaces: three separate
trainable matrices, three products and three head splits per
self-attention pass (the window pass joins the three into one W^qkv),
cached keys and values read through a view of the cache that ends in
the block's own projections, cross attention against separate W^q and
W^k/W^v products, a residual added before its layer norm, and the
quantizer's one step per matrix. Float32 logits and whole
decodes are compared bit for bit, float64 gradients within 1e-12, and
criterion-10 training losses as stated at each test. One exception: a
width-reduced cache holds each key reduced once, by a one-row product
at its own step, where the reference reduces the whole cached history
again at every step, so float32 cached-step distributions of lowrank-d
agree within F32_REDUCED_TOL (1e-6; 7.6e-9 measured over ten seeds).
"""

import hashlib
import importlib.resources
import os
import struct

import numpy as np
import pytest

from seqlab import attention as A
from seqlab import blocks as B
from seqlab import embedding as E
from seqlab import model as M
from seqlab import oracles as O
from seqlab import runtime as R
from seqlab import tensor as T
from seqlab import train as TR

import pinned_composite as P

F32, F64 = np.float32, np.float64
TOL = 1e-12
F32_REDUCED_TOL = 1e-6
VOCAB = E.Vocab.from_text("abcdefgh")


# ---------------------------------------------------------------------------
# the three-matrix reference, pinned
# ---------------------------------------------------------------------------


class ThreeMatrices:
    """Separate trainable W^q, W^k, W^v per attention block, copied from
    its W^qkv at first use; the block object is held so its id stays its
    own."""

    def __init__(self):
        self._blocks = {}

    def __call__(self, params):
        if id(params) not in self._blocks:
            w = params.w_qkv.values
            parts = [T.Tensor(w[:, slice(*c)].copy(), trainable=True)
                     for c in (params.q_cols, params.k_cols, params.v_cols)]
            self._blocks[id(params)] = (params, *parts)
        return self._blocks[id(params)][1:]


def ending_in(stored, new):
    """``stored`` (..., n, d), whose last rows hold ``new``'s values, as
    one tensor; the gradient of those rows flows to ``new``."""
    m = new.shape[-2]
    return T.relayout(new, lambda _: stored, lambda g: g[..., -m:, :])


def reference_functions(blocks):
    def heads(self, x):
        wq, wk, wv = blocks(self)
        return (A.split_heads(T.matmul(x, wq), self.tau),
                A.split_heads(T.matmul(x, wk), self.n_kv),
                A.split_heads(T.matmul(x, wv), self.n_kv))

    def self_attention(h, params, mask=None, counter=None, *, rpr=None,
                       maps=None):
        return params.merge(P.attend_heads(
            *heads(params, h), mask, counter, rpr, params.reduce, maps))

    window = A.window_attention

    def window_attention(h, params, *args):
        # the blocked pass on a W^qkv joined from the three matrices
        joined = A.AttentionParams(params.d, params.tau,
                                   T.concat(list(blocks(params)), axis=1),
                                   params.w_out)
        return window(h, joined, *args)

    def named(self, prefix=""):
        wq, wk, wv = blocks(self)
        yield f"{prefix}wq", wq
        yield f"{prefix}wk", wk
        yield f"{prefix}wv", wv
        yield f"{prefix}w_out", self.w_out

    def cross_kv(h_enc, params):
        if h_enc.shape[-2] == 0:
            raise A.EmptySourceError("cross attention against an empty source")
        _, wk, wv = blocks(params)
        return (A.split_heads(T.matmul(h_enc, wk), params.n_kv),
                A.split_heads(T.matmul(h_enc, wv), params.n_kv))

    def cross_attention(h_enc, s_self, params, counter=None, kv=None):
        k, v = cross_kv(h_enc, params) if kv is None else kv
        q = A.split_heads(T.matmul(s_self, blocks(params)[0]), params.tau)
        return params.merge(A.qkv_attention(q, k, v, counter=counter))

    def attend_step_cached(x, cache, params, layer, rpr=None, counter=None,
                           maps=None):
        wq, wk, wv = blocks(params)
        q, k_new, v_new = T.matmul(x, wq), T.matmul(x, wk), T.matmul(x, wv)
        k, v, back = cache.write(layer, k_new.values, v_new.values)
        mask = A._step_mask(x.shape[1], back, cache.window)
        out = params.merge(P.attend_heads(
            A.split_heads(q, params.tau),
            A.split_heads(ending_in(k, k_new), params.n_kv),
            A.split_heads(ending_in(v, v_new), params.n_kv), mask, counter,
            rpr, params.reduce, maps, back))
        return out

    def sublayer_apply(h_in, core, ln, cfg):
        beta, gamma = cfg.residual_weights()
        out = B.layer_norm(B._plus_weighted(core(h_in), h_in, beta), ln)
        return B._plus_weighted(out, h_in, gamma)

    return dict(heads=heads, named=named, self_attention=self_attention,
                window_attention=window_attention,
                cross_kv=cross_kv,
                cross_attention=cross_attention,
                attend_step_cached=attend_step_cached,
                sublayer_apply=sublayer_apply)


def reference_weight_quant_specs(model, bits):
    """One step max|w| / q_max per weight matrix."""
    q_max = (1 << (bits - 1)) - 1
    specs = {}
    for name, w in model.named():
        if name.rsplit(".", 1)[-1] in ("wq", "wk", "wv", "w_out", "w_h", "w_f"):
            top = float(np.max(np.abs(w.values)))
            specs[id(w)] = None if top == 0.0 \
                else T.QuantSpec(top / q_max, bits)
    return specs


def reference_quant_route(specs, bits, stats=None):
    q_max = (1 << (bits - 1)) - 1
    levels = {}

    def route(a, b, cols=None):
        assert cols is None                  # three matrices: no blocks
        if id(b) not in specs:
            return None
        spec_b = specs[id(b)]
        shape = a.shape[:-1] + b.shape[1:]
        if spec_b is None:
            return T.Tensor(np.zeros(shape, np.result_type(a.dtype, b.dtype)))
        if id(b) not in levels:
            levels[id(b)] = T.quantize_levels(b.values, spec_b)
        rows = a.values.reshape(-1, a.shape[-1])
        top = np.abs(rows).max(axis=1, keepdims=True).astype(np.float64)
        spec_a = T.QuantSpec(np.where(top == 0.0, 1.0, top) / q_max, bits)
        out = T.quantized_matmul(T.Tensor(rows), b, spec_a, spec_b, stats,
                                 stats, levels_b=levels[id(b)])
        return T.Tensor(out.values.reshape(shape))

    return route


@pytest.fixture
def three_matrix(monkeypatch):
    """Route every model through the three-matrix reference; returns the
    separate matrices of a block."""
    blocks = ThreeMatrices()
    ref = reference_functions(blocks)
    monkeypatch.setattr(A.AttentionParams, "heads", ref["heads"])
    monkeypatch.setattr(A.AttentionParams, "named", ref["named"])
    for name in ("self_attention", "window_attention", "cross_kv",
                 "cross_attention", "attend_step_cached"):
        monkeypatch.setattr(A, name, ref[name])
    monkeypatch.setattr(B, "sublayer_apply", ref["sublayer_apply"])
    monkeypatch.setattr(R, "weight_quant_specs", reference_weight_quant_specs)
    monkeypatch.setattr(R, "_quant_route", reference_quant_route)
    return blocks


def fused_grads(grads, model, blocks=None):
    """Every parameter's gradient by name; with the reference's
    ``blocks``, a block's W^q/W^k/W^v gradients joined as one W^qkv (a
    matrix the loss does not reach, such as the W^q and W^k of a layer
    that reuses an earlier layer's attention map, has a zero gradient)."""

    def grad(t):
        g = grads.get(t)
        return np.zeros(t.shape) if g is None else g.values

    out = {}
    for i, lay in enumerate(model.dec_layers):
        for role in ("att", "cross"):
            p = getattr(lay, role)
            if p is None:
                continue
            parts = [p.w_qkv] if blocks is None else blocks(p)
            out[f"dec{i}.{role}"] = np.concatenate([grad(t) for t in parts],
                                                   axis=1)
            out[f"dec{i}.{role}.w_out"] = grad(p.w_out)
    out["embed"] = grad(model.embed.weights)
    return out


# ---------------------------------------------------------------------------
# float32 logits, bitwise
# ---------------------------------------------------------------------------

LOGIT_VARIANTS = {
    "dense": dict(),
    "window": dict(attention="window", window=3),
    "encoder-decoder": dict(architecture="encoder-decoder"),
    "multi-query": dict(multi_query=True),
    "rpr": dict(rpr=True, rpr_clip=3),
    "lowrank-d": dict(attention="lowrank-d"),
    "map-reuse": dict(reuse_maps=True),
    "linear": dict(attention="linear"),
}


def build(kw, seed=3, dtype=F32, **extra):
    base = dict(d=16, n_layers=2, tau=4, d_ffn=32)
    base.update(kw, **extra)
    return M.Model.init(M.ModelConfig(**base), VOCAB, seed=seed, dtype=dtype)


def logits_of(model, ids):
    """Full-pass logits, then next-token distributions of the same ids
    decoded on the cache."""
    enc = model.cfg.architecture == "encoder-decoder"
    source = [3, 4, 5, 6, 7, 4] if enc else None
    enc_out = model.encode(source) if enc else None
    full = model.decoder_forward(ids, enc_out).values
    session = model.decode_session(source)
    steps = [model.decode_step(session, np.asarray([ids[:3]]))[0]]
    steps += [model.decode_step(session, t) for t in ids[3:]]
    return full, np.concatenate([steps[0], np.stack(steps[1:])])


@pytest.mark.parametrize("kw", LOGIT_VARIANTS.values(), ids=LOGIT_VARIANTS)
def test_float32_logits_are_bitwise_the_three_matrix_path(kw, request):
    ids = [E.SOS, 4, 5, 6, 7, 3, 4, 5]
    model = build(kw)
    full, steps = logits_of(model, ids)
    request.getfixturevalue("three_matrix")
    want_full, want_steps = logits_of(model, ids)
    assert full.dtype == F32
    assert full.tobytes() == want_full.tobytes()
    if kw.get("attention") == "lowrank-d":
        assert np.max(np.abs(steps - want_steps)) <= F32_REDUCED_TOL
    else:
        assert steps.tobytes() == want_steps.tobytes()


# ---------------------------------------------------------------------------
# float64 gradients, full pass and chunked
# ---------------------------------------------------------------------------


def grads_of(model, blocks=None, chunked=False):
    ids = [E.SOS, 4, 5, 6, 7, 3, 4, 5]
    probe = T.Tensor(T.Rng(9).gaussian((len(ids), len(VOCAB))), dtype=F64)
    enc = model.cfg.architecture == "encoder-decoder"
    with T.Tape() as tape:
        enc_out = model.encode([3, 4, 5, 6]) if enc else None
        if chunked:
            kv = []
            model.decoder_forward(ids[:5], kv_out=kv)
            logits = model.decoder_forward(ids[5:], start_pos=5, kv_prefix=kv)
            probe = T.Tensor(probe.values[5:], dtype=F64)
        else:
            logits = model.decoder_forward(ids, enc_out)
        loss = T.reduce_sum(logits * probe)
    grads = T.backward(loss)
    tape.release()
    return fused_grads(grads, model, blocks)


CHUNKED_VARIANTS = {k: LOGIT_VARIANTS[k] for k in
                    ("dense", "window", "multi-query", "rpr", "lowrank-d",
                     "map-reuse")}


@pytest.mark.parametrize(
    "chunked,kw", [(False, kw) for kw in LOGIT_VARIANTS.values()]
    + [(True, kw) for kw in CHUNKED_VARIANTS.values()],
    ids=[f"full-{k}" for k in LOGIT_VARIANTS]
    + [f"chunked-{k}" for k in CHUNKED_VARIANTS])
def test_float64_gradients_match_the_three_matrix_path(chunked, kw, request):
    model = build(kw, dtype=F64)
    got = grads_of(model, chunked=chunked)
    blocks = request.getfixturevalue("three_matrix")
    want = grads_of(model, blocks, chunked=chunked)
    assert got.keys() == want.keys()
    for name in got:
        assert np.max(np.abs(got[name] - want[name])) <= TOL, name


# ---------------------------------------------------------------------------
# whole decodes of the benchmark's shape, bitwise
# ---------------------------------------------------------------------------

SHAPE = dict(d=64, n_layers=2, tau=4, d_ffn=256, placement="post")


def corpus():
    return (importlib.resources.files("seqlab") / "data" / "corpus.txt").read_text()


@pytest.fixture(scope="module")
def decode_models():
    text = corpus()
    vocab = E.Vocab.from_text(text)
    ordinary = [v for v in range(len(vocab))
                if v not in (E.PAD, E.SOS, E.EOS, E.CLS)]
    configs = {"dense": {}, "encdec": dict(architecture="encoder-decoder"),
               "window": dict(attention="window", window=8)}
    models = {}
    for seed, (kind, kw) in enumerate(configs.items(), start=5):
        m = M.Model.init(M.ModelConfig(**SHAPE, **kw), vocab, seed=seed)
        w = m.w_o.values.copy()
        w[:, E.EOS] = w[:, ordinary].mean(axis=1)
        T.assign_(m.w_o, w)
        models[kind] = m
    return models, vocab.encode(text[200:206]), vocab.encode(text[400:414])


def decodes(models, prompt, source):
    cfg = R.SearchConfig(n_max=24)
    beam = R.beam_search(models["dense"], prompt, R.SearchConfig(beam=4, n_max=10))
    return [
        ("greedy", R.greedy_generate(models["dense"], prompt, cfg)),
        ("beam4", [(b.tokens, np.float64(b.logprob).tobytes()) for b in beam]),
        ("quant8", R.quantized_infer(models["dense"], prompt, cfg, bits=8)),
        ("quant16", R.quantized_infer(models["dense"], prompt, cfg, bits=16)),
        ("encdec", R.greedy_generate(models["encdec"], prompt, cfg,
                                     source=source)),
        ("window8", R.greedy_generate(models["window"], prompt,
                                      R.SearchConfig(n_max=64))),
    ]


def test_decodes_are_bitwise_the_three_matrix_path(decode_models, request):
    fused = decodes(*decode_models)
    request.getfixturevalue("three_matrix")
    assert decodes(*decode_models) == fused


def test_quantized_logits_are_bitwise_the_three_matrix_path(decode_models,
                                                            request):
    models, prompt, source = decode_models
    ids = [E.SOS] + prompt
    enc = models["encdec"]
    stats = T.QuantStats(), T.QuantStats()
    got = [O.quantized_forward(models["dense"], ids, 8, stats[0])]
    with R.quantized(enc, 8, stats[0]):
        got.append(enc.decoder_forward(ids, enc.encode(source)).values)
    request.getfixturevalue("three_matrix")
    want = [O.quantized_forward(models["dense"], ids, 8, stats[1])]
    with R.quantized(enc, 8, stats[1]):
        want.append(enc.decoder_forward(ids, enc.encode(source)).values)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    # the fused path quantizes a self-attention input once, not three
    # times, and cross attention's encoder rows once, not twice
    d, layers, m, n_src = 64, 2, len(ids), len(source)
    saved = 2 * d * layers * (m + m + n_src) + d * layers * n_src
    assert stats[0].saturated == stats[1].saturated
    assert stats[1].count - stats[0].count == saved


def test_quantized_decode_stats_follow_the_three_matrix_path(decode_models,
                                                             request,
                                                             monkeypatch):
    """QuantStats over an 8-bit cached decode, whose weights come from the
    model's kept table, against the reference route, which derives its
    specs and levels in every context: the same tokens and saturations,
    and fewer levels by exactly the self-attention inputs the fused
    projection quantizes once instead of three times, at every position
    fed to the decoder (rejected draft positions included)."""
    models, prompt, _ = decode_models
    cfg = R.SearchConfig(n_max=12)
    stats = T.QuantStats(), T.QuantStats()
    R.quantized_infer(models["dense"], prompt, cfg, bits=8)    # fills the table
    fed = [0, 0]                             # positions fed in each run
    decode_step = M.Model.decode_step

    def counting(self, session, tokens):
        fed[-1] += np.size(tokens)
        return decode_step(self, session, tokens)

    monkeypatch.setattr(M.Model, "decode_step", counting)
    got = R.quantized_infer(models["dense"], prompt, cfg, bits=8,
                            stats=stats[0])
    fed.append(0)
    request.getfixturevalue("three_matrix")
    want = R.quantized_infer(models["dense"], prompt, cfg, bits=8,
                             stats=stats[1])
    assert got == want
    d, layers, positions = 64, 2, fed[1]
    assert fed[1] == fed[2] >= 1 + len(prompt) + cfg.n_max - 1
    assert stats[0].saturated == stats[1].saturated
    assert stats[1].count - stats[0].count == 2 * d * layers * positions


# ---------------------------------------------------------------------------
# criterion-10 training
# ---------------------------------------------------------------------------


def c10_losses(steps):
    vocab = E.Vocab.from_text(corpus())
    model = M.Model.init(M.ModelConfig(**SHAPE), vocab, seed=0)
    segs = TR.segments_from_text(corpus(), vocab, 64)
    rows = TR.train_lm(model, segs, TR.TrainConfig(
        lr0=0.2, n_warmup=400, batch_size=8, max_steps=steps, seed=0,
        seq_len=64))
    return np.array([r["loss"] for r in rows])


def test_c10_losses_follow_the_three_matrix_path(request):
    """The first loss is bitwise equal. The input gradient of the fused
    projection is one GEMM over 3d columns instead of a sum of three, so
    later losses may differ in the last bits: within 1e-6 relative."""
    got = c10_losses(20)
    request.getfixturevalue("three_matrix")
    want = c10_losses(20)
    assert got[0] == want[0]
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-6


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

DATA = os.path.join(os.path.dirname(__file__), "data")
V2_FIXTURE = os.path.join(DATA, "v2_encdec_multi_query.ckpt")
# Written by the three-matrix code: an encoder-decoder, multi-query model
# (d=8, 1 layer, tau=2). The digests are sha256 over (name, float32
# bytes) of every tensor it loaded to, and over the float32 logits of
# decoder_forward([SOS, 4, 5, 6, 7], encode([3, 4, 5, 6, 7])).
V2_TENSORS_SHA256 = \
    "135ceb1ad199408f330dd4f2996fa63249fe91fc4396494ce5e4880b6a9aacae"
V2_LOGITS_SHA256 = \
    "368f9a71d3f3e24f2c11e05e8078614c6796dec88450bcf2b4013a1b0883a3da"


def three_matrix_digest(model):
    """The tensor digest with each w_qkv hashed as its blocks wq, wk, wv."""
    atts = {f"{stack}{i}.{role}.": getattr(lay, role)
            for stack, layers in (("enc", model.enc_layers),
                                  ("dec", model.dec_layers))
            for i, lay in enumerate(layers) for role in ("att", "cross")}
    h = hashlib.sha256()
    for name, t in model.named():
        parts = [(name, t)]
        if name.endswith(".w_qkv"):
            prefix = name[:-len("w_qkv")]
            parts = [(prefix + nm, getattr(atts[prefix], nm))
                     for nm in ("wq", "wk", "wv")]
        for nm, part in parts:
            h.update(nm.encode())
            h.update(np.ascontiguousarray(part.values).tobytes())
    return h.hexdigest()


def test_version_two_checkpoint_folds_into_w_qkv_bitwise(tmp_path):
    with open(V2_FIXTURE, "rb") as fh:
        assert struct.unpack("<H", fh.read(6)[4:])[0] == 2
    model = R.load_checkpoint(V2_FIXTURE)
    names = [n for n, _ in model.named()]
    assert "dec0.cross.w_qkv" in names and "dec0.att.wq" not in names
    att = model.dec_layers[0].att
    assert att.w_qkv.shape == (8, 8 + 2 * 4)          # one shared K/V head
    # n_kv is read from each loaded W^qkv's width
    assert [lay.att.n_kv for lay in model.enc_layers + model.dec_layers] \
        == [1, 1]
    assert [lay.cross.n_kv for lay in model.dec_layers] == [att.tau]
    assert three_matrix_digest(model) == V2_TENSORS_SHA256
    logits = model.decoder_forward([E.SOS, 4, 5, 6, 7],
                                   model.encode([3, 4, 5, 6, 7])).values
    assert hashlib.sha256(logits.tobytes()).hexdigest() == V2_LOGITS_SHA256
    # saved again it is version 3, and loads to the same tensors
    again = str(tmp_path / "again.ckpt")
    R.save_checkpoint(model, again)
    with open(again, "rb") as fh:
        assert struct.unpack("<H", fh.read(6)[4:])[0] == R.VERSION == 3
    assert three_matrix_digest(R.load_checkpoint(again)) == V2_TENSORS_SHA256


def test_a_version_two_block_missing_a_projection_is_a_mismatch():
    table = {"dec0.att.wq": np.zeros((4, 4)), "dec0.att.wk": np.zeros((4, 4)),
             "dec0.att.w_out": np.zeros((4, 4))}
    folded = R._fold_projections(dict(table))
    assert folded.keys() == table.keys()    # left for the loader to report


# ---------------------------------------------------------------------------
# the quantizer's per-column steps
# ---------------------------------------------------------------------------


def test_each_projection_block_keeps_its_own_step():
    model = build({}, dtype=F64)
    att = model.dec_layers[0].att
    step = R.weight_quant_specs(model, 8)[id(att.w_qkv)].step
    assert step.shape == (1, att.w_qkv.shape[1])
    for cols in (att.q_cols, att.k_cols, att.v_cols):
        top = np.max(np.abs(att.w_qkv.values[:, slice(*cols)]))
        assert np.all(step[0, slice(*cols)] == top / 127)


def test_an_all_zero_projection_block_quantizes_to_zero_products():
    model = build({}, dtype=F64)
    att = model.dec_layers[0].att
    w = att.w_qkv.values.copy()
    w[:, slice(*att.k_cols)] = 0.0
    T.assign_(att.w_qkv, w)
    specs = R.weight_quant_specs(model, 8)
    route = R._quant_route(specs, 8)
    x = T.Tensor(T.Rng(1).gaussian((3, 16)))
    out = route(x, att.w_qkv).values
    assert np.all(out[:, slice(*att.k_cols)] == 0.0)
    assert np.all(out[:, slice(*att.q_cols)] != 0.0)
    assert np.array_equal(route(x, att.w_qkv, att.q_cols).values,
                          out[:, slice(*att.q_cols)])
