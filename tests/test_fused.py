"""Fused taped ops against the composites they replace.

Each fused op (layer norm, bias + ReLU, the FFN, head split and merge,
the softmax scale, multi-head attention, the training loss) is pinned to
its composite of generic ops: the
float32 forward bit for bit, every float64 gradient within 1e-12. Whole
decodes and the first training loss are then compared with the
composites patched back in (a decode round and the first loss also with
the post-norm layer norm as its add and composite norm), and so are
twenty training losses with the FFN composite. Count guards keep the Tensors and Python calls of a
decode token, the tape records and traced memory peak of a training
step, the products of a decode step, the weights a repeated quantized
request quantizes and the ops of an SSM sub-layer down.
"""

import importlib.resources
import sys
import tracemalloc

import numpy as np
import pytest

from seqlab import attention as A
from seqlab import blocks as B
from seqlab import embedding as E
from seqlab import model as M
from seqlab import runtime as R
from seqlab import ssm as S
from seqlab import tensor as T
from seqlab import train as TR

F32, F64 = np.float32, np.float64
TOL = 1e-12


# ---------------------------------------------------------------------------
# the composites, pinned
# ---------------------------------------------------------------------------


def composite_layer_norm(h, params):
    return B.normalize(h, *B.row_stats(h), params)


def composite_split_heads(x, n, cols=None):
    if cols is not None:
        x = T.take(x, (Ellipsis, slice(*cols)))
    x = T.reshape(x, x.shape[:-1] + (n, x.shape[-1] // n))
    axes = list(range(x.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return T.transpose(x, axes)


def composite_merge_heads(x):
    axes = list(range(x.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    x = T.transpose(x, axes)
    return T.reshape(x, x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def composite_ffn(h, params):
    hidden = T.relu(T.matmul(h, params.w_h) + params.b_h)
    return T.matmul(hidden, params.w_f) + params.b_f


def composite_softmax(softmax):
    """softmax_rows with its scale as a separate multiply."""
    def scaled(x, additive_mask=None, scale=None):
        return softmax(x if scale is None else x * scale, additive_mask)
    return scaled


def composite_attention(q, k, v, heads=(1, 1), *, cols=(None, None, None),
                        history=None, mask=None, scale=None, keep=False,
                        weights=None):
    """tensor.attention as generic ops: column blocks cut into heads, the
    scores product, the scale as a separate multiply, softmax_rows, the
    weighted values and the merge; cached rows enter as a constant
    concatenated before the block's own keys and values."""
    assert not keep and weights is None      # the plain form alone
    n_q, n_kv = heads
    blocks = []
    for t, c in zip((q, k, v), cols):
        blocks.append(t if c is None else T.take(t, (Ellipsis, slice(*c))))
    q, k, v = blocks
    if history is not None:
        m = k.shape[-2]
        k, v = (T.concat([T.Tensor(rows[..., :-m, :]), x], axis=-2)
                for rows, x in zip(history, (k, v)))
    qh = composite_split_heads(q, n_q)
    kh, vh = composite_split_heads(k, n_kv), composite_split_heads(v, n_kv)
    if scale is None:
        scale = 1.0 / np.sqrt(qh.shape[-1])
    scores = T.matmul(qh, T.transpose(kh)) * scale
    return composite_merge_heads(T.matmul(T.softmax_rows(scores, mask), vh))


def composite_cross_entropy(logits, targets, pad_mask=None, tally=None):
    probs = T.softmax_rows(logits)
    ids = np.asarray(targets, dtype=np.int64)
    m = probs.shape[0]
    keep = np.ones(m, dtype=bool) if pad_mask is None \
        else ~np.asarray(pad_mask, dtype=bool)
    picked = T.take(probs, (np.arange(m), ids))
    if tally is not None:
        tally.clamped += int((picked.values[keep] < TR.PROB_FLOOR).sum())
    floored = T.maximum(picked, TR.PROB_FLOOR)
    w = T.Tensor((keep / keep.sum()).astype(probs.dtype))
    return T.reduce_sum(T.log(floored) * w) * -1.0


def composite_sublayer_apply(h_in, core, ln, cfg):
    beta, gamma = cfg.residual_weights()
    inner = core(h_in)
    if beta != 0.0:
        inner = inner + h_in * beta
    out = B.layer_norm(inner, ln)
    if gamma != 0.0:
        out = out + h_in * gamma
    return out


@pytest.fixture
def composites(monkeypatch):
    """Route the model through the composites instead of the fused ops."""
    monkeypatch.setattr(B, "layer_norm", composite_layer_norm)
    monkeypatch.setattr(B, "ffn", composite_ffn)
    monkeypatch.setattr(B, "sublayer_apply", composite_sublayer_apply)
    monkeypatch.setattr(A, "split_heads", composite_split_heads)
    monkeypatch.setattr(T, "softmax_rows", composite_softmax(T.softmax_rows))
    monkeypatch.setattr(T, "attention", composite_attention)
    monkeypatch.setattr(TR, "cross_entropy", composite_cross_entropy)


def grads_of(fn, inputs):
    """Gradients of sum(fn(*inputs) * probe) for every input."""
    with T.Tape():
        out = fn(*inputs)
        probe = T.Tensor(T.Rng(99).gaussian(out.shape), dtype=out.dtype)
        loss = T.reduce_sum(out * probe) if out.ndim else out
    table = T.backward(loss)
    return [table[t].values for t in inputs]


def assert_grads_close(fused, composite, inputs):
    for got, want in zip(grads_of(fused, inputs), grads_of(composite, inputs)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= TOL


def leaf(shape, seed, dtype=F64, scale=1.0, shift=0.0):
    return T.Tensor(shift + scale * T.Rng(seed).gaussian(shape), dtype=dtype,
                    trainable=True)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

LN_SHAPES = [(5, 7), (3, 4, 64), (2, 1, 33), (6, 256)]
# the ids name the op's one denominator, sigma + eps
LN_IDS = [f"{shape}-sigma" for shape in LN_SHAPES]


@pytest.mark.parametrize("shape", LN_SHAPES, ids=LN_IDS)
def test_layer_norm_is_bitwise_the_composite_in_float32(shape):
    d = shape[-1]
    params = B.LNParams(leaf((d,), 1, F32), leaf((d,), 2, F32), eps=1e-5)
    h = leaf(shape, 3, F32, scale=3.0, shift=0.7)
    got = B.layer_norm(h, params)
    want = composite_layer_norm(h, params)
    assert got.dtype == want.dtype == F32
    np.testing.assert_array_equal(got.values, want.values)


@pytest.mark.parametrize("shape", LN_SHAPES, ids=LN_IDS)
def test_layer_norm_gradients_match_the_composite(shape):
    d = shape[-1]
    inputs = [leaf(shape, 4, scale=2.0, shift=-0.3), leaf((d,), 5),
              leaf((d,), 6)]

    def params(g, b):
        return B.LNParams(g, b, eps=0.01)

    assert_grads_close(lambda h, g, b: B.layer_norm(h, params(g, b)),
                       lambda h, g, b: composite_layer_norm(h, params(g, b)),
                       inputs)


@pytest.mark.parametrize("shape", LN_SHAPES, ids=LN_IDS)
def test_layer_norm_with_a_residual_is_the_add_then_the_norm(shape):
    d = shape[-1]
    params = B.LNParams(leaf((d,), 1, F32), leaf((d,), 2, F32), eps=1e-5)
    h, z = leaf(shape, 3, F32, scale=3.0), leaf(shape, 30, F32, shift=0.7)
    np.testing.assert_array_equal(
        B.layer_norm(h, params, residual=z).values,
        composite_layer_norm(h + z, params).values)
    inputs = [leaf(shape, 31, scale=2.0), leaf(shape, 32, shift=-0.3),
              leaf((d,), 33), leaf((d,), 34)]

    def ln(g, b):
        return B.LNParams(g, b, eps=0.01)

    assert_grads_close(
        lambda h, z, g, b: B.layer_norm(h, ln(g, b), residual=z),
        lambda h, z, g, b: composite_layer_norm(h + z, ln(g, b)), inputs)


@pytest.mark.parametrize("eps", [0.01], ids=["sigma"])
def test_constant_row_gradient_is_finite(eps):
    """sigma = 0: the forward divides by D = eps, and the input gradient
    is (dx - mean(dx)) / eps, dx the gradient at the normalized row; the
    composite's sqrt backward gives NaN here."""
    g = T.Tensor(np.full(4, 2.0), dtype=F64)
    b = T.Tensor(np.array([1.0, -1.0, 0.5, 0.0]), dtype=F64)
    params = B.LNParams(g, b, eps=eps)
    h = T.Tensor(np.full((2, 4), 3.3), dtype=F64, trainable=True)
    probe = T.Rng(7).gaussian((2, 4))
    with T.Tape():
        out = B.layer_norm(h, params)
        loss = T.reduce_sum(out * T.Tensor(probe, dtype=F64))
    np.testing.assert_array_equal(out.values, np.tile(b.values, (2, 1)))
    got = T.backward(loss)[h].values
    dx = probe * g.values
    want = (dx - dx.mean(axis=-1, keepdims=True)) / eps
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-9


# ---------------------------------------------------------------------------
# FFN, heads, softmax scale
# ---------------------------------------------------------------------------


def test_ffn_is_bitwise_the_composite_in_float32():
    params = B.FFNParams.init(16, 40, T.Rng(8), dtype=F32)
    params = B.FFNParams(params.w_h, leaf((40,), 9, F32), params.w_f,
                         leaf((16,), 10, F32))
    h = leaf((3, 5, 16), 11, F32)
    np.testing.assert_array_equal(B.ffn(h, params).values,
                                  composite_ffn(h, params).values)


FFN_SHAPES = [(7, 16), (3, 5, 16), (1, 1, 16), (2, 3, 4, 16)]


@pytest.mark.parametrize("shape", FFN_SHAPES, ids=str)
def test_ffn_op_is_bitwise_the_composite_at_every_rank(shape):
    params = B.FFNParams.init(16, 40, T.Rng(8), dtype=F32)
    params = B.FFNParams(params.w_h, leaf((40,), 9, F32), params.w_f,
                         leaf((16,), 10, F32))
    h = leaf(shape, 11, F32)
    got = T.ffn(h, params.w_h, params.b_h, params.w_f, params.b_f)
    want = composite_ffn(h, params)
    assert got.dtype == want.dtype == F32 and got.shape == want.shape
    np.testing.assert_array_equal(got.values, want.values)


@pytest.mark.parametrize("shape", FFN_SHAPES, ids=str)
def test_ffn_op_gradients_match_the_composite(shape):
    """Every input's float64 gradient; a shift makes some ReLU inputs
    negative, so the mask matters."""
    inputs = [leaf(shape, 40, shift=0.2), leaf((16, 24), 41, scale=0.5),
              leaf((24,), 42, shift=-0.3), leaf((24, 16), 43, scale=0.5),
              leaf((16,), 44)]
    assert_grads_close(
        T.ffn,
        lambda h, w_h, b_h, w_f, b_f: composite_ffn(
            h, B.FFNParams(w_h, b_h, w_f, b_f)), inputs)


def test_ffn_op_rejects_mismatched_extents():
    params = B.FFNParams.init(16, 40, T.Rng(8), dtype=F32)
    with pytest.raises(T.ShapeError):
        T.ffn(leaf((3, 12), 1, F32), params.w_h, params.b_h, params.w_f,
              params.b_f)
    with pytest.raises(T.ShapeError):
        T.ffn(leaf((16,), 1, F32), params.w_h, params.b_h, params.w_f,
              params.b_f)


@pytest.mark.parametrize("shape,n", [((5, 12), 3), ((2, 7, 12), 4),
                                     ((3, 1, 8), 1), ((2, 3, 4, 6), 2)],
                         ids=str)
def test_head_split_and_merge_match_the_composite(shape, n):
    """The merge is AttentionParams.merge's, before its W_c product."""
    d = shape[-1]
    x = leaf(shape, 14, F32)
    split = A.split_heads(x, n)
    np.testing.assert_array_equal(split.values,
                                  composite_split_heads(x, n).values)
    p = A.AttentionParams.init(d, n, T.Rng(14), dtype=F32)
    np.testing.assert_array_equal(p.merge(split).values,
                                  T.matmul(x, p.w_out).values)
    np.testing.assert_array_equal(
        p.merge(split).values,
        T.matmul(composite_merge_heads(split), p.w_out).values)
    x64 = leaf(shape, 15)
    assert_grads_close(lambda t: A.split_heads(t, n),
                       lambda t: composite_split_heads(t, n), [x64])
    heads = leaf(composite_split_heads(x64, n).shape, 16)
    p64 = A.AttentionParams.init(d, n, T.Rng(16), dtype=F64)
    assert_grads_close(p64.merge,
                       lambda h: T.matmul(composite_merge_heads(h), p64.w_out),
                       [heads])


@pytest.mark.parametrize("mask", ["none", "array", "tensor"])
def test_softmax_scale_matches_a_separate_multiply(mask):
    scale = 1.0 / np.sqrt(7.0)
    causal = A.causal_mask(5)

    def masks(dtype):
        if mask == "none":
            return None
        if mask == "array":
            return causal
        return T.Tensor(np.where(np.isinf(causal), -np.inf,
                                 T.Rng(17).gaussian((5, 5))), dtype=dtype,
                        trainable=True)

    x = leaf((3, 5, 5), 18, F32, scale=4.0)
    np.testing.assert_array_equal(
        T.softmax_rows(x, masks(F32), scale).values,
        T.softmax_rows(x * scale, masks(F32)).values)
    x64, m64 = leaf((3, 5, 5), 19, scale=4.0), masks(F64)
    inputs = [x64] + ([m64] if mask == "tensor" else [])

    def fused(x, m=m64):
        return T.softmax_rows(x, m, scale)

    def composite(x, m=m64):
        return T.softmax_rows(x * scale, m)

    assert_grads_close(fused, composite, inputs)


# ---------------------------------------------------------------------------
# the training loss
# ---------------------------------------------------------------------------


def loss_case(dtype):
    logits = T.Rng(20).gaussian((9, 6)) * 3.0
    logits[2, 4] = -60.0                 # its probability sits below the floor
    logits[5, 1] = -np.inf               # exactly zero probability
    targets = np.array([0, 5, 4, 3, 2, 1, 0, 1, 2])
    pad = np.zeros(9, dtype=bool)
    pad[[3, 8]] = True
    return T.Tensor(logits, dtype=dtype, trainable=True), targets, pad


def test_loss_is_bitwise_the_composite_in_float32():
    logits, targets, pad = loss_case(F32)
    tallies = TR.WarningTally(), TR.WarningTally()
    got = TR.cross_entropy(logits, targets, pad, tallies[0])
    want = composite_cross_entropy(logits, targets, pad, tallies[1])
    assert got.dtype == want.dtype == F32
    assert got.values.tobytes() == want.values.tobytes()
    assert tallies[0].clamped == tallies[1].clamped == 2


def test_loss_gradient_matches_the_composite():
    logits, targets, pad = loss_case(F64)
    assert_grads_close(lambda x: TR.cross_entropy(x, targets, pad),
                       lambda x: composite_cross_entropy(x, targets, pad),
                       [logits])
    g = grads_of(lambda x: TR.cross_entropy(x, targets, pad), [logits])[0]
    assert not g[[2, 5]].any()           # floored rows get no gradient
    assert not g[[3, 8]].any()           # nor do PAD rows


# ---------------------------------------------------------------------------
# residual weights
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("placement,beta,gamma", [
    ("post", None, None), ("pre", None, None), ("weighted", 1.0, 1.0),
    ("weighted", 0.5, 2.0)])
def test_sublayer_is_bitwise_the_composite(placement, beta, gamma):
    cfg = B.SublayerConfig(placement, beta, gamma)
    ln = B.LNParams(leaf((8,), 21, F32), leaf((8,), 22, F32))
    ffn = B.FFNParams.init(8, 16, T.Rng(23), dtype=F32)
    h = leaf((2, 3, 8), 24, F32)

    def core(z):
        return B.ffn(z, ffn)

    np.testing.assert_array_equal(
        B.sublayer_apply(h, core, ln, cfg).values,
        composite_sublayer_apply(h, core, ln, cfg).values)
    h64 = leaf((2, 3, 8), 25)
    ln64 = B.LNParams(leaf((8,), 26), leaf((8,), 27))
    assert_grads_close(
        lambda z: B.sublayer_apply(z, lambda x: x * x, ln64, cfg),
        lambda z: composite_sublayer_apply(z, lambda x: x * x, ln64, cfg),
        [h64])


@pytest.mark.parametrize("order", B.RK_ORDERS)
def test_unit_step_integrator_is_bitwise_the_scaled_one(order):
    z = leaf((2, 4, 6), 28, F32)

    def f(x):
        return T.relu(x * 0.5)

    got = B.rk_sublayer(z, f, order, h=1.0)
    g1 = f(z) * 1.0
    if order == 1:
        want = z + g1
    elif order == 2:
        want = z + (g1 + f(z + g1) * 1.0) * 0.5
    else:
        g2 = f(z + g1 * 0.5) * 1.0
        g3 = f(z + g2 * 0.5) * 1.0
        g4 = f(z + g3) * 1.0
        want = z + (g1 + g2 * 2.0 + g3 * 2.0 + g4) * (1.0 / 6.0)
    np.testing.assert_array_equal(got.values, want.values)


# ---------------------------------------------------------------------------
# whole models of the benchmark's shape
# ---------------------------------------------------------------------------

SHAPE = dict(d=64, n_layers=2, tau=4, d_ffn=256, placement="post")


def corpus():
    return (importlib.resources.files("seqlab") / "data" / "corpus.txt").read_text()


@pytest.fixture(scope="module")
def decode_models():
    """One model per request kind, the EOS logit held at the mean of the
    ordinary ones so no request stops early."""
    text = corpus()
    vocab = E.Vocab.from_text(text)
    ordinary = [v for v in range(len(vocab))
                if v not in (E.PAD, E.SOS, E.EOS, E.CLS)]
    configs = {"beam4": {}, "quant8": {},
               "encdec": dict(architecture="encoder-decoder"),
               "window": dict(attention="window", window=8)}
    models = {}
    for seed, (kind, kw) in enumerate(configs.items(), start=1):
        m = M.Model.init(M.ModelConfig(**SHAPE, **kw), vocab, seed=seed)
        w = m.w_o.values.copy()
        w[:, E.EOS] = w[:, ordinary].mean(axis=1)
        T.assign_(m.w_o, w)
        models[kind] = m
    prompt = vocab.encode(text[100:106])
    source = vocab.encode(text[300:314])
    return models, prompt, source


def decode_round(models, prompt, source):
    """One request of each kind: (kind, tokens, log-probability or None)."""
    beam = R.beam_search(models["beam4"], prompt,
                         R.SearchConfig(beam=4, n_max=8))
    out = [("beam4", b.tokens, b.logprob) for b in beam]
    out.append(("greedy", R.greedy_generate(
        models["beam4"], prompt, R.SearchConfig(n_max=32)), None))
    out.append(("quant8", R.quantized_infer(
        models["quant8"], prompt, R.SearchConfig(n_max=10), bits=8), None))
    out.append(("encdec", R.greedy_generate(
        models["encdec"], prompt, R.SearchConfig(n_max=20), source=source),
        None))
    out.append(("window", R.greedy_generate(
        models["window"], prompt, R.SearchConfig(n_max=64)), None))
    return out


def test_decoding_is_bitwise_the_composite_path(decode_models, request):
    fused = decode_round(*decode_models)
    request.getfixturevalue("composites")
    assert decode_round(*decode_models) == fused


def c10_step(model, vocab):
    segs = TR.segments_from_text(corpus(), vocab, 64)
    return TR.train_lm(model, segs, TR.TrainConfig(
        lr0=0.2, n_warmup=400, batch_size=8, max_steps=1, seed=0, seq_len=64))


def test_twenty_training_losses_are_bitwise_the_composite_ffn(monkeypatch):
    """Criterion-10 training with the FFN op and with the two matmuls, bias
    ReLU and add it replaced: its forward and backward repeat theirs, so
    the Adam updates and every loss are the same."""
    def losses():
        vocab = E.Vocab.from_text(corpus())
        model = M.Model.init(M.ModelConfig(**SHAPE), vocab, seed=0)
        segs = TR.segments_from_text(corpus(), vocab, 64)
        rows = TR.train_lm(model, segs, TR.TrainConfig(
            lr0=0.2, n_warmup=400, batch_size=8, max_steps=20, seed=0,
            seq_len=64))
        return [r["loss"] for r in rows]

    fused = losses()
    monkeypatch.setattr(B, "ffn", composite_ffn)
    assert fused == losses() and len(fused) == 20


def test_first_training_loss_is_bitwise_the_composite_path(request):
    vocab = E.Vocab.from_text(corpus())
    fused = c10_step(M.Model.init(M.ModelConfig(**SHAPE), vocab, seed=0), vocab)
    request.getfixturevalue("composites")
    composite = c10_step(M.Model.init(M.ModelConfig(**SHAPE), vocab, seed=0),
                         vocab)
    assert fused[0]["loss"] == composite[0]["loss"]
    assert fused[0]["clamped"] == composite[0]["clamped"]


def composite_tensor_layer_norm(h, g, b, eps, residual=None):
    """tensor.layer_norm as generic ops: the residual add, then the
    composite norm."""
    x = h if residual is None else h + residual
    return composite_layer_norm(x, B.LNParams(g, b, eps))


def test_post_norm_paths_are_bitwise_the_composite_norm(decode_models,
                                                        monkeypatch):
    """A post-norm sub-layer is one tensor.layer_norm op with the residual
    inside it; with the op replaced by the add and the composite norm, a
    decode round and the first training loss stay the same."""
    vocab = E.Vocab.from_text(corpus())

    def run():
        model = M.Model.init(M.ModelConfig(**SHAPE), vocab, seed=0)
        return decode_round(*decode_models), c10_step(model, vocab)[0]["loss"]

    fused = run()
    monkeypatch.setattr(T, "layer_norm", composite_tensor_layer_norm)
    assert run() == fused


# ---------------------------------------------------------------------------
# count guards
# ---------------------------------------------------------------------------


def request_round(models, prompt, source):
    """One request of each decode-mixed kind; the tokens generated."""
    tokens = 0
    for kind, n_max in (("beam4", 8), ("quant8", 10), ("encdec", 20),
                        ("window", 64)):
        cfg = R.SearchConfig(n_max=n_max)
        if kind == "beam4":
            out = R.beam_search(models[kind], prompt,
                                R.SearchConfig(beam=4, n_max=n_max))[0].tokens
        elif kind == "quant8":
            out = R.quantized_infer(models[kind], prompt, cfg, bits=8)
        else:
            out = R.greedy_generate(models[kind], prompt, cfg,
                                    source=source if kind == "encdec" else None)
        assert len(out) == n_max
        tokens += len(out)
    return tokens


def test_a_generated_token_builds_at_most_9_5_tensors(decode_models,
                                                      monkeypatch):
    """Counts every Tensor built: through Tensor() and through the
    constructor ops use for their results. 9.4 a token with one FFN op
    per layer and no Tensor per quantized product."""
    built = [0]
    init, emit = T.Tensor.__init__, T._emit

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def counting_emit(out, *args):
        built[0] += type(out) is not T.Tensor   # an array made a Tensor
        return emit(out, *args)

    monkeypatch.setattr(T.Tensor, "__init__", counting)
    monkeypatch.setattr(T, "_emit", counting_emit)
    tokens = request_round(*decode_models)
    assert built[0] / tokens <= 9.5


def test_a_generated_token_makes_at_most_40_python_calls(decode_models):
    """Python function calls (profile "call" events, comprehensions and
    generator resumptions included) over one request of each kind: 83.4
    a token while every step built a closure per layer, wrapped each
    sub-layer in three frames and re-derived its ops' constants."""
    models, prompt, source = decode_models
    request_round(models, prompt, source)              # warm: levels, PE rows
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        tokens = request_round(models, prompt, source)
    finally:
        sys.setprofile(None)
    assert calls[0] / tokens <= 40


def test_a_training_step_records_at_most_18_tape_ops(monkeypatch):
    """17: the FFN is one op per layer (23 as two matmuls, a bias ReLU
    and an add)."""
    records = []
    backward = T.backward

    def counting(loss):
        records.append(len(loss.tape.records))
        return backward(loss)

    monkeypatch.setattr(T, "backward", counting)
    vocab = E.Vocab.from_text(corpus())
    c10_step(M.Model.init(M.ModelConfig(**SHAPE), vocab, seed=0), vocab)
    assert len(records) == 1 and records[0] <= 18


def test_a_training_step_peaks_at_most_9_5_mib_traced():
    """tracemalloc's peak over one criterion-10 forward and backward
    (batch 8 x 64) after a warm-up one. The fused ops run their
    elementwise passes in place, so attention keeps one score-sized array
    per layer; computed out of place, the peak was 11.4 MiB."""
    vocab = E.Vocab.from_text(corpus())
    model = M.Model.init(M.ModelConfig(**SHAPE), vocab, seed=0)
    batch = TR.make_batches(TR.segments_from_text(corpus(), vocab, 64), 8,
                            T.Rng(0))[0]
    assert batch.inputs.shape == (8, 65)     # SOS and 64 characters a row

    def forward_backward():
        with T.Tape() as tape:
            loss, _ = TR._batch_loss(model, batch, TR.WarningTally())
        T.backward(loss)
        tape.release()

    forward_backward()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        forward_backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 9.5 * 2 ** 20


def test_a_dense_decode_step_makes_9_matmuls(decode_models, monkeypatch):
    """Per layer: one fused QKV product, W_c and the FFN op's two (the
    scores and weighted values are inside the attention op); then the
    output head."""
    model = decode_models[0]["beam4"]
    session, _ = R._seed_session(model, decode_models[1])
    calls = [0]

    def counting(op, products):
        def counted(*args, **kwargs):
            calls[0] += products
            return op(*args, **kwargs)
        return counted

    monkeypatch.setattr(T, "matmul", counting(T.matmul, 1))
    monkeypatch.setattr(T, "ffn", counting(T.ffn, 2))
    for tok in (5, 6, 7):
        model.decode_step(session, tok)
    assert model.cfg.n_layers == 2 and calls[0] == 3 * 9


def test_a_second_quantized_request_quantizes_no_weight(decode_models,
                                                     monkeypatch):
    """The weights' levels are kept on the model: a request on unchanged
    weights quantizes only its activation rows, none through
    quantize_levels (the per-row steps need no clip)."""
    model, prompt = decode_models[0]["quant8"], decode_models[1]
    cfg = R.SearchConfig(n_max=10)
    first = R.quantized_infer(model, prompt, cfg, bits=8)
    calls = [0]
    levels = T.quantize_levels

    def counting(x, spec):
        calls[0] += 1
        return levels(x, spec)

    monkeypatch.setattr(T, "quantize_levels", counting)
    assert R.quantized_infer(model, prompt, cfg, bits=8) == first
    assert calls[0] == 0


def test_an_ssm_sublayer_forward_records_at_most_108_tape_ops():
    """At the training shape (8 rows of 64 positions, d = 64): a third of
    the 325 that the per-position scan recorded."""
    dssm = S.init_ssm_sublayer(16, 0.1, "zoh", "diag-uniform", T.Rng(0),
                               dtype=F32)
    h = T.Tensor(T.Rng(1).gaussian((8, 64, 64)).astype(F32), trainable=True)
    with T.Tape() as tape:
        S.ssm_sublayer_scan(h, dssm)
    assert len(tape) <= 108


def test_a_one_position_ssm_step_makes_at_most_9_ops(monkeypatch):
    """No more than the 9 the per-position scan made (the block form makes
    6); every op emits its result once, with or without a tape."""
    calls = [0]
    emit = T._emit

    def counting(*args):
        calls[0] += 1
        return emit(*args)

    monkeypatch.setattr(T, "_emit", counting)
    dssm = S.init_ssm_sublayer(16, 0.1, "zoh", "diag-uniform", T.Rng(0),
                               dtype=F32)
    carry = [np.ones((1, 64, 16), dtype=F32)]
    S.ssm_sublayer_scan(T.Tensor(T.Rng(1).gaussian((1, 1, 64)).astype(F32)),
                        dssm, carry)
    assert calls[0] <= 9


def test_a_repeated_one_position_ssm_step_makes_at_most_3_ops(monkeypatch):
    """Outside a tape the one-position operator is built once and kept:
    a later step only lays out its input, multiplies and lays out the
    output."""
    dssm = S.init_ssm_sublayer(16, 0.1, "zoh", "diag-uniform", T.Rng(0),
                               dtype=F32)
    carry = [np.ones((1, 64, 16), dtype=F32)]
    step = T.Tensor(T.Rng(1).gaussian((1, 1, 64)).astype(F32))
    S.ssm_sublayer_scan(step, dssm, carry)
    calls = [0]
    emit = T._emit

    def counting(*args):
        calls[0] += 1
        return emit(*args)

    monkeypatch.setattr(T, "_emit", counting)
    S.ssm_sublayer_scan(step, dssm, carry)
    assert calls[0] <= 3
