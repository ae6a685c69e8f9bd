"""The fused multi-head attention op against the composite it replaces.

``tensor.attention`` cuts Q, K and V into heads, takes the scores, the
masked softmax and the weighted values, and merges the heads, as one
taped op. The composite pinned here is the path it replaces: a head split
per input (zero-widened gradients, summed when the inputs are one fused
projection), cached keys and values read as heads of the cache array,
``qkv_attention`` as a scores product, ``softmax_rows`` with the scale
and a weighted-values product, and the head merge; the weights the op
hands out are the composite's softmax, and weights it is given take the
place of that softmax. The float32 forward is
compared bit for bit, float64 values and gradients within 1e-12, whole
decodes and criterion-10 training losses bit for bit.
"""

import importlib.resources

import numpy as np
import pytest

from seqlab import attention as A
from seqlab import embedding as E
from seqlab import model as M
from seqlab import runtime as R
from seqlab import tensor as T
from seqlab import train as TR

F32, F64 = np.float32, np.float64
TOL = 1e-12
VOCAB = E.Vocab.from_text("abcdefgh")


# ---------------------------------------------------------------------------
# the composite, pinned
# ---------------------------------------------------------------------------


def as_heads(a, n):
    return a.reshape(a.shape[:-1] + (n, a.shape[-1] // n)).swapaxes(-2, -3)


def widen(block, shape, cols):
    if block.shape == shape:
        return block
    out = np.zeros(shape, dtype=block.dtype)
    out[..., cols[0]:cols[1]] = block
    return out


def split_heads(x, n, cols=None):
    shape = x.shape
    lo, hi = (0, shape[-1]) if cols is None else cols
    block = shape[:-1] + (hi - lo,)
    return T.relayout(
        x, lambda a: as_heads(a[..., lo:hi], n),
        lambda g: widen(g.swapaxes(-2, -3).reshape(block), shape, (lo, hi)))


def cached_heads(stored, x, n, cols):
    shape, m = x.shape, x.shape[-2]
    lo, hi = (0, shape[-1]) if cols is None else cols
    block = shape[:-1] + (hi - lo,)
    return T.relayout(
        x, lambda _: as_heads(stored, n),
        lambda g: widen(g[..., -m:, :].swapaxes(-2, -3).reshape(block),
                        shape, (lo, hi)))


def merge_heads(x):
    shape = x.shape
    merged = shape[:-3] + (shape[-2], shape[-3] * shape[-1])
    swapped = shape[:-3] + (shape[-2], shape[-3], shape[-1])
    return T.relayout(x, lambda a: a.swapaxes(-2, -3).reshape(merged),
                      lambda g: g.reshape(swapped).swapaxes(-2, -3))


def composite_attention(q, k, v, heads=(1, 1), *, cols=(None, None, None),
                        history=None, mask=None, scale=None, weights=None,
                        keep=False):
    n_q, n_kv = heads
    vh = split_heads(v, n_kv, cols[2]) if history is None \
        else cached_heads(history[1], v, n_kv, cols[2])
    if weights is None:
        qh = split_heads(q, n_q, cols[0])
        kh = split_heads(k, n_kv, cols[1]) if history is None \
            else cached_heads(history[0], k, n_kv, cols[1])
        if scale is None:
            scale = 1.0 / float(np.sqrt(qh.shape[-1]))
        weights = T.softmax_rows(T.matmul(qh, T.transpose(kh)), mask, scale)
    out = merge_heads(T.matmul(weights, vh))
    return (out, weights) if keep else out


@pytest.fixture
def composite(monkeypatch):
    """Route every caller of the op through the composite."""
    monkeypatch.setattr(T, "attention", composite_attention)


def leaf(shape, seed, dtype=F64):
    return T.Tensor(T.Rng(seed).gaussian(shape), dtype=dtype, trainable=True)


def run(fn, leaves):
    """fn()'s values and the gradients of one random probe of it."""
    with T.Tape() as tape:
        out = fn()
        probe = T.Tensor(T.Rng(99).gaussian(out.shape), dtype=out.dtype)
        loss = T.reduce_sum(out * probe)
    grads = T.backward(loss)
    tape.release()
    return out.values, [grads.get(t) for t in leaves]


def assert_op_matches(fn, leaves):
    """fn, run once with the op and once with the composite: float64
    values and every leaf's gradient agree within TOL."""
    got, got_g = run(fn, leaves)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "attention", composite_attention)
        want, want_g = run(fn, leaves)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL
    for a, b in zip(got_g, want_g):
        assert a is not None and b is not None
        assert np.max(np.abs(a.values - b.values)) <= TOL


def assert_f32_bitwise(fn):
    """fn() returns an array, or a float32 array and further arrays, that
    the op and the composite give bit for bit."""
    got = fn()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "attention", composite_attention)
        want = fn()
    got, want = ((x,) if isinstance(x, np.ndarray) else x for x in (got, want))
    assert got[0].dtype == want[0].dtype == F32
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


# ---------------------------------------------------------------------------
# the op on its own
# ---------------------------------------------------------------------------

CAUSAL = A.causal_mask(5)


@pytest.mark.parametrize("n_kv", [4, 1], ids=["dense", "multi-query"])
def test_fused_projection(n_kv):
    """One (2, 5, 8 + 2*n_kv*2) projection holds Q, K and V."""
    width = 8 + 2 * n_kv * 2
    cols = ((0, 8), (8, 8 + 2 * n_kv), (8 + 2 * n_kv, width))

    def fn(x):
        return lambda: T.attention(x, x, x, (4, n_kv), cols=cols, mask=CAUSAL)

    assert_f32_bitwise(lambda: fn(leaf((2, 5, width), 1, F32))().values)
    x = leaf((2, 5, width), 2)
    assert_op_matches(fn(x), [x])


def test_cross_blocks_of_two_inputs():
    """Queries of three rows over one encoder's keys and values."""
    def fn(q, kv):
        return lambda: T.attention(q, kv, kv, (2, 2),
                                   cols=(None, (0, 6), (6, 12)))

    assert_f32_bitwise(lambda: fn(leaf((3, 4, 6), 3, F32),
                                  leaf((7, 12), 4, F32))().values)
    q, kv = leaf((3, 4, 6), 5), leaf((7, 12), 6)
    assert_op_matches(fn(q, kv), [q, kv])


@pytest.mark.parametrize("window", [None, 3])
def test_history_of_cached_rows(window):
    """A block of m = 3 new positions after 4 cached ones, the cache's
    rows ending in the block's own keys and values."""
    back, m = 4, 3

    def fn(x, earlier):
        k_rows = np.concatenate([earlier[0], x.values[..., 8:16]], axis=-2)
        v_rows = np.concatenate([earlier[1], x.values[..., 16:24]], axis=-2)
        mask = A._step_mask(m, back, window)
        return lambda: T.attention(
            x, x, x, (4, 4), cols=((0, 8), (8, 16), (16, 24)),
            history=(k_rows, v_rows), mask=mask)

    rng = T.Rng(7)
    for dtype in (F32, F64):
        earlier = [rng.gaussian((2, back, 8)).astype(dtype) for _ in range(2)]
        x = leaf((2, m, 24), 8, dtype)
        if dtype == F32:
            assert_f32_bitwise(lambda: fn(x, earlier)().values)
        else:
            assert_op_matches(fn(x, earlier), [x])


def test_a_mask_tensor_gets_its_gradient():
    mask = T.Tensor(np.where(np.isinf(CAUSAL), -np.inf,
                             T.Rng(9).gaussian((5, 5))), trainable=True)
    q, k, v = leaf((2, 5, 4), 10), leaf((2, 5, 4), 11), leaf((2, 5, 4), 12)
    assert_op_matches(lambda: T.attention(q, k, v, (2, 2), mask=mask),
                      [q, k, v, mask])


def test_one_input_in_every_role_sums_its_gradients():
    x = leaf((5, 6), 13)
    assert_op_matches(lambda: A.qkv_attention(x, x, x, CAUSAL), [x])


@pytest.mark.parametrize("n_kv", [2, 1], ids=["dense", "multi-query"])
def test_kept_and_given_weights(n_kv):
    """Map reuse's two uses of the op: handing out its weights (keep), and
    applying weights handed out earlier to other values in place of the
    scores. Values, and gradients that reach q and k through both uses of
    the weights and through a loss on the weights themselves."""
    def fn(q, k, v, v2):
        def both():
            out, w = T.attention(q, k, v, (2, n_kv), mask=CAUSAL, keep=True)
            again = T.attention(None, None, v2, (2, n_kv), weights=w)
            return T.concat([out, again, T.reshape(w, (3, 5, 10))], axis=-1)
        return both

    def leaves(dtype, seed):
        return [leaf((3, 5, 8), seed, dtype), leaf((3, 5, 4 * n_kv), seed + 1, dtype),
                leaf((3, 5, 6 * n_kv), seed + 2, dtype),
                leaf((3, 5, 6 * n_kv), seed + 3, dtype)]

    assert_f32_bitwise(lambda: fn(*leaves(F32, 14))().values)
    xs = leaves(F64, 18)
    assert_op_matches(fn(*xs), xs)


def test_qkv_attention_weights_are_the_ops():
    """qkv_attention(return_weights=True) is the op's output and the op's
    weights, one head's axis dropped."""
    q, k, v = (leaf((2, 3, 5, 4), s, F32) for s in (14, 15, 16))
    out, w = A.qkv_attention(q, k, v, CAUSAL, return_weights=True)
    assert out.values.tobytes() == A.qkv_attention(q, k, v, CAUSAL).values.tobytes()
    assert w.shape == (2, 3, 5, 5)
    _, kept = T.attention(q, k, v, mask=CAUSAL, scale=0.5, keep=True)
    assert w.values.tobytes() == kept.values[..., 0, :, :].tobytes()


@pytest.mark.parametrize("stored", [False, True], ids=["split", "cached"])
def test_split_heads_is_the_pinned_split(stored):
    """The head split that RPR attention, the one composite form left,
    uses (and the linear and length-reduced forms): column blocks, and
    cached rows ending in them."""
    x = leaf((2, 3, 12), 20)
    rows = np.concatenate([T.Rng(21).gaussian((2, 4, 4)),
                           x.values[..., 4:8]], axis=-2) if stored else None
    got = run(lambda: A.split_heads(x, 2, (4, 8), rows), [x])
    want = run(lambda: cached_heads(rows, x, 2, (4, 8)) if stored
               else split_heads(x, 2, (4, 8)), [x])
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1][0].values.tobytes() == want[1][0].values.tobytes()


def test_a_fully_masked_row_raises():
    q = leaf((3, 4), 22)
    mask = np.zeros((3, 3))
    mask[1] = -np.inf
    with pytest.raises(T.DegenerateRowError):
        T.attention(q, q, q, mask=mask)
    with pytest.raises(T.DegenerateRowError):
        A.qkv_attention(q, q, q, mask)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nan_or_plus_inf_mask_entry_raises(bad):
    q = leaf((3, 4), 23)
    mask = np.zeros((3, 3))
    mask[2, 0] = bad
    with pytest.raises(ValueError, match="finite or -inf"):
        T.attention(q, q, q, mask=mask)


def test_mismatched_heads_raise():
    x = leaf((2, 5, 12), 24)
    with pytest.raises(T.ShapeError):
        T.attention(x, x, x, (4, 2), cols=((0, 4), (4, 8), (8, 12)))
    with pytest.raises(T.ShapeError):
        T.attention(x, x, x, (3, 3), cols=((0, 4), (4, 8), (8, 12)))


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

VARIANTS = {
    "dense": dict(),
    "window": dict(attention="window", window=3),
    "multi-query": dict(multi_query=True),
    "encoder-decoder": dict(architecture="encoder-decoder"),
    "lowrank-d": dict(attention="lowrank-d"),
    "map-reuse": dict(reuse_maps=True),
}
IDS = [E.SOS, 4, 5, 6, 7, 3, 4, 5, 6, 3, 7, 4]
SOURCE = [3, 4, 5, 6, 7, 4, E.PAD, E.PAD]          # padded encoder input


def build(kw, dtype, seed=3):
    base = dict(d=16, n_layers=2, tau=4, d_ffn=32)
    base.update(kw)
    return M.Model.init(M.ModelConfig(**base), VOCAB, seed=seed, dtype=dtype)


def chunked(model):
    """Logits of IDS[5:] over the frozen keys and values of IDS[:5]."""
    kv = []
    model.decoder_forward(IDS[:5], kv_out=kv)
    return model.decoder_forward(IDS[5:], start_pos=5, kv_prefix=kv)


def logits_of(model):
    """Full-pass logits (cross attention projects the encoder rows), the
    same ids decoded on the cache, a block of 3 and then one at a time
    (the window cache trims; cross attention reads session K/V), and a
    decoder-only model's chunked logits."""
    enc = model.cfg.architecture == "encoder-decoder"
    source = SOURCE if enc else None
    full = model.decoder_forward(IDS, model.encode(source) if enc else None)
    session = model.decode_session(source)
    steps = [model.decode_step(session, np.asarray([IDS[:3]]))[0]]
    steps += [model.decode_step(session, t) for t in IDS[3:]]
    # the decode distributions are float64 softmaxes of float32 logits
    out = [full.values, np.concatenate([steps[0], np.stack(steps[1:])])]
    return out if enc else out + [chunked(model).values]


@pytest.mark.parametrize("kw", VARIANTS.values(), ids=VARIANTS)
def test_float32_logits_are_bitwise_the_composite(kw):
    model = build(kw, F32)
    assert_f32_bitwise(lambda: logits_of(model))


def test_a_padded_encoder_is_bitwise_the_composite():
    model = build(dict(architecture="encoder-only"), F32)
    assert_f32_bitwise(lambda: model.encode(SOURCE).values)


def grad_cases():
    cases = [(f"full-{k}", kw, "full") for k, kw in VARIANTS.items()]
    cases += [(f"chunked-{k}", VARIANTS[k], "chunked")
              for k in ("dense", "window", "multi-query", "lowrank-d",
                        "map-reuse")]
    cases.append(("encoder-padded", dict(architecture="encoder-only"),
                  "encode"))
    return cases


@pytest.mark.parametrize("name,kw,how", grad_cases(),
                         ids=[c[0] for c in grad_cases()])
def test_float64_values_and_gradients_match_the_composite(name, kw, how):
    model = build(kw, F64)
    enc = model.cfg.architecture == "encoder-decoder"

    def fn():
        if how == "encode":
            return model.encode(SOURCE)
        if how == "chunked":
            return chunked(model)
        return model.decoder_forward(IDS, model.encode(SOURCE) if enc else None)

    leaves = model.parameters()
    if how == "encode":             # the output head is not on this path
        leaves = [t for t in leaves if t is not model.w_o]
    assert_op_matches(fn, leaves)


# ---------------------------------------------------------------------------
# whole decodes and training of the benchmark's shape
# ---------------------------------------------------------------------------

SHAPE = dict(d=64, n_layers=2, tau=4, d_ffn=256, placement="post")


def corpus():
    return (importlib.resources.files("seqlab") / "data" / "corpus.txt").read_text()


@pytest.fixture(scope="module")
def decode_models():
    """One model per decode-mixed request kind, the EOS logit held at the
    mean of the ordinary ones so no request stops early."""
    text = corpus()
    vocab = E.Vocab.from_text(text)
    ordinary = [v for v in range(len(vocab))
                if v not in (E.PAD, E.SOS, E.EOS, E.CLS)]
    configs = {"dense": {}, "encdec": dict(architecture="encoder-decoder"),
               "window": dict(attention="window", window=8)}
    models = {}
    for seed, (kind, kw) in enumerate(configs.items(), start=11):
        m = M.Model.init(M.ModelConfig(**SHAPE, **kw), vocab, seed=seed)
        w = m.w_o.values.copy()
        w[:, E.EOS] = w[:, ordinary].mean(axis=1)
        T.assign_(m.w_o, w)
        models[kind] = m
    return models, vocab.encode(text[500:506]), vocab.encode(text[700:714])


def decodes(models, prompt, source):
    beam = R.beam_search(models["dense"], prompt, R.SearchConfig(beam=4, n_max=8))
    return [
        ("greedy", R.greedy_generate(models["dense"], prompt,
                                     R.SearchConfig(n_max=24))),
        ("beam4", [(b.tokens, np.float64(b.logprob).tobytes()) for b in beam]),
        ("quant8", R.quantized_infer(models["dense"], prompt,
                                     R.SearchConfig(n_max=10), bits=8)),
        ("encdec", R.greedy_generate(models["encdec"], prompt,
                                     R.SearchConfig(n_max=20), source=source)),
        ("window8", R.greedy_generate(models["window"], prompt,
                                      R.SearchConfig(n_max=64))),
    ]


def test_decodes_are_the_composite_tokens(decode_models, request):
    fused = decodes(*decode_models)
    request.getfixturevalue("composite")
    assert decodes(*decode_models) == fused


def c10_losses(steps):
    vocab = E.Vocab.from_text(corpus())
    model = M.Model.init(M.ModelConfig(**SHAPE), vocab, seed=0)
    segs = TR.segments_from_text(corpus(), vocab, 64)
    rows = TR.train_lm(model, segs, TR.TrainConfig(
        lr0=0.2, n_warmup=400, batch_size=8, max_steps=steps, seed=0,
        seq_len=64))
    return np.array([r["loss"] for r in rows])


def test_c10_losses_are_bitwise_the_composite(request):
    got = c10_losses(20)
    request.getfixturevalue("composite")
    want = c10_losses(20)
    assert got.tobytes() == want.tobytes()
