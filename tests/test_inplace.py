"""In-place buffers in the fused ops against their out-of-place bodies.

``tensor.attention``, ``tensor.ffn``, ``softmax_rows`` and
``log_softmax_nll`` run their elementwise passes
inside arrays they allocated themselves (``softmax_rows`` from its scale
on, when it has one). The out-of-place bodies they replace are pinned
here (the FFN's is its composite with the pinned ReLU): every output
and every input's gradient must be equal bit for bit, in float32 and
float64, as must criterion-10 losses and weights and whole decodes. The
buffer rule is checked directly: no input's values, no mask, no live
KV-cache row and no incoming gradient changes in the forward or the
backward, and a gradient array that ``add`` hands to two records gives
both the pinned gradients.
"""

import importlib.resources
import math
import tracemalloc

import numpy as np
import pytest

from seqlab import attention as A
from seqlab import embedding as E
from seqlab import model as M
from seqlab import runtime as R
from seqlab import tensor as T
from seqlab import train as TR

F32, F64 = np.float32, np.float64


# ---------------------------------------------------------------------------
# the out-of-place bodies, pinned
# ---------------------------------------------------------------------------


def pinned_relu(a):
    zv = a.values
    out = T._result(np.maximum(zv, 0))
    return T._emit(out, (a,), lambda g: (g * (zv > 0),))


def pinned_softmax_rows(x, additive_mask=None, scale=None):
    xv = x.values
    if scale is not None:
        c = np.asarray(scale, dtype=xv.dtype)
        xv = xv * c
    mask_t = additive_mask if isinstance(additive_mask, T.Tensor) else None
    if additive_mask is not None:
        mv = additive_mask.values if mask_t is not None else np.asarray(
            additive_mask, dtype=x.dtype)
        if not np.maximum.reduce(mv, axis=None, initial=-np.inf) < np.inf:
            raise ValueError("mask entries must be finite or -inf")
        logits = xv + mv
    else:
        logits = xv
    if logits.shape[-1] == 0:
        raise T.DegenerateRowError("softmax over zero-width rows")
    row_max = np.maximum.reduce(logits, axis=-1, keepdims=True)
    if np.fmin.reduce(row_max, axis=None, initial=np.inf) == -np.inf:
        raise T.DegenerateRowError("softmax row with every entry masked")
    shifted = logits - row_max
    e = np.exp(shifted)
    denom = np.add.reduce(e, axis=-1, keepdims=True)
    y = e / denom
    out = T._result(y.astype(x.dtype, copy=False))

    def grad_fn(g):
        dot = np.add.reduce(g * y, axis=-1, keepdims=True)
        gl = ((g - dot) * y).astype(x.dtype, copy=False)
        gx = T._unbroadcast(gl if scale is None else gl * c, x.shape)
        if mask_t is None:
            return (gx,)
        return gx, T._unbroadcast(gl, mask_t.shape)

    inputs = (x,) if mask_t is None else (x, mask_t)
    return T._emit(out, inputs, grad_fn)


def pinned_attention(q, k, v, heads=(1, 1), *, cols=(None, None, None),
                     history=None, mask=None, scale=None, keep=False,
                     weights=None):
    assert not keep and weights is None      # the plain form's body alone
    n_q, n_kv = heads
    if n_kv != n_q and n_kv != 1:
        raise T.ShapeError(f"{n_kv} key/value heads cannot serve {n_q} query heads")
    blocks, parts = [], []
    for t, c, n in ((q, cols[0], n_q), (k, cols[1], n_kv), (v, cols[2], n_kv)):
        shape = t.values.shape
        lo, hi = (0, shape[-1]) if c is None else c
        if len(shape) < 2 or not 0 <= lo < hi <= shape[-1] or (hi - lo) % n:
            raise T.ShapeError(f"no {n} heads in columns {lo}..{hi} of {shape}")
        blocks.append((t, lo, hi, n))
        parts.append(t.values[..., lo:hi])
    m = k.values.shape[-2]
    if history is not None:
        if any(a.shape[-1] != b.shape[-1] or a.shape[-2] < m
               for a, b in zip(history, parts[1:])):
            raise T.ShapeError("history rows do not end in the key/value blocks")
        parts[1:] = history
    qh = T.head_view(parts[0], n_q)
    kh, vh = T.head_view(parts[1], n_kv), T.head_view(parts[2], n_kv)
    n_k, d_h = kh.shape[-2:]
    if qh.shape[-1] != d_h or vh.shape[-2] != n_k:
        raise T.ShapeError(f"heads Q {qh.shape}, K {kh.shape}, V {vh.shape} differ")

    s = np.matmul(qh, kh.swapaxes(-1, -2))
    c = s.dtype.type(1.0 / math.sqrt(d_h) if scale is None else scale)
    logits = s * c
    mask_t = mask if isinstance(mask, T.Tensor) else None
    if mask is not None:
        mv = mask.values if mask_t is not None else np.asarray(mask, dtype=s.dtype)
        if not np.maximum.reduce(mv, axis=None, initial=-np.inf) < np.inf:
            raise ValueError("mask entries must be finite or -inf")
        logits = logits + mv
    if n_k == 0:
        raise T.DegenerateRowError("softmax over zero-width rows")
    row_max = np.maximum.reduce(logits, axis=-1, keepdims=True)
    if np.fmin.reduce(row_max, axis=None, initial=np.inf) == -np.inf:
        raise T.DegenerateRowError("softmax row with every entry masked")
    e = np.exp(logits - row_max)
    y = e / np.add.reduce(e, axis=-1, keepdims=True)
    w = y.astype(s.dtype, copy=False)
    o = np.matmul(w, vh)
    out = T._result(o.swapaxes(-2, -3).reshape(
        o.shape[:-3] + (o.shape[-2], o.shape[-3] * o.shape[-1])))

    srcs = [q] if k is q else [q, k]
    if v is not q and v is not k:
        srcs.append(v)

    def grad_fn(g):
        go = T.head_view(g, n_q)
        gw = T._unbroadcast(np.matmul(go, vh.swapaxes(-1, -2)), w.shape)
        gv = T._unbroadcast(np.matmul(w.swapaxes(-1, -2), go), vh.shape)
        dot = np.add.reduce(gw * y, axis=-1, keepdims=True)
        gl = ((gw - dot) * y).astype(s.dtype, copy=False)
        gs = gl * c
        gq = T._unbroadcast(np.matmul(gs, kh), qh.shape)
        gk_t = np.matmul(qh.swapaxes(-1, -2), gs)
        gk = np.swapaxes(T._unbroadcast(gk_t, kh.shape[:-2] + (d_h, n_k)), -1, -2)
        if history is not None:
            gk, gv = gk[..., -m:, :], gv[..., -m:, :]
        grads = []
        for t in srcs:
            parts = [(lo, hi, n, gh) for (u, lo, hi, n), gh
                     in zip(blocks, (gq, gk, gv)) if u is t]
            spans = sorted((lo, hi) for lo, hi, _, _ in parts)
            tiled = spans[0][0] == 0 and spans[-1][1] == t.shape[-1] and all(
                a[1] == b[0] for a, b in zip(spans, spans[1:]))
            gx = (np.empty if tiled else np.zeros)(
                t.shape, dtype=np.result_type(*(p[3] for p in parts)))
            for lo, hi, n, gh in parts:
                view = T.head_view(gx[..., lo:hi], n)
                if tiled:
                    view[...] = gh
                else:
                    view += gh
            grads.append(gx)
        if mask_t is not None:
            grads.append(T._unbroadcast(gl, mask_t.shape))
        return tuple(grads)

    inputs = tuple(srcs) + ((mask_t,) if mask_t is not None else ())
    return T._emit(out, inputs, grad_fn)


def pinned_log_softmax_nll(x, targets, weights, floor):
    xv = x.values
    ids = np.asarray(targets, dtype=np.int64)
    if xv.ndim != 2 or ids.shape != xv.shape[:1]:
        raise T.ShapeError("log_softmax_nll takes (m, |V|) logits and m targets")
    if floor <= 0:
        raise ValueError("the probability floor must be positive")
    rows = np.arange(xv.shape[0])
    e = np.exp(xv - np.max(xv, axis=-1, keepdims=True))
    y = (e / e.sum(axis=-1, keepdims=True)).astype(xv.dtype, copy=False)
    picked = y[rows, ids]
    fl = np.asarray(floor, dtype=xv.dtype)
    w = np.asarray(weights, dtype=xv.dtype)
    out = T._result(-(np.log(np.maximum(picked, fl)) * w).sum())

    def grad_fn(g):
        coef = g * w * (picked >= fl)
        gx = y * coef[:, None]
        gx[rows, ids] -= coef
        return (gx.astype(xv.dtype, copy=False),)

    return T._emit(out, (x,), grad_fn), picked


def pinned_ffn(h, w_h, b_h, w_f, b_f):
    """The composite the FFN op replaced: two matmuls, the bias add, the
    ReLU (its pinned body when the fixture is on) and the output bias."""
    return T.add(T.matmul(T.relu(T.add(T.matmul(h, w_h), b_h)), w_f), b_f)


PINNED = {"attention": pinned_attention, "relu": pinned_relu,
          "ffn": pinned_ffn, "softmax_rows": pinned_softmax_rows,
          "log_softmax_nll": pinned_log_softmax_nll}


@pytest.fixture
def pinned(monkeypatch):
    """Route every caller through the out-of-place bodies."""
    for name, fn in PINNED.items():
        monkeypatch.setattr(T, name, fn)


def both(fn):
    """fn() with the in-place ops, then with the pinned bodies."""
    got = fn()
    with pytest.MonkeyPatch.context() as mp:
        for name, body in PINNED.items():
            mp.setattr(T, name, body)
        want = fn()
    return got, want


def leaf(shape, seed, dtype):
    return T.Tensor(T.Rng(seed).gaussian(shape), dtype=dtype, trainable=True)


def run(fn, leaves):
    """Bytes of fn()'s output and of every leaf's gradient under one
    random probe."""
    with T.Tape() as tape:
        out = fn()
        probe = T.Tensor(T.Rng(99).gaussian(out.shape), dtype=out.dtype)
        loss = T.reduce_sum(out * probe)
    grads = T.backward(loss)
    tape.release()
    return [(out.dtype, out.values.tobytes())] + [
        (grads[t].dtype, grads[t].values.tobytes()) for t in leaves]


# ---------------------------------------------------------------------------
# the ops on their own
# ---------------------------------------------------------------------------

# A case maps a dtype to (fn, the leaves whose gradients are compared, the
# plain arrays fn reads: masks, cache rows, targets and weights).

N = 65                                      # the training block: SOS + 64


def qkv_leaf(dtype, seed=1, rows=2, m=N, n_kv=4):
    return leaf((rows, m, 16 + 2 * n_kv * 4), seed, dtype)


def fused_cols(n_kv=4):
    w = n_kv * 4
    return (0, 16), (16, 16 + w), (16 + w, 16 + 2 * w)


def self_case(mask, n_kv=4, mask_tensor=False):
    def make(dtype):
        x = qkv_leaf(dtype, n_kv=n_kv)
        mk = T.Tensor(mask, trainable=True) if mask_tensor else mask.copy()
        leaves = [x, mk] if mask_tensor else [x]
        return (lambda: T.attention(x, x, x, (4, n_kv), cols=fused_cols(n_kv),
                                    mask=mk)), leaves, [] if mask_tensor else [mk]
    return make


def history_case(m, window=None):
    """A block of m rows after 5 cached ones, reading the cache's live rows."""
    def make(dtype):
        x = leaf((2, m, 48), 2, dtype)
        cache = A.KVCache(1, window)
        earlier = T.Rng(3).gaussian((2, 5, 32)).astype(dtype)
        cache.write(0, earlier[..., :16], earlier[..., 16:])
        k, v, back = cache.write(0, x.values[..., 16:32], x.values[..., 32:])
        mask = A._step_mask(m, back, window)
        held = [k, v] if mask is None else [k, v, mask]
        return (lambda: T.attention(x, x, x, (4, 4), cols=fused_cols(),
                                    history=(k, v), mask=mask)), [x], held
    return make


def cross_case(dtype):
    """Three decoder rows over a session's encoder K/V product."""
    q, kv = leaf((3, 4, 16), 4, dtype), leaf((3, 7, 32), 5, dtype)
    return (lambda: T.attention(q, kv, kv, (4, 4),
                                cols=(None, (0, 16), (16, 32)))), [q, kv], []


def float64_mask_case(dtype):
    """A float64 Tensor mask widens float32 scores: computed out of place."""
    x = qkv_leaf(dtype, m=6)
    mask = T.Tensor(np.where(np.isinf(A.causal_mask(6)), -np.inf,
                             T.Rng(6).gaussian((6, 6))), dtype=F64,
                    trainable=True)
    return (lambda: T.attention(x, x, x, (4, 4), cols=fused_cols(),
                                mask=mask)), [x, mask], []


def broadcast_mask_case(dtype):
    """A mask with more leading axes than the scores broadcasts them up."""
    q = leaf((6, 8), 7, dtype)
    mask = np.where(T.Rng(8).uniform((3, 1, 6, 6)) < 0.3, -np.inf, 0.0)
    mask[..., 0] = 0.0
    return (lambda: T.attention(q, q, q, (2, 2), mask=mask)), [q], [mask]


CAUSAL = A.causal_mask(N)
ATTENTION_CASES = {
    "causal-65": self_case(CAUSAL),
    "window-8-float32-mask": self_case(A._step_mask(N, 0, 8).astype(F32)),
    "history-m1": history_case(1),
    "history-m3": history_case(3),
    "history-m3-window-4": history_case(3, 4),
    "cross-session-kv": cross_case,
    "n_kv-1": self_case(CAUSAL, n_kv=1),
    "tensor-mask": self_case(np.where(np.isinf(CAUSAL), -np.inf,
                                      T.Rng(9).gaussian((N, N))),
                             mask_tensor=True),
    "float64-mask": float64_mask_case,
    "broadcast-mask": broadcast_mask_case,
}


@pytest.mark.parametrize("dtype", [F32, F64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", ATTENTION_CASES.values(), ids=ATTENTION_CASES)
def test_attention_is_bitwise_the_out_of_place_body(case, dtype):
    got, want = both(lambda: run(*case(dtype)[:2]))
    assert got[0][0] == dtype
    assert got == want


def ffn_case(dtype):
    h, w_h, b_h = leaf((3, 5, 8), 20, dtype), leaf((8, 12), 21, dtype), \
        leaf((12,), 22, dtype)
    w_f, b_f = leaf((12, 8), 23, dtype), leaf((8,), 24, dtype)
    return (lambda: T.ffn(h, w_h, b_h, w_f, b_f)), [h, w_h, b_h, w_f, b_f], []


def softmax_case(mask_kind, scale):
    def make(dtype):
        x = leaf((3, 6, 6), 12, dtype)
        mask = {"none": None, "array": CAUSAL[:6, :6].astype(F32),
                "tensor": T.Tensor(np.where(np.isinf(CAUSAL[:6, :6]), -np.inf,
                                            T.Rng(13).gaussian((6, 6))),
                                   dtype=F64, trainable=True),
                # a leading axis of 2: the mask broadcasts the logits up
                "broadcast": np.stack([CAUSAL[:6, :6], np.zeros((6, 6))])[
                    :, None]}[mask_kind]
        leaves = [x, mask] if mask_kind == "tensor" else [x]
        held = [mask] if mask_kind in ("array", "broadcast") else []
        return (lambda: T.softmax_rows(x, mask, scale)), leaves, held
    return make


def loss_case(dtype):
    x = leaf((12, 9), 14, dtype)
    ids = T.Rng(15).integers(0, 9, 12)
    xv = x.values.copy()
    xv[3, ids[3]] = -200.0                  # a floored row: no gradient
    x = T.Tensor(xv, trainable=True)
    weights = np.full(12, 1.0 / 12)
    return (lambda: T.log_softmax_nll(x, ids, weights, TR.PROB_FLOOR)[0]), \
        [x], [ids, weights]


OTHER_CASES = {
    "ffn": ffn_case,
    "softmax": softmax_case("none", None),
    "softmax-scaled": softmax_case("none", 0.5),
    "softmax-masked": softmax_case("array", None),
    "softmax-scaled-masked": softmax_case("array", 0.5),
    "softmax-float64-tensor-mask": softmax_case("tensor", 0.5),
    "softmax-scaled-broadcasting-mask": softmax_case("broadcast", 0.5),
    "log_softmax_nll": loss_case,
}


@pytest.mark.parametrize("dtype", [F32, F64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", OTHER_CASES.values(), ids=OTHER_CASES)
def test_relu_softmax_and_loss_are_bitwise_the_out_of_place_bodies(case, dtype):
    got, want = both(lambda: run(*case(dtype)[:2]))
    assert got == want


# ---------------------------------------------------------------------------
# the buffer rule
# ---------------------------------------------------------------------------


ALL_CASES = {**ATTENTION_CASES, **OTHER_CASES}


@pytest.mark.parametrize("case", ALL_CASES.values(), ids=ALL_CASES)
def test_no_input_mask_cache_row_or_incoming_gradient_changes(case):
    fn, leaves, held = case(F32)
    arrays = [t.values for t in leaves] + held
    before = [a.copy() for a in arrays]
    with T.Tape() as tape:
        out = fn()
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in before]
    record = tape.records[-1]
    assert record.out is out
    g = T.Rng(16).gaussian(out.shape).astype(out.dtype)
    g_before = g.copy()
    first = record.grad_fn(g)
    assert g.tobytes() == g_before.tobytes()
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in before]
    # a backward that wrote into an array it keeps from the forward would
    # give a different answer the second time
    second = record.grad_fn(g)
    assert [x.tobytes() for x in first] == [x.tobytes() for x in second]


def test_a_scaled_masked_softmax_peaks_at_most_700_kib_traced():
    """tracemalloc's peak over one softmax_rows with a scale and a causal
    mask on the training shape's (8, 4, 65, 65) float32 logits, 528 KiB an
    array. The mask add, row-max subtract, exp and divide run inside the
    fresh scaled logits, so the output is the one score-sized array;
    computed out of place, the peak was 1651 KiB."""
    x = T.Tensor(T.Rng(19).gaussian((8, 4, N, N)), dtype=F32)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = T.softmax_rows(x, CAUSAL, 0.25)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert out.values.nbytes == 8 * 4 * N * N * 4
    assert peak <= 700 * 2 ** 10


def test_one_gradient_array_reaching_two_records_through_add(request):
    """add hands its incoming gradient array to both operands' records: an
    attention op and the ReLU of a biased sum, whose sum feeds a scaled
    softmax and the loss."""
    def fn(x, a, b):
        h = T.add(T.attention(x, x, x, (4, 4), cols=fused_cols(),
                              mask=CAUSAL[:6, :6]), T.relu(a + b))
        p = T.softmax_rows(T.add(h, h), None, 0.5)
        rows = T.reshape(p, (-1, p.shape[-1]))
        ids = np.arange(rows.shape[0]) % rows.shape[-1]
        return T.log_softmax_nll(rows, ids, np.full(len(ids), 1.0 / len(ids)),
                                 TR.PROB_FLOOR)[0]

    def grads():
        x, a, b = qkv_leaf(F32, m=6), leaf((2, 6, 16), 17, F32), \
            leaf((16,), 18, F32)
        with T.Tape() as tape:
            loss = fn(x, a, b)
        table = T.backward(loss)
        tape.release()
        return [table[t].values.tobytes() for t in (x, a, b)]

    got = grads()
    request.getfixturevalue("pinned")
    assert got == grads()


# ---------------------------------------------------------------------------
# whole training and decodes of the benchmark's shape
# ---------------------------------------------------------------------------

SHAPE = dict(d=64, n_layers=2, tau=4, d_ffn=256, placement="post")


def corpus():
    return (importlib.resources.files("seqlab") / "data" / "corpus.txt").read_text()


def c10_run(steps):
    vocab = E.Vocab.from_text(corpus())
    model = M.Model.init(M.ModelConfig(**SHAPE), vocab, seed=0)
    segs = TR.segments_from_text(corpus(), vocab, 64)
    rows = TR.train_lm(model, segs, TR.TrainConfig(
        lr0=0.2, n_warmup=400, batch_size=8, max_steps=steps, seed=0,
        seq_len=64))
    return (np.array([r["loss"] for r in rows]).tobytes(),
            [p.values.tobytes() for p in model.parameters()])


def test_c10_losses_and_weights_are_bitwise_the_out_of_place_bodies():
    got, want = both(lambda: c10_run(20))
    assert got[0] == want[0]
    assert got[1] == want[1]


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
    for seed, (kind, kw) in enumerate(configs.items(), start=21):
        m = M.Model.init(M.ModelConfig(**SHAPE, **kw), vocab, seed=seed)
        w = m.w_o.values.copy()
        w[:, E.EOS] = w[:, ordinary].mean(axis=1)
        T.assign_(m.w_o, w)
        models[kind] = m
    return models, vocab.encode(text[900:906]), vocab.encode(text[1200:1214])


def test_decodes_are_the_out_of_place_tokens(decode_models):
    models, prompt, source = decode_models

    def decodes():
        beam = R.beam_search(models["dense"], prompt,
                             R.SearchConfig(beam=4, n_max=8))
        return [
            R.greedy_generate(models["dense"], prompt, R.SearchConfig(n_max=24)),
            [(b.tokens, np.float64(b.logprob).tobytes()) for b in beam],
            R.quantized_infer(models["dense"], prompt, R.SearchConfig(n_max=10),
                              bits=8),
            R.greedy_generate(models["encdec"], prompt, R.SearchConfig(n_max=20),
                              source=source),
            R.greedy_generate(models["window"], prompt, R.SearchConfig(n_max=64)),
        ]

    got, want = both(decodes)
    assert got == want
