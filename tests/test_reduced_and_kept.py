"""Width reduction and map reuse through the one attention op, against
the composite path they took before (``pinned_composite``).

Width reduction now reduces each block's own query and key heads once,
and a cache holds the reduced keys; the first map-reuse layer's op hands
out its weights and later layers' ops apply them, projecting and caching
V alone. In float64, values and gradients agree within 1e-12 for full
passes, chunked spans and cached and drafted blocks. After a parameter
update between spans, a span scores against the earlier keys reduced
with the U^kd of the step that wrote them, where the composite used the
updated U^kd. In float32 a full
pass is bitwise the composite's, and a cached step agrees within
F32_TOL: the composite re-reduced the whole cached key history at every
step, and a one-row product may round differently from a many-row one.
Greedy (self-drafting) and beam-4 tokens are equal in both precisions.
"""

import numpy as np
import pytest

from seqlab import attention as A
from seqlab import model as M
from seqlab import runtime as R
from seqlab import tensor as T
from seqlab.embedding import EOS, SOS, Vocab

import pinned_composite as P

F32, F64 = np.float32, np.float64
TOL = 1e-12
F32_TOL = 1e-6          # float32 cached-step distributions, absolute
VOCAB = Vocab.from_text("abcdefgh")

VARIANTS = {
    "lowrank-d": dict(attention="lowrank-d"),
    "lowrank-d-d1": dict(attention="lowrank-d", reduced_width=1),
    "lowrank-d-pre-rk2": dict(attention="lowrank-d", placement="pre",
                              integrator_order=2),
    "map-reuse": dict(reuse_maps=True),
    "map-reuse-3-layers": dict(reuse_maps=True, n_layers=3),
    "map-reuse-pre-dropout": dict(reuse_maps=True, placement="pre",
                                  dropout_rho=0.6),
}
ENCDEC = {"lowrank-d-encdec": dict(attention="lowrank-d",
                                   architecture="encoder-decoder"),
          "map-reuse-encdec": dict(reuse_maps=True,
                                   architecture="encoder-decoder")}
SOURCE = VOCAB.encode("hgfe")
IDS = [SOS] + VOCAB.encode("cabdabcd")


def build(kw, dtype=F64, seed=3):
    base = dict(d=16, n_layers=2, tau=4, d_ffn=24)
    base.update(kw)
    return M.Model.init(M.ModelConfig(**base), VOCAB, seed=seed, dtype=dtype)


def pinned(fn, reduced_history=False):
    """fn() with self-attention routed through the composite."""
    with pytest.MonkeyPatch.context() as mp:
        P.install(mp, reduced_history)
        return fn()


def with_grads(model, loss_fn):
    """The loss's value and every parameter's gradient."""
    with T.Tape() as tape:
        out, loss = loss_fn()
    grads = T.backward(loss)
    tape.release()
    return [out.values] + [grads[p].values if p in grads
                           else np.zeros(p.shape) for p in model.parameters()]


def assert_close(got, want, tol=TOL):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= tol


@pytest.mark.parametrize("kw", {**VARIANTS, **ENCDEC}.values(),
                         ids=list(VARIANTS) + list(ENCDEC))
def test_full_pass_values_and_gradients(kw):
    model = build(kw)
    enc = model.cfg.architecture == "encoder-decoder"
    ids = np.array([IDS, IDS[::-1]])
    probe = T.Tensor(T.Rng(5).gaussian(ids.shape + (len(VOCAB),)), dtype=F64)

    def loss():
        enc_out = model.encode(SOURCE) if enc else None
        logits = model.decoder_forward(ids[:1] if enc else ids, enc_out)
        return logits, T.reduce_sum(logits * (probe.values[:1] if enc
                                              else probe))

    assert_close(with_grads(model, loss), pinned(lambda: with_grads(model, loss)))


@pytest.mark.parametrize("kw", [dict(attention="lowrank-d"),
                                dict(reuse_maps=True)],
                         ids=["lowrank-d", "map-reuse"])
def test_padded_encoder_values_and_gradients(kw):
    model = build(dict(kw, architecture="encoder-only"))
    ids = VOCAB.encode("cabd") + [0, 0]             # suffix PAD
    probe = T.Tensor(T.Rng(6).gaussian((len(ids), 16)), dtype=F64)

    def loss():
        h = model.encode(ids)
        return h, T.reduce_sum(h * probe)

    assert_close(with_grads(model, loss), pinned(lambda: with_grads(model, loss)))


def test_a_later_map_reuse_layer_tallies_its_weighted_values():
    """OpCounter counts a later map-reuse layer's W V, n * n_k * d_h per
    head, and no scores: 3/4 of dense's work over two layers (the
    composite counted nothing there)."""
    counts = []
    for kw in ({}, dict(reuse_maps=True)):
        counter = A.OpCounter()
        build(dict(kw, tau=2)).decoder_forward(IDS, counter=counter)
        counts.append(counter.multiply_adds)
    assert counts[1] * 4 == counts[0] * 3 and counts[1] > 0


CHUNKED = {k: VARIANTS[k] for k in ("lowrank-d", "lowrank-d-d1", "map-reuse",
                                    "map-reuse-3-layers")}


@pytest.mark.parametrize("kw", CHUNKED.values(), ids=CHUNKED)
@pytest.mark.parametrize("cut", [1, 4, 8])
def test_chunked_spans_values_and_gradients(kw, cut):
    """A span over the previous span's cached keys and values
    (kv_out/kv_prefix), batched rows, with the gradient of the second
    span's loss. The previous span's keys are constants. The composite
    cached them at full width and reduced them again with the live U^kd,
    so U^kd was the one parameter whose gradient reached the earlier span;
    a cache of reduced keys holds them as constants too. U^kd's gradient
    is therefore pinned against the composite with the cached rows'
    reduction made a constant, and every other value and gradient against
    the composite as it was."""
    model = build(kw)
    ids = np.array([IDS, IDS[::-1]])
    probe = T.Tensor(T.Rng(7).gaussian((2, len(IDS) - cut, len(VOCAB))),
                     dtype=F64)

    def loss():
        kv = []
        first = model.decoder_forward(ids[:, :cut], kv_out=kv)
        second = model.decoder_forward(ids[:, cut:], start_pos=cut,
                                       kv_prefix=kv)
        both = T.concat([first, second], axis=1)
        return both, T.reduce_sum(second * probe)

    got = with_grads(model, loss)
    assert_close(got, pinned(lambda: with_grads(model, loss), True))
    u_kd = {id(lay.att.reduce.u_kd) for lay in model.dec_layers
            if lay.att.reduce}
    other = [0] + [i for i, p in enumerate(model.parameters(), start=1)
                   if id(p) not in u_kd]
    want = pinned(lambda: with_grads(model, loss))
    assert_close([got[i] for i in other], [want[i] for i in other])


def test_chunked_training_reduces_cached_keys_with_their_steps_u_kd():
    """Chunked training updates the parameters between spans. The cache
    holds the previous span's keys reduced with the U^kd of the step that
    wrote them, so after an update the next span scores against
    K U^kd_old, where the composite re-reduced full-width keys with the
    updated U^kd: from the second span on the values differ from the
    composite's, not only U^kd's gradient."""
    ids, cut = np.array([IDS, IDS[::-1]]), 4

    def second_span():
        model = build(dict(attention="lowrank-d"))
        kv = []
        model.decoder_forward(ids[:, :cut], kv_out=kv)
        old = [lay.att.reduce.u_kd.values.copy() for lay in model.dec_layers]
        rng = T.Rng(8)                       # a fixed update of every parameter
        for p in model.parameters():
            T.assign_(p, p.values + 0.1 * rng.gaussian(p.shape))
        logits = model.decoder_forward(ids[:, cut:], start_pos=cut,
                                       kv_prefix=kv)
        return logits.values, old

    got, old = second_span()
    frozen = pinned(lambda: second_span()[0], old)
    live = pinned(second_span)[0]
    assert np.max(np.abs(got - frozen)) <= TOL
    assert np.max(np.abs(got - live)) > 1e-3


def session_trace(model, source=None):
    """Distributions over a prompt block, one-id steps, a drafted block
    rewound in part and fed again, and a beam-style row selection."""
    s = model.decode_session(source)
    out = [model.decode_step(s, np.array([IDS[:3]]))[0]]
    out += [model.decode_step(s, t)[None] for t in IDS[3:5]]
    out.append(model.decode_step(s, np.array([IDS[5:9]]))[0])
    s.rewind(2)
    out.append(model.decode_step(s, np.array([IDS[7:9][::-1]]))[0])
    s.select([0, 0, 0])
    out.append(model.decode_step(s, np.array([[4, 5], [6, 7], [5, 5]]))
               .reshape(-1, len(VOCAB)))
    return np.concatenate(out)


@pytest.mark.parametrize("kw", {**VARIANTS, **ENCDEC}.values(),
                         ids=list(VARIANTS) + list(ENCDEC))
def test_cached_and_drafted_blocks(kw):
    model = build(kw)
    source = SOURCE if model.cfg.architecture == "encoder-decoder" else None
    got = session_trace(model, source)
    want = pinned(lambda: session_trace(model, source))
    assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("kw", {**VARIANTS, **ENCDEC}.values(),
                         ids=list(VARIANTS) + list(ENCDEC))
def test_float32_full_pass_is_bitwise_and_steps_within_tolerance(kw):
    model = build(kw, dtype=F32)
    enc = model.cfg.architecture == "encoder-decoder"
    source = SOURCE if enc else None

    def run():
        enc_out = model.encode(SOURCE) if enc else None
        return (model.decoder_forward(IDS, enc_out).values,
                session_trace(model, source))

    (full, steps), (want_full, want_steps) = run(), pinned(run)
    assert full.dtype == F32
    assert full.tobytes() == want_full.tobytes()
    assert np.max(np.abs(steps - want_steps)) <= F32_TOL


@pytest.mark.parametrize("dtype", [F32, F64], ids=["float32", "float64"])
@pytest.mark.parametrize("kw", {**VARIANTS, **ENCDEC}.values(),
                         ids=list(VARIANTS) + list(ENCDEC))
def test_greedy_and_beam_tokens_are_equal(kw, dtype):
    model = build(kw, dtype=dtype, seed=5)
    w = model.w_o.values.copy()
    w[:, EOS] = -50.0                        # full-length decodes
    T.assign_(model.w_o, w)
    source = SOURCE if model.cfg.architecture == "encoder-decoder" else None
    prompt = VOCAB.encode("cab")

    def run():
        greedy = R.greedy_generate(model, prompt, R.SearchConfig(n_max=16),
                                   source=source)
        beam = R.beam_search(model, prompt, R.SearchConfig(beam=4, n_max=8),
                             source=source)
        return greedy, [(b.tokens, b.logprob) for b in beam]

    (greedy, beam), (want_greedy, want_beam) = run(), pinned(run)
    assert greedy == want_greedy
    assert [t for t, _ in beam] == [t for t, _ in want_beam]
    tol = 1e-9 if dtype == F64 else 1e-4
    assert np.allclose([lp for _, lp in beam], [lp for _, lp in want_beam],
                       rtol=0, atol=tol)
