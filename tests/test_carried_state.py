"""Linear-attention and SSM decode steps run the full-pass scans on a
carried state; here they are checked against a pinned copy of the
per-row, per-head, per-position numpy step loops they replace. Also the
float32 SSM parameters, the cross-attention count and the counted window
path, which is the window pass training runs. Decode checks run in
float64.
"""

import os
import tempfile

import numpy as np
import pytest

import seqlab.attention as A
import seqlab.efficient as EF
import seqlab.model as M
import seqlab.runtime as R
import seqlab.tensor as T
from seqlab.embedding import PAD, SOS, Vocab

from test_model import DECODE_VARIANTS

F64 = np.float64
VOCAB = Vocab.from_text("abcdefgh")
TOL = 1e-12
CARRIED = [kw for kw in DECODE_VARIANTS if kw.get("attention") in ("linear", "ssm")]


def build(seed=0, dtype=F64, **kw):
    base = dict(d=8, n_layers=2, tau=2, d_ffn=16)
    base.update(kw)
    return M.Model.init(M.ModelConfig(**base), VOCAB, seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# the pinned step loops
# ---------------------------------------------------------------------------


def pinned_step_att_core(self, layer, idx, session, reuse_store=None,
                         counter=None):
    """Model._step_att_core as it was: linear attention steps a float64
    kernel recurrence per row, position and head; an SSM layer steps its
    numpy recurrence position by position. The state lives in the
    session's carried arrays, so select and the session checks apply."""
    cfg = self.cfg
    slots = iter(range(idx * cfg.integrator_order,
                       (idx + 1) * cfg.integrator_order))

    def core(z):
        slot = next(slots)
        carry = session.states[slot]
        m = z.shape[-2]
        if session.mode == "stream":
            phi = EF.FeatureMap(cfg.feature_map).apply_np
            q, k, v = (x.values for x in layer.att.heads(z))
            mu, nu = (x.astype(F64) for x in carry)
            out = np.empty(q.shape)
            for r in range(q.shape[0]):
                for i in range(m):
                    for hh in range(cfg.tau):
                        kp, qp = phi(k[r, hh, i]), phi(q[r, hh, i])
                        mu[r, hh] = mu[r, hh] + np.outer(kp, v[r, hh, i])
                        nu[r, hh] = nu[r, hh] + kp
                        out[r, hh, i] = (qp @ mu[r, hh]) / float(qp @ nu[r, hh])
            carry[:] = [mu, nu]
            result = layer.att.merge(T.Tensor(out.astype(self.dtype)))
        else:
            dssm = layer.ssm
            (state,) = carry
            out = []
            for i in range(m):
                s_col = z.values[:, i, :, None]
                state = state @ dssm.a_bar.values + s_col @ dssm.b_bar.values
                out.append(state @ dssm.c_bar.values + s_col @ dssm.d_bar.values)
            carry[:] = [state]
            result = T.Tensor(np.concatenate(out, axis=-1)
                              .transpose(0, 2, 1).astype(self.dtype))
        session.positions[slot] += m
        return result

    return core


@pytest.fixture
def pinned(monkeypatch):
    """Run the body under the pinned step loops: ``pinned(fn)`` returns
    fn() computed with them."""
    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(M.Model, "_step_att_core", pinned_step_att_core)
            return fn()
    return run


def decodes(model):
    """One-token steps over a prompt, then a block of three after a block
    of five, as (steps, blocks) distributions."""
    ids = [SOS] + VOCAB.encode("cabdabc")
    session = model.decode_session()
    steps = np.stack([model.decode_step(session, t) for t in ids])
    session = model.decode_session()
    blocks = np.concatenate([model.decode_step(session, np.array([ids[:5]]))[0],
                             model.decode_step(session, np.array([ids[5:]]))[0]])
    return steps, blocks


@pytest.mark.parametrize("kw", CARRIED, ids=[str(sorted(k.items())) for k in CARRIED])
def test_carried_decode_equals_the_pinned_step_loops(kw, pinned):
    model = build(**kw)
    got = decodes(model)
    want = pinned(lambda: decodes(model))
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) < TOL


@pytest.mark.parametrize("attention", ["linear", "ssm"])
def test_beam_search_equals_the_pinned_step_loops(attention, pinned):
    model = build(seed=5, attention=attention)
    cfg = R.SearchConfig(beam=4, n_max=8)
    prompt = VOCAB.encode("ab")
    got = R.beam_search(model, prompt, cfg)
    want = pinned(lambda: R.beam_search(model, prompt, cfg))
    assert [h.tokens for h in got] == [h.tokens for h in want]
    for g, w in zip(got, want):
        assert abs(g.logprob - w.logprob) < TOL


def test_a_decode_step_has_no_python_loop_over_rows_or_heads(monkeypatch):
    """Every row and head of a linear layer goes through one
    kernelized_attention call per slot and block."""
    model = build(attention="linear", tau=4)
    calls = []
    kernel = EF.kernelized_attention

    def recording(q, k, v, *args, **kwargs):
        calls.append(q.shape)
        return kernel(q, k, v, *args, **kwargs)

    monkeypatch.setattr(EF, "kernelized_attention", recording)
    session = model.decode_session()
    model.decode_step(session, np.array([[SOS, 4, 5]]))
    session.select([0, 0, 0])
    model.decode_step(session, np.array([[4], [5], [6]]))
    assert calls == [(1, 4, 3, 2)] * 2 + [(3, 4, 1, 2)] * 2


# ---------------------------------------------------------------------------
# SSM parameters in the model's dtype
# ---------------------------------------------------------------------------


def test_a_float32_ssm_model_is_float32_throughout():
    model = build(dtype=np.float32, attention="ssm")
    assert {p.dtype for p in model.parameters()} == {np.dtype(np.float32)}
    ids = [SOS] + VOCAB.encode("abcab")
    assert model.decoder_forward(ids).dtype == np.float32
    session = model.decode_session()
    model.decode_step(session, np.array([ids]))
    assert {x.dtype for carry in session.states for x in carry} \
        == {np.dtype(np.float32)}


def test_a_float32_ssm_checkpoint_round_trip_is_bitwise():
    model = build(dtype=np.float32, attention="ssm")
    ids = [SOS] + VOCAB.encode("abcab")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ssm.ckpt")
        R.save_checkpoint(model, path)
        loaded = R.load_checkpoint(path)
    np.testing.assert_array_equal(loaded.decoder_forward(ids).values,
                                  model.decoder_forward(ids).values)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_cross_attention_work_is_counted_per_source_token():
    model = build(architecture="encoder-decoder")
    target = [SOS] + VOCAB.encode("abc")

    def count(source):
        counter = A.OpCounter()
        model.decoder_forward(target, model.encode(source), counter=counter)
        return counter.multiply_adds

    short, long = count(VOCAB.encode("a")), count(VOCAB.encode("abcdefghabcdef"))
    cfg = model.cfg
    assert long - short == 2 * cfg.n_layers * len(target) * cfg.d * 13


def test_the_counted_window_path_keeps_the_pad_mask():
    model = build(architecture="encoder-only", attention="window", window=3)
    ids = VOCAB.encode("abcd") + [PAD, PAD]
    plain = model.encode(ids).values
    counted = model.encode(ids, counter=A.OpCounter()).values
    assert np.max(np.abs(counted[:4] - plain[:4])) < TOL


def test_the_counted_window_path_runs_on_a_tape():
    model = build(attention="window", window=3)
    ids = [SOS] + VOCAB.encode("abcdefgh")
    plain_count, taped_count = A.OpCounter(), A.OpCounter()
    plain = model.decoder_forward(ids, counter=plain_count).values
    with T.Tape() as tape:
        logits = model.decoder_forward(ids, counter=taped_count)
        grads = T.backward(T.reduce_sum(logits * logits))
    tape.release()
    assert logits.values.tobytes() == plain.tobytes()
    assert taped_count.multiply_adds == plain_count.multiply_adds > 0
    w_qkv = model.dec_layers[0].att.w_qkv
    assert np.all(np.isfinite(grads[w_qkv].values))
    assert np.any(grads[w_qkv].values != 0.0)
