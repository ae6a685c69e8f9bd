"""The blocked sliding-window pass against the masked full pass it replaced.

``attention.window_attention`` cuts the positions into blocks of w and
attends each block over its neighbours under ``window_band``. The masked
full pass it replaced, one (m, m) score matrix under the window field and
the PAD rule, is pinned here. In float64, values and the gradients of
every input and parameter agree within 1e-12: lengths of one position,
below w and not a multiple of w, w = 1, causal and not, a PAD suffix,
one key/value head, a second-order integrator and a (b, m) id matrix.
"""

import numpy as np
import pytest

import seqlab.attention as A
import seqlab.model as M
import seqlab.tensor as T
from seqlab.embedding import PAD, SOS, Vocab

F32, F64 = np.float32, np.float64
VOCAB = Vocab.from_text("abcdefgh")
TOL = 1e-12


def pinned_window_mask(m, w, causal, pad=None):
    """The (m, m) additive mask of the masked full pass: the window field
    |i - j| <= w-1, j <= i when causal, and non-PAD queries kept off PAD
    keys."""
    i, j = np.arange(m)[:, None], np.arange(m)[None, :]
    allowed = np.abs(i - j) <= w - 1
    if causal:
        allowed &= j <= i
    if pad is not None:
        allowed &= ~(~pad[:, None] & pad[None, :])
    return np.where(allowed, 0.0, -np.inf)


def pinned_window_attention(h, params, window, causal, pad=None, counter=None):
    return A.self_attention(
        h, params, pinned_window_mask(h.shape[-2], window, causal, pad), counter)


def leaf(shape, seed=0, dtype=F64):
    return T.Tensor(T.Rng(seed).gaussian(shape), dtype=dtype, trainable=True)


def run(fn, leaves, probe_seed=99):
    """fn's output and the gradients of one random probe of it."""
    with T.Tape() as tape:
        out = fn()
        probe = T.Tensor(T.Rng(probe_seed).gaussian(out.shape), dtype=out.dtype)
        grads = T.backward(T.reduce_sum(out * probe))
    tape.release()
    return out.values, [grads.get(t, T.zeros(t.shape)).values for t in leaves]


def assert_close(got, want, tol=TOL):
    (out_a, grads_a), (out_b, grads_b) = got, want
    assert out_a.shape == out_b.shape
    assert np.max(np.abs(out_a - out_b)) < tol
    for a, b in zip(grads_a, grads_b):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) < tol


def both(fn, leaves, monkeypatch):
    got = run(fn, leaves)
    monkeypatch.setattr(A, "window_attention", pinned_window_attention)
    return got, run(fn, leaves)


# ---------------------------------------------------------------------------
# the attention pass
# ---------------------------------------------------------------------------


SHAPES = [(1, 8), (5, 8), (8, 8), (7, 3), (9, 2), (16, 8), (71, 8), (6, 1),
          (1, 1)]


@pytest.mark.parametrize("causal", [True, False], ids=["causal", "bidirectional"])
@pytest.mark.parametrize("m,w", SHAPES, ids=[f"m{m}-w{w}" for m, w in SHAPES])
def test_window_pass_matches_the_masked_pass(m, w, causal):
    p = A.AttentionParams.init(12, 3, T.Rng(1), dtype=F64)
    h = leaf((2, m, 12))
    leaves = [h, p.w_qkv, p.w_out]
    assert_close(run(lambda: A.window_attention(h, p, w, causal), leaves),
                 run(lambda: pinned_window_attention(h, p, w, causal), leaves))


@pytest.mark.parametrize("causal", [True, False], ids=["causal", "bidirectional"])
def test_one_key_value_head_matches_the_masked_pass(causal):
    p = A.AttentionParams.init(12, 4, T.Rng(2), n_kv=1, dtype=F64)
    h = leaf((11, 12), 3)
    leaves = [h, p.w_qkv, p.w_out]
    assert_close(run(lambda: A.window_attention(h, p, 4, causal), leaves),
                 run(lambda: pinned_window_attention(h, p, 4, causal), leaves))


@pytest.mark.parametrize("m_real", [1, 3, 6, 9])
def test_a_pad_suffix_is_masked_as_the_masked_pass_masks_it(m_real):
    m, w = 10, 4
    pad = np.arange(m) >= m_real
    p = A.AttentionParams.init(8, 2, T.Rng(4), dtype=F64)
    h = leaf((m, 8), 5)
    leaves = [h, p.w_qkv, p.w_out]
    assert_close(
        run(lambda: A.window_attention(h, p, w, False, pad), leaves),
        run(lambda: pinned_window_attention(h, p, w, False, pad), leaves))


@pytest.mark.parametrize("causal", [True, False], ids=["causal", "bidirectional"])
def test_the_band_keeps_every_row_and_the_window_pairs(causal):
    m, w = 13, 4
    band = A.window_band(m, w, causal)
    assert band.shape == (4, w, (2 if causal else 3) * w)
    assert np.all(np.max(band, axis=-1) == 0.0)
    b, r, c = np.nonzero(band == 0.0)
    i, j = b * w + r, (b - 1) * w + c
    field = np.zeros((m, m), dtype=bool)
    field[i[i < m], j[i < m]] = True
    np.testing.assert_array_equal(field,
                                  pinned_window_mask(m, w, causal) == 0.0)


def test_the_tally_counts_the_band_blocks():
    p = A.AttentionParams.init(12, 3, T.Rng(1), dtype=F64)
    for m, causal in ((16, True), (17, True), (16, False)):
        c = A.OpCounter()
        A.window_attention(leaf((2, m, 12)), p, 4, causal, counter=c)
        nb, s = -(-m // 4), 2 if causal else 3
        # two rows of heads, each block's 4 query rows over s*4 keys, for
        # the logits and the weighted values, d_h = 4 wide each
        assert c.multiply_adds == 2 * 3 * nb * 4 * (s * 4) * 4 * 2


# ---------------------------------------------------------------------------
# whole models
# ---------------------------------------------------------------------------


def model(seed=2, **kw):
    base = dict(d=12, n_layers=2, tau=3, d_ffn=16, attention="window", window=3)
    base.update(kw)
    return M.Model.init(M.ModelConfig(**base), VOCAB, seed=seed, dtype=F64)


def params_of(m):
    return [t for _, t in m.named()]


MODELS = {
    "window-3": dict(),
    "window-1": dict(window=1),
    "multi-query": dict(multi_query=True, tau=4),
    "integrator-2": dict(placement="pre", integrator_order=2),
}


@pytest.mark.parametrize("kw", MODELS.values(), ids=MODELS)
def test_decoder_forward_matches_the_masked_pass(kw, monkeypatch):
    m = model(**kw)
    ids = [SOS] + VOCAB.encode("cabdabhgfe")
    leaves = params_of(m)
    assert_close(*both(lambda: m.decoder_forward(ids), leaves, monkeypatch))


def test_an_id_matrix_matches_the_masked_pass(monkeypatch):
    m = model(window=4)
    ids = np.array([[SOS] + VOCAB.encode("abcdefgh"),
                    [SOS] + VOCAB.encode("hgfedcba")])
    leaves = params_of(m)
    got, want = both(lambda: m.decoder_forward(ids), leaves, monkeypatch)
    assert got[0].shape == (2, 9, len(VOCAB))
    assert_close(got, want)


def test_an_encoder_with_a_pad_suffix_matches_the_masked_pass(monkeypatch):
    m = model(architecture="encoder-only", window=3)
    ids = VOCAB.encode("abcdefg") + [PAD] * 4
    leaves = params_of(m)
    assert_close(*both(lambda: m.encode(ids), leaves, monkeypatch))


def test_float32_logits_at_length_512_match_the_masked_pass(monkeypatch):
    """Softmax rows of 16 entries instead of 512 round differently; the
    largest difference measured on these weights was 1.6e-7."""
    m = M.Model.init(M.ModelConfig(attention="window", window=8), VOCAB, seed=0)
    ids = [SOS] + [4 + i % 8 for i in range(511)]
    got = m.decoder_forward(ids).values
    monkeypatch.setattr(A, "window_attention", pinned_window_attention)
    want = m.decoder_forward(ids).values
    assert got.dtype == F32
    assert np.max(np.abs(got - want)) < 1e-6
