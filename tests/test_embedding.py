"""Vocabulary, sinusoidal encoding, shift identity, and RPR table tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import embedding as E
from seqlab import model as M
from seqlab import oracles as O
from seqlab import tensor as T


# ---------------------------------------------------------------------------
# vocab
# ---------------------------------------------------------------------------


def test_vocab_roundtrip():
    v = E.Vocab.from_text("hello world")
    ids = v.encode("hello")
    assert v.decode(ids) == "hello"
    assert len(set(ids)) == len(set("hello"))


def test_vocab_reserved_ids():
    v = E.Vocab.from_text("ab")
    assert v.tokens[E.PAD] == "<pad>"
    assert v.tokens[E.SOS] == "<s>"
    assert v.tokens[E.EOS] == "</s>"
    assert v.tokens[E.CLS] == "<cls>"
    assert len({E.PAD, E.SOS, E.EOS, E.CLS}) == 4


def test_vocab_bijection():
    v = E.Vocab.from_text("abcabc")
    for i, tok in enumerate(v.tokens):
        assert v.index[tok] == i


def test_vocab_unknown_char():
    v = E.Vocab.from_text("ab")
    with pytest.raises(E.VocabError):
        v.encode("z")


def test_vocab_line_serialization():
    v = E.Vocab.from_text("xyz")
    again = E.Vocab.from_lines(v.to_lines())
    assert again.tokens == v.tokens


def test_decode_skips_specials():
    v = E.Vocab.from_text("ab")
    assert v.decode([E.SOS] + v.encode("ab") + [E.EOS]) == "ab"


# ---------------------------------------------------------------------------
# sinusoidal PE
# ---------------------------------------------------------------------------


def test_pe_zero_position():
    pe = E.SinusoidalPE(8).vector(0)
    np.testing.assert_allclose(pe, [0, 1, 0, 1, 0, 1, 0, 1])


def test_pe_first_pair_period():
    # slot 0 has angular frequency 1, so the first sin/cos pair has period 2*pi
    pe_a = E.SinusoidalPE(8).vector(1.5)
    pe_b = E.SinusoidalPE(8).vector(1.5 + 2 * np.pi)
    np.testing.assert_allclose(pe_a[:2], pe_b[:2], atol=1e-9)


def test_pe_entries_bounded():
    pe = E.SinusoidalPE(32)
    tab = pe.table(500)
    assert np.all(tab <= 1.0) and np.all(tab >= -1.0)


def test_pe_rejects_odd_d():
    with pytest.raises(ValueError):
        E.SinusoidalPE(7)


def test_pe_table_matches_vector():
    pe = E.SinusoidalPE(16)
    tab = pe.table(10)
    for i in range(10):
        np.testing.assert_array_equal(tab[i], pe.vector(i))


def test_pe_matches_entrywise_oracle():
    for i in (0, 1, 17, 300):
        np.testing.assert_allclose(E.SinusoidalPE(12).vector(i), O.pe_direct(i, 12),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# pe_shift
# ---------------------------------------------------------------------------


def test_pe_shift_zero_offset_is_identity():
    pe = E.SinusoidalPE(8)
    out = E.pe_shift(pe.vector(7), pe.vector(0))
    np.testing.assert_allclose(out, pe.vector(7), atol=1e-12)


def test_pe_shift_from_zero_is_offset():
    pe = E.SinusoidalPE(8)
    out = E.pe_shift(pe.vector(0), pe.vector(5))
    np.testing.assert_allclose(out, pe.vector(5), atol=1e-12)


def test_pe_shift_worked_case():
    pe = E.SinusoidalPE(8)
    out = E.pe_shift(pe.vector(3), pe.vector(5))
    assert np.max(np.abs(out - pe.vector(8))) < 1e-9


def test_pe_shift_matches_direct_oracle():
    pe = E.SinusoidalPE(16)
    got = E.pe_shift(pe.vector(3), pe.vector(5))
    want = O.pe_shift_direct(pe.vector(3), pe.vector(5))
    np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=5000),
       st.integers(min_value=0, max_value=5000))
def test_pe_shift_reconstruction_property(i, mu):
    pe = E.SinusoidalPE(24)
    got = E.pe_shift(pe.vector(i), pe.vector(mu))
    assert np.max(np.abs(got - pe.vector(i + mu))) < 1e-9


# ---------------------------------------------------------------------------
# Model._embed_at, the embedding the model runs
# ---------------------------------------------------------------------------


def _model(d=6, **kw):
    cfg = M.ModelConfig(d=d, n_layers=1, tau=1, d_ffn=8, **kw)
    return M.Model.init(cfg, E.Vocab.from_text("abcde"), seed=0,
                        dtype=np.float64)


def test_embed_zero_pe_gives_raw_rows():
    m = _model()
    m._pe_rows = np.zeros((8, 6))            # the position rows, zeroed
    out = m._embed_at(np.array([4, 2, 7]), 0)
    np.testing.assert_array_equal(out.values, m.embed.weights.values[[4, 2, 7]])


def test_embed_zero_table_gives_pe():
    m = _model()
    T.assign_(m.embed.weights, np.zeros((9, 6)))
    pe = E.SinusoidalPE(6)
    np.testing.assert_allclose(m._embed_at(np.array([1, 2, 3]), 0).values,
                               pe.table(3), atol=1e-12)
    np.testing.assert_allclose(m._embed_at(np.array([1, 2, 3]), 5).values,
                               pe.table(8, 5), atol=1e-12)


def test_embed_matches_elementwise_sum():
    m = _model()
    pe = E.SinusoidalPE(6)
    ids = [5, 0, 8, 3]
    out = m._embed_at(np.array(ids), 0)
    want = np.array([m.embed.weights.values[t] + pe.vector(j)
                     for j, t in enumerate(ids)])
    np.testing.assert_allclose(out.values, want, atol=1e-12)


def test_embed_scale_flag():
    """``embedding.scale`` multiplies the raw embedding by sqrt(d) before
    the PE is added."""
    cfg = M.ModelConfig(d=4, n_layers=1, tau=1, d_ffn=8, scale_embedding=True)
    m = M.Model.init(cfg, E.Vocab.from_text("abcdefgh"), seed=0,
                     dtype=np.float64)
    out = m._embed_at(np.array([2]), 0)
    want = m.embed.weights.values[2] * 2.0 + E.SinusoidalPE(4).vector(0)
    np.testing.assert_allclose(out.values[0], want, atol=1e-12)


def test_embed_out_of_range_id():
    m = _model()                             # ids 0..8
    for ids in ([0, 9], [-1, 2]):
        with pytest.raises(E.VocabError):
            m._check_tokens(ids)


def test_embed_gradient_reaches_table():
    m = _model()
    with T.Tape():
        out = m._embed_at(np.array([2, 2, 4]), 0)
        loss = out.sum()
    g = T.backward(loss)[m.embed.weights].values
    assert g[2].sum() == pytest.approx(12.0)  # row used twice, d=6
    assert g[4].sum() == pytest.approx(6.0)
    assert g[1].sum() == 0.0


def test_pad_flags():
    np.testing.assert_array_equal(E.pad_flags([0, 5, 0, 2]),
                                  [True, False, True, False])


# ---------------------------------------------------------------------------
# RPR tables
# ---------------------------------------------------------------------------


def test_rpr_center_row():
    t = E.RprTable.init(3, 4, T.Rng(1))
    # query 5 (key position 5) against key 5: offset 0, the centre row 3
    assert t.offset_index_matrix(6, 6)[5, 5] == 3


def test_rpr_clips_high():
    t = E.RprTable.init(3, 4, T.Rng(1))
    # offset 5 clips to +3, the last row
    assert t.offset_index_matrix(1, 6)[0, 5] == 6


def test_rpr_clips_low():
    t = E.RprTable.init(3, 4, T.Rng(1))
    # offset -9 clips to -3, row 0
    assert t.offset_index_matrix(10, 1)[9, 0] == 0


def test_rpr_shift_invariance():
    t = E.RprTable.init(2, 4, T.Rng(2))
    rows = t.offset_index_matrix(12, 12)
    for i, j, c in [(0, 1, 5), (4, 2, 3), (1, 1, 7)]:
        assert rows[i, j] == rows[i + c, j + c]
    # a block whose first query sits at key position 5 reads rows 5..8
    np.testing.assert_array_equal(t.offset_index_matrix(4, 12, q_start=5),
                                  rows[5:9])


def test_rpr_offset_index_matrix():
    t = E.RprTable.init(2, 4, T.Rng(4))
    m = t.offset_index_matrix(4, 4)
    # row 0: offsets 0,1,2,3 clipped to 0,1,2,2 then +2
    np.testing.assert_array_equal(m[0], [2, 3, 4, 4])
    np.testing.assert_array_equal(m[:, 0], [2, 1, 0, 0])
