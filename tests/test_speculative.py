"""Drafted greedy decoding and the rewind it relies on.

``greedy_generate`` feeds a drafted block per pass and rewinds the rows it
rejects, whatever state the layers carry; every test here checks it
against ``one_token_greedy``, a pinned copy of the loop it replaced, which
feeds one id per step. The rewind tests check ``KVCache.rewind``, the
recurrent states' ``rewind`` and ``DecodeSession.rewind`` on their own.
"""

import numpy as np
import pytest

import seqlab.attention as A
import seqlab.efficient as EF
import seqlab.model as M
import seqlab.runtime as R
import seqlab.ssm as S
import seqlab.tensor as T
from seqlab.embedding import EOS, SOS, Vocab

from test_model import DECODE_VARIANTS

VOCAB = Vocab.from_text("abcdefgh")
C = VOCAB.encode("c")[0]
# the repeating model's layer kinds: a cache, and the recurrent states
REPEATING = [dict(), dict(attention="linear"), dict(attention="ssm"),
             dict(attention="linear", integrator_order=2),
             dict(attention="ssm", integrator_order=2)]
NEAR_TIE = 1e-4                  # float32 logit gap counted as a tie


def ids_of(variants):
    return [str(sorted(k.items())) for k in variants]


def build(seed=0, dtype=np.float64, **kw):
    base = dict(d=8, n_layers=2, tau=2, d_ffn=16)
    base.update(kw)
    return M.Model.init(M.ModelConfig(**base), VOCAB, seed=seed, dtype=dtype)


def source_for(model):
    return VOCAB.encode("hgfe") if model.cfg.architecture == "encoder-decoder" \
        else None


def no_eos(model):
    w = model.w_o.values.copy()
    w[:, EOS] = -50.0
    T.assign_(model.w_o, w)
    return model


def repeating(token=C, **kw):
    """A pre-norm model whose final norm outputs a constant row, so every
    position's logits are the one-hot of ``token``: greedy repeats it."""
    model = build(placement="pre", **kw)
    ln = model.final_ln_dec
    T.assign_(ln.g, np.zeros_like(ln.g.values))
    T.assign_(ln.b, np.eye(1, model.cfg.d, dtype=model.dtype)[0])
    w = np.zeros_like(model.w_o.values)
    w[0, token] = 1.0
    T.assign_(model.w_o, w)
    return model


def one_token_greedy(model, prompt, cfg, source=None):
    """The pinned loop: one decode step per emitted token."""
    session, dist = R._seed_session(model, prompt, source)
    out = []
    while len(out) < cfg.n_max:
        tok = R._pick_greedy(dist)
        out.append(tok)
        if tok == EOS or len(out) == cfg.n_max:
            break
        dist = model.decode_step(session, tok)
    return out


class Fed:
    """Records the shape of every id block decode_step is fed and the
    session positions it reaches."""

    def __init__(self, monkeypatch):
        self.blocks, self.top = [], 0
        step = M.Model.decode_step

        def recording(model, session, tokens):
            self.blocks.append(np.shape(tokens))
            out = step(model, session, tokens)
            self.top = max(self.top, session.position)
            return out

        monkeypatch.setattr(M.Model, "decode_step", recording)

    @property
    def positions(self):
        return sum(int(np.prod(s)) for s in self.blocks)


def assert_same_or_near_tie(model, prompt, got, want, source=None):
    """Equal tokens; for float32, else a first difference whose two
    tokens' logits, from the uncached pass, lie within NEAR_TIE."""
    if got == want:
        return
    assert model.dtype == np.float32
    i = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
    enc = None if source is None else model.encode(source)
    row = model.decoder_forward([SOS] + prompt + want[:i], enc).values[-1]
    assert abs(float(row[got[i]]) - float(row[want[i]])) <= NEAR_TIE


# ---------------------------------------------------------------------------
# rewind
# ---------------------------------------------------------------------------


def cache_rows(session):
    """Every slot's carry: the held keys and values, the kernel sums or
    the SSM state, as copies."""
    return [tuple(np.array(x) for x in c) for c in session.state.export()]


def same_rows(a, b):
    return len(a) == len(b) and all(
        len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
        for x, y in zip(a, b))


@pytest.mark.parametrize("kw", DECODE_VARIANTS, ids=ids_of(DECODE_VARIANTS))
def test_rewind_then_refeed_gives_the_same_rows_bitwise(kw):
    """Every layer kind: rewinding the last block restores the state it
    entered with, and feeding the block again gives the same state and
    distributions, bitwise. A cache also goes back past its last block;
    a recurrent state raises StateError there and changes nothing."""
    model = build(seed=2, **kw)
    block = np.array([VOCAB.encode("abcab")])
    session, _ = R._seed_session(model, VOCAB.encode("cabd"),
                                 source_for(model))
    before = cache_rows(session)
    first = model.decode_step(session, block)
    rows = cache_rows(session)
    session.rewind(5)
    assert same_rows(cache_rows(session), before)
    assert np.array_equal(model.decode_step(session, block), first)
    assert same_rows(cache_rows(session), rows)

    session, _ = R._seed_session(model, VOCAB.encode("cabd"),
                                 source_for(model))
    model.decode_step(session, block)
    after = model.decode_step(session, VOCAB.encode("h")[0])
    for n, refeed in ((6, block), (4, block[:, 2:])):
        if not isinstance(session.state, A.KVCache):
            held = cache_rows(session)
            with pytest.raises(M.StateError):
                session.rewind(n)
            assert same_rows(cache_rows(session), held)
            assert session.position == 11
            continue
        session.rewind(n)
        again = model.decode_step(session, refeed)
        assert np.array_equal(again[0], first[0, -refeed.shape[1]:])
        assert same_rows(cache_rows(session), rows)
        assert np.array_equal(
            model.decode_step(session, VOCAB.encode("h")[0]), after)
    assert session.prefix == [SOS] + VOCAB.encode("cabdabcabh")


@pytest.mark.parametrize("window", [None, 3])
def test_views_handed_out_before_a_rewind_keep_their_values(window):
    cache = A.KVCache(1, window)
    rng = T.Rng(5)
    for _ in range(3):
        cache.write(0, rng.gaussian((2, 2, 4)), rng.gaussian((2, 2, 4)))
    block = rng.gaussian((2, 3, 4))
    k, v, _ = cache.write(0, block, -block)
    views = [k, v, cache.keys(0).values, cache.values_(0).values]
    kept = [x.copy() for x in views]
    cache.rewind(2)
    for _ in range(3):                       # land where the rewound rows were
        new = rng.gaussian((2, 2, 4))
        cache.write(0, new, new)
    for view, want in zip(views, kept):
        assert np.array_equal(view, want)


def test_a_trimmed_window_cache_rewinds_like_one_never_fed_the_tail():
    window = 4
    rng = T.Rng(6)
    rows = rng.gaussian((1, 30, 6))
    tail = rng.gaussian((1, 3, 6))
    rewound, plain = A.KVCache(1, window), A.KVCache(1, window)
    for t in range(24):
        rewound.write(0, rows[:, t:t + 1], -rows[:, t:t + 1])
        plain.write(0, rows[:, t:t + 1], -rows[:, t:t + 1])
    assert rewound._first[0] > 0              # a re-layout trimmed the array
    rewound.write(0, tail, -tail)
    rewound.rewind(2)
    plain.write(0, tail[:, :1], -tail[:, :1])
    assert rewound.length(0) == plain.length(0) == 25
    for c in (rewound, plain):
        assert c.keys(0).shape[1] == window
    assert np.array_equal(rewound.keys(0).values, plain.keys(0).values)
    assert np.array_equal(rewound.values_(0).values, plain.values_(0).values)
    got = rewound.write(0, rows[:, 24:27], -rows[:, 24:27])
    want = plain.write(0, rows[:, 24:27], -rows[:, 24:27])
    assert got[2] == want[2] == window - 1
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_rewinding_past_what_was_written_raises():
    cache = A.KVCache(2)
    for layer in range(2):
        cache.write(layer, np.ones((1, 3, 4)), np.ones((1, 3, 4)))
    with pytest.raises(M.StateError):
        cache.rewind(4)
    with pytest.raises(ValueError):
        cache.rewind(-1)
    assert [cache.length(s) for s in range(2)] == [3, 3]

    window = A.KVCache(1, window=2)
    for _ in range(20):                         # the 17th write trims
        window.write(0, np.ones((1, 1, 4)), np.ones((1, 1, 4)))
    assert window._first[0] == 15
    with pytest.raises(M.StateError):          # rows the window trimmed
        window.rewind(4)
    assert window.length(0) == 20
    window.rewind(3)
    assert window.keys(0).shape[1] == 2

    model = build()
    session, _ = R._seed_session(model, VOCAB.encode("ab"))
    with pytest.raises(M.StateError):
        session.rewind(4)
    assert session.prefix == [SOS] + VOCAB.encode("ab")
    session.rewind(3)
    assert session.prefix == [] and session.state.length(0) == 0


def test_a_rewound_kernel_sum_is_the_sum_of_the_kept_rows():
    """rewind(n) after a block of m positions leaves the sums a call on
    the first m - n rows makes, bitwise, within a block of 16 and past
    one; going back past the block raises and changes nothing."""
    rng, phi = T.Rng(8), EF.FeatureMap()
    for m in (5, 21):
        q, k, v = (rng.gaussian((2, 3, m, 4)) for _ in range(3))
        carry = [rng.gaussian((2, 3, 4, 4)), rng.gaussian((2, 3, 4)) ** 2]
        sums, entered, kept = S.CarriedState(1), list(carry), []
        sums.carry(0)[:] = carry
        EF.kernelized_attention(*map(T.Tensor, (q, k, v)), phi, causal=True,
                                carry=sums.carry(0), kept=kept)
        sums.advanced(0, entered, tuple(kept), EF._kept_sums, None)
        for n in (0, 2, m - 1, m):
            want = list(entered)
            if m - n:
                EF.kernelized_attention(
                    *(T.Tensor(x[..., :m - n, :].copy()) for x in (q, k, v)),
                    phi, causal=True, carry=want)
            got = sums.clone()
            got.rewind(n)
            assert got.length(0) == m - n
            assert same_rows([tuple(got.carry(0))], [tuple(want)])
        held = list(sums.carry(0))
        with pytest.raises(M.StateError):
            sums.rewind(m + 1)
        assert same_rows([tuple(sums.carry(0))], [tuple(held)])
        assert sums.length(0) == m


def test_a_rewound_ssm_state_is_the_state_after_the_kept_rows():
    model = build(attention="ssm")
    dssm, rng = model.dec_layers[0].ssm, T.Rng(9)
    for m in (5, 21):
        x = rng.gaussian((2, m, model.cfg.d))
        state = S.CarriedState(1)
        S.ssm_step(T.Tensor(rng.gaussian((2, 3, model.cfg.d))), state, dssm, 0)
        entered = list(state.carry(0))
        S.ssm_step(T.Tensor(x), state, dssm, 0)
        for n in (2, m - 1, m):
            want = list(entered)
            if m - n:
                S.ssm_sublayer_scan(T.Tensor(x[:, :m - n].copy()), dssm, want)
            got = state.clone()
            got.rewind(n)
            assert got.length(0) == 3 + m - n
            assert same_rows([tuple(got.carry(0))], [tuple(want)])
        with pytest.raises(M.StateError):
            state.rewind(m + 1)
        assert state.length(0) == 3 + m


# ---------------------------------------------------------------------------
# drafted greedy against the pinned one-token loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("kw", DECODE_VARIANTS, ids=ids_of(DECODE_VARIANTS))
def test_greedy_equals_the_one_token_loop(kw, dtype):
    prompt = VOCAB.encode("cabcab")
    cfg = R.SearchConfig(n_max=40)
    for seed in (3, 4):
        model = build(seed=seed, dtype=dtype, **kw)
        got = R.greedy_generate(model, prompt, cfg, source_for(model))
        want = one_token_greedy(model, prompt, cfg, source_for(model))
        assert_same_or_near_tie(model, prompt, got, want, source_for(model))
        if dtype == np.float64:
            assert got == want


@pytest.mark.parametrize("bits", [8, 16])
@pytest.mark.parametrize("kw", [dict(), dict(attention="window", window=3),
                                dict(attention="lowrank-d"),
                                dict(reuse_maps=True)],
                         ids=["dense", "window", "lowrank-d", "map-reuse"])
def test_quantized_greedy_equals_the_one_token_loop(kw, bits):
    model = no_eos(build(seed=4, **kw))
    prompt = VOCAB.encode("abab")
    cfg = R.SearchConfig(n_max=30)
    got = R.quantized_infer(model, prompt, cfg, bits=bits)
    with R.quantized(model, bits):
        want = one_token_greedy(model, prompt, cfg)
    assert got == want and len(got) == 30


@pytest.mark.parametrize("kw", REPEATING, ids=ids_of(REPEATING))
def test_a_repeating_model_accepts_every_draft(kw, monkeypatch):
    model = repeating(**kw)
    prompt = VOCAB.encode("ab")
    cfg = R.SearchConfig(n_max=40)
    want = one_token_greedy(model, prompt, cfg)
    assert want == [C] * 40
    fed = Fed(monkeypatch)
    assert R.greedy_generate(model, prompt, cfg) == want
    # the prompt block, one-id steps until "c c" has a match, drafts of 8
    # accepted whole, and the last token from a step with no room to draft
    assert fed.blocks == [(1, 3), (), ()] + [(1, 9)] * 4 + [()]
    assert fed.positions == 1 + len(prompt) + 40 - 1


@pytest.mark.parametrize("kw", REPEATING, ids=ids_of(REPEATING))
def test_drafts_that_are_all_rejected_give_the_same_tokens(kw, monkeypatch):
    """Every draft's first token is replaced by one greedy does not pick:
    the output is the one-token loop's, and the drafter backs off."""
    model = repeating(**kw)
    prompt = VOCAB.encode("cccc")
    cfg = R.SearchConfig(n_max=40)
    want = one_token_greedy(model, prompt, cfg)
    propose = R._Drafter.propose
    drafted = []

    def wrong(self, out, limit):
        draft = propose(self, out, limit)
        if draft:
            draft[0] = C + 1
            drafted.append(len(draft))
        return draft

    monkeypatch.setattr(R._Drafter, "propose", wrong)
    fed = Fed(monkeypatch)
    assert R.greedy_generate(model, prompt, cfg) == want
    # drafts shrink by one, with pauses of 2, 4, 8 and 16 steps between
    assert drafted == [8, 7, 6, 5, 4]
    assert len(fed.blocks) - 1 == 39
    assert fed.positions == 1 + len(prompt) + 39 + sum(drafted)


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("seed", [None, 3], ids=["repeating", "random"])
def test_short_outputs_equal_the_one_token_loop(n_max, seed, monkeypatch):
    model = repeating() if seed is None else no_eos(build(seed=seed))
    prompt = VOCAB.encode("cccc")
    cfg = R.SearchConfig(n_max=n_max)
    want = one_token_greedy(model, prompt, cfg)
    fed = Fed(monkeypatch)
    got = R.greedy_generate(model, prompt, cfg)
    assert got == want and len(got) == n_max
    assert fed.top <= 1 + len(prompt) + n_max - 1


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_never_more_than_n_max_tokens_nor_positions_past_them(seed,
                                                             monkeypatch):
    model = repeating() if seed is None else no_eos(build(seed=seed))
    prompt = VOCAB.encode("cabcab")
    fed = Fed(monkeypatch)
    for n_max in range(1, 25):
        cfg = R.SearchConfig(n_max=n_max)
        want = one_token_greedy(model, prompt, cfg)
        fed.top = 0
        assert R.greedy_generate(model, prompt, cfg) == want
        assert len(want) == n_max
        assert fed.top <= 1 + len(prompt) + n_max - 1


def test_eos_inside_an_accepted_draft_ends_the_output(monkeypatch):
    """Drafts copied from the true continuation, EOS included and a token
    beyond it: the output stops at EOS, as the one-token loop does."""
    model = build(seed=3)
    prompt = VOCAB.encode("ab")
    cfg = R.SearchConfig(n_max=30)
    want = one_token_greedy(model, prompt, cfg)
    assert len(want) == 11 and want[-1] == EOS
    extended = want + [C] * 10

    def oracle(self, out, limit):
        return extended[len(out):len(out) + limit]

    monkeypatch.setattr(R._Drafter, "propose", oracle)
    fed = Fed(monkeypatch)
    assert R.greedy_generate(model, prompt, cfg) == want
    assert fed.blocks[1][1] > 2 and len(fed.blocks) == 2


def test_the_drafter_copies_the_latest_match_and_repeats_past_the_end():
    drafter = R._Drafter(VOCAB.encode("abcdab"))
    # "a b" last occurred at 0, followed by "c d a b"; a longer draft
    # reads back into itself
    assert drafter.propose([], 8) == VOCAB.encode("cdabcdab")
    assert drafter.propose(VOCAB.encode("e"), 8) == []     # "b e" is new
    drafter = R._Drafter(VOCAB.encode("ab") + [SOS] + VOCAB.encode("ab"))
    assert drafter.propose([], 8) == []         # SOS cannot be drafted
    assert R._Drafter(VOCAB.encode("abab")).propose([], 3) == \
        VOCAB.encode("aba")
