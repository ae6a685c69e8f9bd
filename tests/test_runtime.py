"""Decoding search, checkpoint format, and quantized inference."""

import contextlib
import heapq
import io
import itertools
import math
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqlab.model as M
import seqlab.oracles as O
import seqlab.runtime as R
import seqlab.ssm as S
import seqlab.tensor as T
from seqlab.embedding import CLS, EOS, PAD, SOS, Vocab

from test_decode import TOL as DECODE_TOL

F64 = np.float64
VOCAB = Vocab.from_text("abcdefgh")


def build(seed=0, dtype=F64, **kw):
    base = dict(d=8, n_layers=2, tau=2, d_ffn=16)
    base.update(kw)
    return M.Model.init(M.ModelConfig(**base), VOCAB, seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# search configuration
# ---------------------------------------------------------------------------


def test_search_config_validation():
    with pytest.raises(ValueError):
        R.SearchConfig(beam=0)
    with pytest.raises(ValueError):
        R.SearchConfig(n_max=0)
    with pytest.raises(ValueError):
        R.SearchConfig(alpha_len=-0.5)
    cfg = R.SearchConfig()
    assert cfg.beam == 1 and cfg.alpha_len == 0.0


def test_hypothesis_score_normalization():
    hyp = R.Hypothesis([4, 5, 6], -6.0)
    assert hyp.score(0.0) == -6.0
    assert hyp.score(1.0) == pytest.approx(-2.0)
    assert hyp.score(0.5) == pytest.approx(-6.0 / math.sqrt(3))


# ---------------------------------------------------------------------------
# greedy decoding
# ---------------------------------------------------------------------------


def test_greedy_stops_at_n_max():
    model = build()
    out = R.greedy_generate(model, [4], R.SearchConfig(n_max=5))
    assert len(out) <= 5
    if len(out) < 5:
        assert out[-1] == EOS


def test_greedy_max_len_one_emits_one_token():
    model = build()
    out = R.greedy_generate(model, [4, 5], R.SearchConfig(n_max=1))
    assert len(out) == 1


def test_greedy_is_deterministic():
    model = build(seed=3)
    cfg = R.SearchConfig(n_max=12)
    assert R.greedy_generate(model, [5], cfg) == \
        R.greedy_generate(model, [5], cfg)


def test_greedy_never_emits_structural_ids():
    for seed in range(6):
        out = R.greedy_generate(build(seed=seed), [4],
                                R.SearchConfig(n_max=16))
        assert PAD not in out and SOS not in out and CLS not in out


def test_greedy_matches_full_recompute():
    # the cached session path against an argmax loop over fresh forwards
    model = build(seed=1)
    cfg = R.SearchConfig(n_max=10)
    got = R.greedy_generate(model, [4, 6], cfg)

    ids = [SOS, 4, 6]
    want = []
    while len(want) < cfg.n_max:
        logits = model.decoder_forward(ids).values[-1]
        dist = np.exp(logits - logits.max())
        dist /= dist.sum()
        dist[[PAD, SOS, CLS]] = -1.0
        tok = int(np.argmax(dist))
        want.append(tok)
        ids.append(tok)
        if tok == EOS:
            break
    assert got == want


def test_greedy_argmax_ties_take_lowest_id():
    dist = np.full(8, 0.125)
    assert R._pick_greedy(dist) == EOS       # ids 0,1,3 are suppressed


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------


def test_beam_one_equals_greedy():
    for seed in (0, 2, 9):
        model = build(seed=seed)
        cfg = R.SearchConfig(beam=1, n_max=8)
        pool = R.beam_search(model, [4], cfg)
        assert pool[0].tokens == R.greedy_generate(model, [4], cfg)


def test_beam_scores_match_sequence_scoring():
    model = build(seed=4)
    prompt = [4, 5]
    base = model.sequence_logprob(prompt)
    for hyp in R.beam_search(model, prompt, R.SearchConfig(beam=3, n_max=6)):
        full = model.sequence_logprob(prompt + hyp.tokens)
        assert hyp.logprob == pytest.approx(full - base, abs=1e-6)


def test_beam_pool_ranked_by_score():
    model = build(seed=4)
    cfg = R.SearchConfig(beam=4, n_max=5, alpha_len=0.0)
    pool = R.beam_search(model, [6], cfg)
    scores = [h.score(cfg.alpha_len) for h in pool]
    assert scores == sorted(scores, reverse=True)


def test_beam_prefix_scores_nonincreasing():
    # every stepwise log-probability is <= 0, so cumulative scores fall
    model = build(seed=5)
    for hyp in R.beam_search(model, [4], R.SearchConfig(beam=3, n_max=6)):
        prefix = [model.sequence_logprob([4] + hyp.tokens[:k])
                  for k in range(len(hyp.tokens) + 1)]
        assert all(b <= a + 1e-12 for a, b in zip(prefix, prefix[1:]))


def test_length_normalization_changes_ranking():
    short = R.Hypothesis([4], -2.0)
    long = R.Hypothesis([4, 5, 6, 7], -3.0)
    assert short.score(0.0) > long.score(0.0)
    assert long.score(1.0) > short.score(1.0)


def _eos_shy_model():
    # push the eos logit column off the layer-norm null direction so the
    # best candidate needs several tokens; a plain constant shift would
    # cancel (final hidden rows are zero-mean)
    vocab = Vocab.from_text("abcd")
    model = M.Model.init(M.ModelConfig(d=8, n_layers=1, tau=2, d_ffn=16),
                         vocab, seed=7, dtype=F64)
    w = model.w_o.values.copy()
    w[:, EOS] -= T.Rng(107).gaussian((8,)) * 1.5
    T.assign_(model.w_o, w)
    return model, vocab


def exhaustive_beam_check(bits):
    # width 5^4 never prunes (live frontier peaks at 320), so the pool
    # must equal the full 341-candidate enumeration, in score order. With
    # bits, the batched beam rows and the scoring forwards both run inside
    # one quantized context; per-row steps keep each hypothesis's score
    # independent of the rows beside it, so the same 1e-9 tolerance holds
    model, vocab = _eos_shy_model()
    chars = [vocab.encode("a")[0] + i for i in range(4)]

    with R.quantized(model, bits) if bits else contextlib.nullcontext():
        scored = []
        for k in range(4):
            for seq in itertools.product(chars, repeat=k):
                cand = list(seq) + [EOS]
                scored.append((model.sequence_logprob(cand), cand))
        for seq in itertools.product(chars, repeat=4):
            scored.append((model.sequence_logprob(list(seq)), list(seq)))
        scored.sort(key=lambda t: (-t[0], len(t[1]), t[1]))
        pool = R.beam_search(model, [], R.SearchConfig(beam=625, n_max=4))

    assert len(pool) == len(scored) == 341
    for hyp, (score, cand) in zip(pool, scored):
        assert hyp.tokens == cand
        assert hyp.logprob == pytest.approx(score, abs=1e-9)
    return pool


def test_beam_exhaustive_small_vocabulary():
    pool = exhaustive_beam_check(None)
    # frozen against an independent enumeration of all 341 candidates
    assert pool[0].tokens == [4, 7, 2]
    assert pool[0].logprob == pytest.approx(-6.249319585746, abs=1e-9)


def test_eight_bit_beam_exhaustive_small_vocabulary():
    exhaustive_beam_check(8)


def nlargest_order(scores, k):
    """The reference ranking: a stable sort cut to k."""
    flat = scores.tolist()
    return heapq.nlargest(k, range(len(flat)), key=flat.__getitem__)


@pytest.mark.parametrize("seed", range(4))
def test_top_k_ranks_as_nlargest(seed):
    rng = np.random.default_rng(seed)
    random = rng.standard_normal(4 * 55)
    tied = rng.integers(0, 3, 4 * 55).astype(F64)     # most scores equal
    for scores in (random, tied, tied.astype(np.float32), -700.0 * tied):
        kept = scores.copy()
        for k in (1, 4, 9, 4 * 55):
            assert R._top_k(scores, k) == nlargest_order(scores, k)
        np.testing.assert_array_equal(scores, kept)   # the input is not written


def test_top_k_with_fewer_candidates_than_the_width():
    scores = np.array([0.5, -1.0, 0.5])
    picks = R._top_k(scores, 4)
    assert picks == nlargest_order(scores, 4) == [0, 2, 1]


def test_wider_beam_never_ranks_worse():
    model, _ = _eos_shy_model()
    n_max = 4
    best = {b: R.beam_search(model, [], R.SearchConfig(beam=b, n_max=n_max))[0]
            for b in (1, 3, 625)}
    assert best[1].logprob <= best[3].logprob + 1e-12
    assert best[3].logprob <= best[625].logprob + 1e-12


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def ckpt_path(tmp_path, name="model.ckpt"):
    return str(tmp_path / name)


def test_checkpoint_roundtrip_is_byte_identical(tmp_path):
    model = build(dtype=np.float32)
    first = ckpt_path(tmp_path, "a.ckpt")
    second = ckpt_path(tmp_path, "b.ckpt")
    R.save_checkpoint(model, first)
    R.save_checkpoint(R.load_checkpoint(first), second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


def test_checkpoint_restores_tensors_bitwise(tmp_path):
    model = build(seed=8, dtype=np.float32)
    path = ckpt_path(tmp_path)
    R.save_checkpoint(model, path)
    loaded = R.load_checkpoint(path)
    restored = dict(loaded.named())
    for name, tensor in model.named():
        np.testing.assert_array_equal(tensor.values, restored[name].values)


def test_checkpoint_preserves_vocab_and_config(tmp_path):
    vocab = Vocab.from_text("xy\nz")      # newline is a real token
    model = M.Model.init(M.ModelConfig(d=8, n_layers=1, tau=2, d_ffn=16,
                                       placement="pre"),
                         vocab, seed=0, dtype=np.float32)
    path = ckpt_path(tmp_path)
    R.save_checkpoint(model, path)
    loaded = R.load_checkpoint(path)
    assert loaded.vocab.to_lines() == vocab.to_lines()
    assert loaded.cfg == model.cfg


def test_loaded_model_regenerates_presave_output(tmp_path):
    model = build(seed=2, dtype=np.float32)
    cfg = R.SearchConfig(n_max=16)
    before = R.greedy_generate(model, [4, 6], cfg)
    path = ckpt_path(tmp_path)
    R.save_checkpoint(model, path)
    assert R.greedy_generate(R.load_checkpoint(path), [4, 6], cfg) == before


def test_checkpoint_write_failing_partway_keeps_the_previous_file(
        tmp_path, monkeypatch):
    old = build(seed=1, dtype=np.float32)
    path = ckpt_path(tmp_path)
    R.save_checkpoint(old, path)

    class DiesHalfway(io.FileIO):
        def write(self, data):
            super().write(bytes(data[:len(data) // 2]))
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(R, "open", lambda p, mode="r": DiesHalfway(p, "w"),
                        raising=False)
    with pytest.raises(OSError):
        R.save_checkpoint(build(seed=2, dtype=np.float32), path)
    monkeypatch.undo()
    restored = dict(R.load_checkpoint(path).named())
    for name, tensor in old.named():
        np.testing.assert_array_equal(tensor.values, restored[name].values)
    assert os.listdir(tmp_path) == ["model.ckpt"]     # no temp file left


def test_bad_magic_is_a_format_error(tmp_path):
    model = build(dtype=np.float32)
    path = ckpt_path(tmp_path)
    R.save_checkpoint(model, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(b"XXXX" + blob[4:])
    with pytest.raises(R.CheckpointFormatError):
        R.load_checkpoint(path)


def test_unknown_version_is_a_format_error(tmp_path):
    model = build(dtype=np.float32)
    path = ckpt_path(tmp_path)
    R.save_checkpoint(model, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:4] + struct.pack("<H", 99) + blob[6:])
    with pytest.raises(R.CheckpointFormatError):
        R.load_checkpoint(path)


# Written by the per-head (format v1) save_checkpoint: a tau=2 model and a
# multi-query tau=4 model, each trained 40 steps on a-h text. The greedy
# tokens after "ab" and the log-probability of "abcdefgh" were recorded
# when the files were written.
V1_FIXTURES = [
    ("v1_plain_tau2.ckpt", [6, 10, 10, 10, 11, 11, 10, 9, 8, 7, 6, 5],
     -16.656119924180572),
    ("v1_multi_query.ckpt", [7, 8, 9, 10, 11, 11, 10, 9, 8, 7, 6, 10],
     -26.65037921361344),
]


@pytest.mark.parametrize("name,tokens,logprob", V1_FIXTURES)
def test_version_one_checkpoints_still_load(tmp_path, name, tokens, logprob):
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, "rb") as fh:
        assert struct.unpack("<H", fh.read(6)[4:])[0] == 1
    model = R.load_checkpoint(path)
    att = model.dec_layers[0].att
    assert att.wq.shape == (8, 8)
    assert att.wk.shape == (8, att.n_kv * att.d_head)
    # n_kv is read from the loaded W^qkv's width
    assert att.n_kv == (1 if name == "v1_multi_query.ckpt" else att.tau)
    got = R.greedy_generate(model, model.vocab.encode("ab"),
                            R.SearchConfig(n_max=12))
    assert got == tokens
    assert abs(model.sequence_logprob(model.vocab.encode("abcdefgh"))
               - logprob) < 1e-6
    # saved again, the file is version 3 and loads to the same tensors
    again = ckpt_path(tmp_path)
    R.save_checkpoint(model, again)
    with open(again, "rb") as fh:
        assert struct.unpack("<H", fh.read(6)[4:])[0] == R.VERSION == 3
    reloaded = dict(R.load_checkpoint(again).named())
    for n, t in model.named():
        assert np.array_equal(reloaded[n].values, t.values)


def test_truncated_file_is_an_integrity_error(tmp_path):
    model = build(dtype=np.float32)
    path = ckpt_path(tmp_path)
    R.save_checkpoint(model, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:len(blob) // 2])
    with pytest.raises(R.CheckpointIntegrityError):
        R.load_checkpoint(path)


def test_flipped_payload_byte_is_an_integrity_error(tmp_path):
    model = build(dtype=np.float32)
    path = ckpt_path(tmp_path)
    R.save_checkpoint(model, path)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[len(blob) // 2] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(R.CheckpointIntegrityError):
        R.load_checkpoint(path)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("damaged") / "model.ckpt"
    R.save_checkpoint(build(dtype=np.float32), str(path))
    return path, path.read_bytes()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_damaged_checkpoints_raise_only_checkpoint_errors(saved, data):
    """A truncation or a single-bit flip anywhere raises one of the two
    checkpoint errors. A resealed flip also rewrites the checksum, so the
    damage reaches the parser: it may then load (a flipped weight bit is a
    valid file) but raises nothing else."""
    path, blob = saved
    resealed = False
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:data.draw(st.integers(0, len(blob) - 1), label="keep")]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged = bytes(flipped)
        resealed = data.draw(st.booleans(), label="reseal")
        if resealed:
            body = damaged[:-4]
            damaged = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    target = path.with_name("damaged.ckpt")
    target.write_bytes(damaged)
    try:
        R.load_checkpoint(str(target))
    except (R.CheckpointFormatError, R.CheckpointIntegrityError):
        return
    assert resealed, "a file with a stale checksum loaded"


def test_config_tensor_mismatch_is_a_format_error(tmp_path):
    # rewrite the stored width in place (same byte length), fix the
    # checksum, and the tensor table no longer matches the config
    model = build(dtype=np.float32)
    path = ckpt_path(tmp_path)
    R.save_checkpoint(model, path)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    at = bytes(blob).index(b"model.d: 8")
    blob[at:at + 10] = b"model.d: 4"
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(R.CheckpointFormatError, match="config mismatch"):
        R.load_checkpoint(path)


@pytest.mark.parametrize("old,new,error", [
    (b"model.d: 8", b"model.d: \xff", R.CheckpointFormatError),  # not UTF-8
    (b"model.d: 8", b"model.d: 9", R.CheckpointFormatError),     # invalid
    (b"embed.table\x02\x0c\x00\x00\x00\x08\x00\x00\x00",     # 2^64 floats
     b"embed.table\x02" + b"\xff" * 8, R.CheckpointIntegrityError),
    (b"attention.feature_map", b"`ttention.feature_map",    # one bit off
     R.CheckpointFormatError),
], ids=["not-utf8", "odd-width", "shape-past-the-file", "unknown-key"])
def test_resealed_garbage_is_a_checkpoint_error(tmp_path, old, new, error):
    blob = bytearray(R._checkpoint_bytes(build(dtype=np.float32)))
    at = bytes(blob).index(old)
    blob[at:at + len(old)] = new
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    path = ckpt_path(tmp_path)
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(error):
        R.load_checkpoint(path)


def test_shared_layers_survive_a_roundtrip(tmp_path):
    model = build(dtype=np.float32, share_groups=((0, 1),))
    path = ckpt_path(tmp_path)
    R.save_checkpoint(model, path)
    loaded = R.load_checkpoint(path)
    assert loaded.dec_layers[0].ffn_core.w_h is loaded.dec_layers[1].ffn_core.w_h
    ids = [4, 5, 6]
    np.testing.assert_allclose(loaded.decoder_forward(ids).values,
                               model.decoder_forward(ids).values,
                               atol=1e-6)


# ---------------------------------------------------------------------------
# quantized inference
# ---------------------------------------------------------------------------


def test_sixteen_bit_generation_matches_float(tmp_path):
    model = build(seed=2, d=16, d_ffn=32)
    cfg = R.SearchConfig(n_max=25)
    total = 0
    for prompt in ([4, 5], [6], [7, 4, 5]):
        plain = R.greedy_generate(model, prompt, cfg)
        assert R.quantized_infer(model, prompt, cfg, bits=16) == plain
        total += len(plain)
    assert total >= 25


def test_eight_bit_logits_within_propagated_bound():
    model = build(seed=6, n_layers=1)
    ids = [4, 7, 5, 6, 4, 5]
    layer = model.dec_layers[0]
    spec = [{
        "heads": layer.att.tau,
        "wq": layer.att.wq.values,
        "wk": layer.att.wk.values,
        "wv": layer.att.wv.values,
        "w_out": layer.att.w_out.values,
        "ln1": (layer.ln1.g.values, layer.ln1.b.values, layer.ln1.eps),
        "w_h": layer.ffn_core.w_h.values,
        "b_h": layer.ffn_core.b_h.values,
        "w_f": layer.ffn_core.w_f.values,
        "b_f": layer.ffn_core.b_f.values,
        "ln2": (layer.ln2.g.values, layer.ln2.b.values, layer.ln2.eps),
    }]
    x0 = model.embed.weights.values[ids] + model.pe.table(len(ids))
    ref, bound = O.quantized_decoder_bound(x0, spec, model.w_o.values, 8)
    np.testing.assert_allclose(model.decoder_forward(ids).values, ref,
                               atol=1e-10)
    err = np.abs(O.quantized_forward(model, ids, bits=8) - ref)
    assert np.all(err <= bound + 1e-9)
    assert err.max() > 0                     # eight bits really perturbs


def per_row_route(specs, bits, stats):
    """Pinned reference route: every product quantizes its weight (or its
    column block) again, gives each activation row its own step
    max|row| / q_max (1 for an all-zero row), and accumulates row by row
    in int64."""
    q_max = (1 << (bits - 1)) - 1

    def levels(x, spec):                     # int64 levels, counted
        q, saturated = T.quantize_levels(x, spec)
        if stats is not None:
            stats.count += q.size
            stats.saturated += saturated
        return q.astype(np.int64)

    def route(a, b, cols=None):
        if id(b) not in specs:
            return None
        spec_b = specs[id(b)]
        dtype = np.result_type(a.dtype, b.dtype)
        wb = b.values if cols is None else b.values[:, cols[0]:cols[1]]
        shape = a.shape[:-1] + wb.shape[1:]
        if spec_b is None:
            return T.Tensor(np.zeros(shape, dtype=dtype))
        if cols is not None and np.ndim(spec_b.step):
            spec_b = T.QuantSpec(spec_b.step[:, cols[0]:cols[1]], bits)
        qb = levels(wb, spec_b)
        out = []
        for row in a.values.reshape(-1, a.shape[-1]):
            top = float(np.max(np.abs(row)))
            spec_a = T.QuantSpec(top / q_max if top else 1.0, bits)
            acc = (levels(row[None], spec_a) @ qb).astype(F64)
            out.append((spec_a.step * spec_b.step) * acc)
        return T.Tensor(np.concatenate(out).reshape(shape).astype(dtype))

    return route


@pytest.mark.parametrize("bits", [8, 16])
@pytest.mark.parametrize("dtype", [F64, np.float32])
def test_quantized_paths_equal_the_per_product_int64_route(bits, dtype,
                                                           monkeypatch):
    model = build(seed=3, d=16, d_ffn=32, dtype=dtype)
    w = model.w_o.values.copy()
    w[:, EOS] = -50.0                        # generate all six tokens
    T.assign_(model.w_o, w)
    specs = R.weight_quant_specs(model, bits)
    ids = [SOS, 4, 5, 6, 7]
    want_stats, got_stats = T.QuantStats(), T.QuantStats()
    with T.matmul_routing(per_row_route(specs, bits, want_stats)):
        want = model.decoder_forward(ids).values
    with T.matmul_routing(per_row_route(specs, bits, None)):
        want_tokens = list(ids)
        for _ in range(6):
            logits = model.decoder_forward(want_tokens).values[-1]
            want_tokens.append(R._pick_greedy(np.exp(logits - logits.max())))
            if want_tokens[-1] == EOS:
                break
    weights = {id(t.values) for _, t in model.named() if id(t) in specs}
    rounded = []
    levels = T.quantize_levels

    def counting(x, spec):
        if id(x) in weights:
            rounded.append(id(x))
        return levels(x, spec)

    monkeypatch.setattr(T, "quantize_levels", counting)
    got = O.quantized_forward(model, ids, bits=bits, stats=got_stats)
    assert np.array_equal(got, want)
    assert got_stats == want_stats
    tokens = R.quantized_infer(model, ids[1:], R.SearchConfig(n_max=6),
                               bits=bits)
    assert tokens == want_tokens[len(ids):] and len(tokens) == 6
    # each weight once, at its first product; the second context reuses it
    assert sorted(rounded) == sorted(weights)


@pytest.mark.parametrize("kw", [
    dict(), dict(attention="window", window=3), dict(multi_query=True),
    dict(architecture="encoder-decoder"), dict(attention="lowrank-d"),
    dict(reuse_maps=True),
], ids=["dense", "window", "multi-query", "encoder-decoder", "lowrank-d",
        "map-reuse"])
def test_cached_quantized_greedy_equals_the_per_row_prefix_rerun(kw,
                                                                 monkeypatch):
    """Eight-bit greedy on the KV cache against whole-prefix re-runs under
    the pinned per-row route: the same tokens, and the log-probabilities
    of the row each token was picked from within the cached-decode
    tolerance."""
    model = build(seed=4, d=16, d_ffn=32, **kw)
    w = model.w_o.values.copy()
    w[:, EOS] = -50.0
    T.assign_(model.w_o, w)
    source = VOCAB.encode("hgfe") if "architecture" in kw else None
    prompt = VOCAB.encode("cab")
    rows = {}                                # position -> (id fed, its row)
    decode_step = M.Model.decode_step

    def recording(self, session, tokens):
        start = session.position
        dist = decode_step(self, session, tokens)
        fed = np.reshape(tokens, -1).tolist()
        for i, row in enumerate(np.reshape(dist, (-1, dist.shape[-1]))):
            rows[start + i] = fed[i], row    # a rewound position is fed again
        return dist

    monkeypatch.setattr(M.Model, "decode_step", recording)
    with R.quantized(model, 8):
        tokens = R.greedy_generate(model, prompt, R.SearchConfig(n_max=12),
                                   source=source)
    monkeypatch.undo()
    ids = [SOS] + prompt + tokens[:-1]
    assert sorted(rows) == list(range(len(ids)))
    assert [rows[p][0] for p in range(len(ids))] == ids
    steps = [rows[p][1] for p in range(len(prompt), len(ids))]
    assert len(tokens) == len(steps) == 12

    specs = R.weight_quant_specs(model, 8)
    with T.matmul_routing(per_row_route(specs, 8, None)):
        enc_out = None if source is None else model.encode(source)
        logits = model.decoder_forward(ids, enc_out).values[len(prompt):]
    want = logits - logits.max(axis=1, keepdims=True)
    want -= np.log(np.exp(want).sum(axis=1, keepdims=True))
    assert [R._pick_greedy(np.exp(row)) for row in want] == tokens
    assert np.max(np.abs(np.log(np.stack(steps)) - want)) < DECODE_TOL


@pytest.mark.parametrize("kw", [dict(attention="lowrank-d", n_layers=3),
                                dict(reuse_maps=True, n_layers=3)],
                         ids=["lowrank-d", "map-reuse"])
def test_reduced_and_reuse_steps_quantize_their_projections(kw):
    """A cached step of either form makes one quantized W^qkv product per
    layer: width reduction multiplies its result by U^q and U^kd in
    floats, and a later map-reuse layer's product is its value columns."""
    model = build(seed=4, d=16, d_ffn=32, **kw)
    route = R._quant_route(R.weight_quant_specs(model, 8), 8)
    atts = {id(lay.att.w_qkv): lay.att for lay in model.dec_layers}
    seen = []

    def recording(a, b, cols=None):
        out = route(a, b, cols)
        if id(b) in atts:
            seen.append((atts[id(b)], cols, out is not None))
        return out

    session = model.decode_session()
    with T.matmul_routing(recording):
        model.decode_step(session, np.array([[SOS, 4, 5]]))
        model.decode_step(session, 6)
    reuse = model.cfg.reuse_maps
    want = [(lay.att, lay.att.v_cols if reuse and i else None, True)
            for i, lay in enumerate(model.dec_layers)]
    assert seen == want * 2


def test_quantized_stats_are_collected():
    model = build(seed=1)
    stats = T.QuantStats()
    O.quantized_forward(model, [4, 5, 6], bits=8, stats=stats)
    assert stats.count > 0


def test_all_zero_weight_matrix_maps_products_to_zero():
    model = build(seed=1, n_layers=1)
    w_h = model.dec_layers[0].ffn_core.w_h
    T.assign_(w_h, np.zeros_like(w_h.values))
    specs = R.weight_quant_specs(model, 8)
    assert specs[id(w_h)] is None
    route = R._quant_route(specs, 8)
    out = route(T.Tensor(T.Rng(0).gaussian((3, 8))), w_h)
    assert np.all(out.values == 0.0)
    # the full forward still runs and stays finite
    logits = O.quantized_forward(model, [4, 5], bits=8)
    assert np.all(np.isfinite(logits))


def test_zero_activations_quantize_to_zero_product():
    model = build(seed=1, n_layers=1)
    w_h = model.dec_layers[0].ffn_core.w_h
    route = R._quant_route(R.weight_quant_specs(model, 8), 8)
    out = route(T.Tensor(np.zeros((2, 8))), w_h)
    assert np.all(out.values == 0.0)


def test_unrelated_matmuls_stay_on_the_float_path():
    model = build(seed=1)
    route = R._quant_route(R.weight_quant_specs(model, 8), 8)
    a = T.Tensor(T.Rng(1).gaussian((3, 8)))
    b = T.Tensor(T.Rng(2).gaussian((8, 8)))
    assert route(a, b) is None


def test_accumulator_overflow_propagates():
    model = build(seed=1)
    with pytest.raises(T.AccumulatorOverflowError):
        R.quantized_infer(model, [4], R.SearchConfig(n_max=2), bits=32)


# ---------------------------------------------------------------------------
# kept quantized weights and SSM step operators go stale with the weights
# ---------------------------------------------------------------------------


def decode_dists(model, bits=None):
    """Next-token distributions of a cached decode of a fixed prompt and
    continuation, under ``quantized`` when ``bits`` is given."""
    context = R.quantized(model, bits) if bits else contextlib.nullcontext()
    with context:
        session, dist = R._seed_session(model, [4, 5])
        dists = [dist] + [model.decode_step(session, t) for t in (6, 7, 3, 4)]
    return np.stack(dists)


def loaded_copy(model, tmp_path):
    path = str(tmp_path / "copy.ckpt")
    R.save_checkpoint(model, path)
    return R.load_checkpoint(path)


def test_assigned_or_replaced_weights_are_quantized_again(tmp_path):
    """Decoding after T.assign_ on quantized weights, or after a weight
    is replaced, gives bitwise the distributions of a freshly loaded copy,
    whose table is derived from scratch."""
    model = build(seed=5, dtype=np.float32)
    before = decode_dists(model, 8)              # fills the kept table
    layer = model.dec_layers[1]
    T.assign_(layer.att.w_qkv, layer.att.w_qkv.values * 1.5)
    T.assign_(layer.ffn_core.w_f, layer.ffn_core.w_f.values[::-1].copy())
    assigned = decode_dists(model, 8)
    assert assigned.tobytes() == decode_dists(
        loaded_copy(model, tmp_path), 8).tobytes()
    assert assigned.tobytes() != before.tobytes()
    decode_dists(model, 8)          # the table again: loading assigned too
    layer.ffn_core.w_h = T.Tensor(layer.ffn_core.w_h.values * -1.0,
                                  trainable=True)
    replaced = decode_dists(model, 8)
    assert replaced.tobytes() == decode_dists(
        loaded_copy(model, tmp_path), 8).tobytes()
    assert replaced.tobytes() != assigned.tobytes()


def test_an_assigned_ssm_parameter_rebuilds_the_step_operator(tmp_path,
                                                              monkeypatch):
    """The one-position operator an SSM decode step keeps is rebuilt after
    T.assign_: the distributions equal a freshly loaded copy's, and those
    of a decode that builds the operator at every step."""
    model = build(seed=6, dtype=np.float32, attention="ssm", ssm_d_state=4)
    before = decode_dists(model)                 # keeps the operators
    ssm = model.dec_layers[0].ssm
    T.assign_(ssm.a_bar, ssm.a_bar.values * 0.5)
    assigned = decode_dists(model)
    assert assigned.tobytes() == decode_dists(
        loaded_copy(model, tmp_path)).tobytes()
    assert assigned.tobytes() != before.tobytes()
    monkeypatch.setattr(S, "_source", S._block_source)
    assert decode_dists(model).tobytes() == assigned.tobytes()
