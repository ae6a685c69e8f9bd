"""Schedule, batching, loss, Adam, and chunk-wise training behavior."""

import gc
import importlib.resources
import math

import numpy as np
import pytest

import seqlab.model as M
import seqlab.tensor as T
import seqlab.train as TR
from seqlab.embedding import EOS, PAD, SOS, Vocab

F64 = np.float64
TEXT = "the cat sat on the mat and the hat had a bat "
VOCAB = Vocab.from_text(TEXT)


def lm(seed=0, **kw):
    base = dict(d=8, n_layers=1, tau=2, d_ffn=16)
    base.update(kw)
    return M.Model.init(M.ModelConfig(**base), VOCAB, seed=seed, dtype=F64)


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------


def test_schedule_branches_meet_at_the_warmup_corner():
    cfg = TR.TrainConfig(lr0=2.0, n_warmup=4000)
    assert TR.lr_schedule(4000, cfg) == pytest.approx(2.0 * 4000 ** -0.5)
    assert TR.lr_schedule(1, cfg) == pytest.approx(2.0 * 4000 ** -1.5)


def test_schedule_rises_to_the_peak_then_decays():
    cfg = TR.TrainConfig(lr0=1.0, n_warmup=50)
    lrs = [TR.lr_schedule(s, cfg) for s in range(1, 300)]
    peak = max(lrs)
    assert peak == pytest.approx(50 ** -0.5)
    assert lrs.index(peak) == 49                     # step n_warmup
    assert all(a <= b + 1e-15 for a, b in zip(lrs[:49], lrs[1:50]))
    assert all(a > b for a, b in zip(lrs[49:], lrs[50:]))
    with pytest.raises(ValueError):
        TR.lr_schedule(0, cfg)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def test_four_sequences_pack_into_one_padded_block():
    seqs = [[4] * 5, [5], [6] * 2, [7] * 3]          # +EOS: lengths 6,2,3,4
    (batch,) = TR.make_batches(seqs, size=4)
    assert batch.inputs.shape == (4, 6)
    pads = (batch.inputs == PAD).sum(axis=1)
    assert list(pads) == [0, 4, 3, 2]
    for row in batch.inputs:
        non_pad = row[row != PAD]
        assert non_pad[-1] == EOS                    # EOS before any padding


def test_single_sequence_needs_no_padding():
    (batch,) = TR.make_batches([[4, 5, 6]], size=1)
    assert not (batch.inputs == PAD).any()
    assert batch.inputs.shape == (1, 4)


def test_targets_are_the_inputs_shifted_left():
    (batch,) = TR.make_batches([[4, 5, 6]], size=1)
    assert list(batch.inputs[0]) == [4, 5, 6, EOS]
    assert list(batch.targets[0]) == [5, 6, EOS, PAD]
    assert list(batch.pad[0]) == [False, False, False, True]


def test_shuffled_batching_is_deterministic_and_lossless():
    seqs = [[4] * k for k in range(1, 18)]
    a = TR.make_batches(seqs, 4, T.Rng(9))
    b = TR.make_batches(seqs, 4, T.Rng(9))
    assert all(np.array_equal(x.inputs, y.inputs) for x, y in zip(a, b))
    lengths = sorted(int((row != PAD).sum()) for bt in a for row in bt.inputs)
    assert lengths == [k + 1 for k in range(1, 18)]  # every row kept once


def test_window_sorting_groups_similar_lengths():
    seqs = [[4] * k for k in (1, 30, 2, 29, 3, 28, 4, 27)]
    batches = TR.make_batches(seqs, 2, T.Rng(0), sort_window=8)
    waste = sum(int((b.inputs == PAD).sum()) for b in batches)
    unsorted = TR.make_batches(seqs, 2)
    waste_unsorted = sum(int((b.inputs == PAD).sum()) for b in unsorted)
    assert waste < waste_unsorted


def test_padding_amount_does_not_move_non_pad_outputs():
    m = lm()
    ids = VOCAB.encode("cat") + [EOS]
    alone = m.decoder_forward(ids).values
    padded = m.decoder_forward(ids + [PAD] * 4).values
    assert np.max(np.abs(padded[: len(ids)] - alone)) < 1e-12


# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------


def test_perfect_prediction_scores_zero():
    probs = T.Tensor(np.eye(4, dtype=F64))
    loss = TR.cross_entropy(probs, [0, 1, 2, 3])
    assert float(loss.values) == pytest.approx(0.0, abs=1e-12)


def test_uniform_prediction_scores_log_vocab():
    probs = T.Tensor(np.full((3, 5), 0.2, dtype=F64))
    loss = TR.cross_entropy(probs, [0, 4, 2])
    assert float(loss.values) == pytest.approx(math.log(5.0))


def test_gradient_at_the_logits_is_p_minus_y():
    logits = T.Tensor(np.array([[0.3, -1.2, 0.8]], dtype=F64), trainable=True)
    with T.Tape():
        probs = T.softmax_rows(logits)
        loss = TR.cross_entropy(probs, [2])
    g = T.backward(loss)[logits].values
    want = probs.values.copy()
    want[0, 2] -= 1.0
    assert np.max(np.abs(g - want)) < 1e-12


def test_batch_gradient_scales_by_token_count():
    logits = T.Tensor(np.linspace(-1, 1, 12).reshape(4, 3), dtype=F64,
                      trainable=True)
    targets = [0, 2, 1, 0]
    with T.Tape():
        probs = T.softmax_rows(logits)
        loss = TR.cross_entropy(probs, targets)
    g = T.backward(loss)[logits].values
    want = probs.values.copy()
    want[np.arange(4), targets] -= 1.0
    assert np.max(np.abs(g - want / 4.0)) < 1e-12


def test_zero_probability_is_clamped_and_counted():
    probs = T.Tensor(np.array([[1.0, 0.0], [0.5, 0.5]], dtype=F64))
    tally = TR.WarningTally()
    loss = TR.cross_entropy(probs, [1, 0], tally=tally)
    assert np.isfinite(float(loss.values))
    assert tally.clamped == 1
    assert float(loss.values) == pytest.approx(
        -(math.log(TR.PROB_FLOOR) + math.log(0.5)) / 2.0)


def test_pad_positions_carry_no_loss():
    probs = T.Tensor(np.array([[0.9, 0.1], [0.4, 0.6]], dtype=F64))
    full = TR.cross_entropy(probs, [0, 0], pad_mask=[False, True])
    assert float(full.values) == pytest.approx(-math.log(0.9))
    with pytest.raises(ValueError):
        TR.cross_entropy(probs, [0, 0], pad_mask=[True, True])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_zero_gradients_leave_parameters_unchanged():
    p = T.Tensor(np.array([1.0, -2.0]), trainable=True)
    state = TR.AdamState()
    TR.adam_step([p], {id(p): np.zeros(2)}, state, lr=0.5)
    assert np.array_equal(p.values, [1.0, -2.0])


def test_quadratic_converges_to_its_minimum():
    w = T.Tensor(np.array(0.0), trainable=True)
    state = TR.AdamState()
    for _ in range(2000):
        g = 2.0 * (float(w.values) - 3.0)
        TR.adam_step([w], {id(w): np.array(g)}, state, lr=0.02)
    assert abs(float(w.values) - 3.0) < 1e-3


def test_two_step_scalar_trace_matches_a_hand_recomputation():
    w = T.Tensor(np.array(0.0), trainable=True)
    state = TR.AdamState(beta1=0.9, beta2=0.999, eps=1e-9)
    lr = 0.1

    # independent scalar recomputation of the same two updates
    wv, m, v = 0.0, 0.0, 0.0
    for t in (1, 2):
        g = 2.0 * (wv - 3.0)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        wv = wv - lr * m_hat / (math.sqrt(v_hat) + 1e-9)

    for _ in (1, 2):
        g = 2.0 * (float(w.values) - 3.0)
        TR.adam_step([w], {id(w): np.array(g)}, state, lr=lr)
    assert float(w.values) == pytest.approx(wv, abs=1e-12)
    assert float(w.values) == pytest.approx(0.19989727, abs=1e-6)


def test_first_adam_step_moves_by_roughly_lr_regardless_of_scale():
    for scale in (1e-3, 1.0, 1e3):
        p = T.Tensor(np.array(0.0), trainable=True)
        TR.adam_step([p], {id(p): np.array(scale)}, TR.AdamState(), lr=0.01)
        assert float(p.values) == pytest.approx(-0.01, rel=1e-5)


def test_clipping_caps_the_global_norm_exactly():
    a = T.Tensor(np.array([3.0, 0.0]), trainable=True)
    b = T.Tensor(np.array([0.0, 4.0]), trainable=True)
    grads = {id(a): a.values.copy(), id(b): b.values.copy()}
    table, norm = TR.clip_gradients([a, b], grads, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    clipped = math.sqrt(sum(float((g * g).sum()) for g in table.values()))
    assert clipped == pytest.approx(1.0, abs=1e-12)
    table2, norm2 = TR.clip_gradients([a, b], grads, max_norm=10.0)
    assert norm2 == pytest.approx(5.0)
    assert np.array_equal(table2[id(a)], grads[id(a)])


@pytest.mark.parametrize("clip_norm", [None, 0.5])
def test_adam_steps_equal_the_textbook_formula_bitwise(clip_norm):
    rng = T.Rng(60)
    params = [T.Tensor(rng.gaussian((3, 4)), trainable=True),
              T.Tensor(rng.gaussian((5,)), trainable=True)]
    want = [p.values.copy() for p in params]
    m = [np.zeros_like(w) for w in want]
    v = [np.zeros_like(w) for w in want]
    state = TR.AdamState()
    b1, b2, eps, lr = state.beta1, state.beta2, state.eps, 0.01
    for t in range(1, 6):
        grads = {id(p): rng.gaussian(p.shape) for p in params}
        table = grads
        if clip_norm is not None:
            table, _ = TR.clip_gradients(params, grads, clip_norm)
        TR.adam_step(params, table, state, lr)
        gs = [grads[id(p)] for p in params]
        if clip_norm is not None:
            norm = float(np.sqrt(sum(float((g * g).sum()) for g in gs)))
            assert norm > clip_norm
            gs = [g * (clip_norm / norm) for g in gs]
        for i, g in enumerate(gs):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat = m[i] / (1.0 - b1 ** t)
            v_hat = v[i] / (1.0 - b2 ** t)
            want[i] = want[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for p, w in zip(params, want):
            assert np.array_equal(p.values, w)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def run_cfg(**kw):
    base = dict(lr0=0.5, n_warmup=20, batch_size=4, max_steps=10, seq_len=12)
    base.update(kw)
    return TR.TrainConfig(**base)


def segs():
    return TR.segments_from_text(TEXT * 12, VOCAB, 12)


def test_fresh_model_loss_starts_at_log_vocab():
    rows = TR.train_lm(lm(), segs(), run_cfg(max_steps=1))
    assert rows[0]["loss"] == pytest.approx(math.log(len(VOCAB)), rel=0.05)


def test_training_is_deterministic_for_a_seed():
    r1 = TR.train_lm(lm(seed=3), segs(), run_cfg())
    r2 = TR.train_lm(lm(seed=3), segs(), run_cfg())
    assert [r["loss"] for r in r1] == [r["loss"] for r in r2]


def test_loss_falls_on_repetitive_text():
    rows = TR.train_lm(lm(), segs(), run_cfg(max_steps=30))
    first = np.mean([r["loss"] for r in rows[:5]])
    last = np.mean([r["loss"] for r in rows[-5:]])
    assert last < first - 0.3


def test_metrics_rows_carry_the_csv_fields():
    rows = TR.train_lm(lm(), segs(), run_cfg(max_steps=2))
    csv = TR.metrics_to_csv(rows)
    assert csv.splitlines()[0] == "step,lr,loss,tokens_per_s,clamped"
    assert len(csv.splitlines()) == 3
    assert rows[0]["lr"] == pytest.approx(TR.lr_schedule(1, run_cfg()))
    for row, line in zip(rows, csv.splitlines()[1:]):
        assert set(row) == set(TR.METRIC_FIELDS)
        step, _, _, _, clamped = line.split(",")
        assert (int(step), int(clamped)) == (row["step"], row["clamped"])


# ---------------------------------------------------------------------------
# the batched step
# ---------------------------------------------------------------------------


def _per_row_loss(model, batch):
    """Reference: one forward per row, each row's mean NLL weighted by its
    share of the batch's targets."""
    total = batch.n_tokens
    loss = None
    for r in range(batch.inputs.shape[0]):
        n_row = int((~batch.pad[r]).sum())
        if n_row == 0:
            continue
        probs = T.softmax_rows(model.decoder_forward(batch.inputs[r]))
        part = TR.cross_entropy(probs, batch.targets[r], batch.pad[r]) \
            * (n_row / total)
        loss = part if loss is None else loss + part
    return loss


DECODER_VARIANTS = {
    "dense": {},
    "window": dict(attention="window", window=3),
    "linear": dict(attention="linear"),
    "lowrank-d": dict(attention="lowrank-d"),
    "ssm": dict(attention="ssm", ssm_d_state=4),
    "rpr": dict(rpr=True, rpr_clip=3),
    "multi_query": dict(multi_query=True),
    "reuse_maps": dict(reuse_maps=True, n_layers=2),
    "moe": dict(moe_experts=3, moe_k=2),
    "pre_rk2": dict(placement="pre", integrator_order=2),
    "pre_rk4": dict(placement="pre", integrator_order=4),
    "dropout": dict(placement="pre", dropout_rho=0.7),
    "tie_embedding": dict(tie_embedding=True),
    "share_groups": dict(n_layers=2, share_groups=((0, 1),)),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("variant", sorted(DECODER_VARIANTS))
def test_batched_loss_matches_the_per_row_reference(variant, dtype):
    base = dict(d=8, n_layers=1, tau=2, d_ffn=16)
    base.update(DECODER_VARIANTS[variant])
    model = M.Model.init(M.ModelConfig(**base), VOCAB, seed=1, dtype=dtype)
    s = segs()
    (batch,) = TR.make_batches([s[0], s[1][:4], s[2], s[3][:7]], size=4)
    assert batch.pad[:, :-1].any()                 # PAD-tailed rows present

    with T.Tape():
        ref = _per_row_loss(model, batch)
    ref_grads = T.backward(ref)
    with T.Tape():
        got, n_tok = TR._batch_loss(model, batch, TR.WarningTally())
    got_grads = T.backward(got)

    assert n_tok == batch.n_tokens
    if dtype == np.float64:
        assert abs(float(got.values) - float(ref.values)) < 1e-10
    else:
        assert float(got.values) == pytest.approx(float(ref.values), rel=1e-5)
    for name, p in model.named():
        want = TR._grad_of(ref_grads, p)
        have = TR._grad_of(got_grads, p)
        scale = max(float(np.max(np.abs(want))), 1e-30)
        err = float(np.max(np.abs(have - want)))
        if dtype == np.float64:
            assert err < 1e-10, f"{name}: {err}"
        else:
            assert err / scale < 1e-5, f"{name}: {err / scale}"


def test_finished_steps_leave_no_tape_for_the_cycle_collector():
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        TR.train_lm(lm(), segs(), run_cfg(max_steps=2))
        gc.collect()
        stranded = [o for o in gc.garbage if isinstance(o, T.Tape)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert stranded == []


def test_criterion_10_step_is_one_batched_forward(monkeypatch):
    """The criterion-10 shape (d=64, 2 layers, 4 heads, FFN 256, batch 8,
    seq 64) trains with one decoder_forward per step and at most a fifth
    of the 1167 taped ops the per-row loop recorded."""
    text = (importlib.resources.files("seqlab") / "data" / "corpus.txt").read_text()
    vocab = Vocab.from_text(text)
    rows = [s for s in TR.segments_from_text(text, vocab, 64) if len(s) == 64][:8]
    model = M.Model.init(M.ModelConfig(d=64, n_layers=2, tau=4, d_ffn=256),
                         vocab, seed=0)
    forwards, records = [], []
    plain_forward, plain_backward = M.Model.decoder_forward, T.backward

    def counting_forward(self, *args, **kwargs):
        forwards.append(1)
        return plain_forward(self, *args, **kwargs)

    def counting_backward(loss):
        records.append(len(loss.tape.records))
        return plain_backward(loss)

    monkeypatch.setattr(M.Model, "decoder_forward", counting_forward)
    monkeypatch.setattr(T, "backward", counting_backward)
    TR.train_lm(model, rows, TR.TrainConfig(lr0=0.2, batch_size=8,
                                            max_steps=1, seq_len=64))
    assert len(forwards) == 1
    assert len(records) == 1 and records[0] <= 1167 // 5


# ---------------------------------------------------------------------------
# chunk-wise training
# ---------------------------------------------------------------------------


def test_one_big_chunk_reproduces_standard_training():
    plain = TR.train_lm(lm(seed=5), segs(), run_cfg(max_steps=8))
    chunked = TR.train_chunked(lm(seed=5), segs(),
                               run_cfg(max_steps=8, chunk_len=64))
    assert len(plain) == len(chunked)
    for a, b in zip(plain, chunked):
        assert a["step"] == b["step"] and a["lr"] == b["lr"]
        assert a["loss"] == pytest.approx(b["loss"], rel=1e-9)


def test_chunked_training_needs_a_chunk_length():
    with pytest.raises(ValueError):
        TR.train_chunked(lm(), segs(), run_cfg())


def test_frozen_history_blocks_gradient_flow():
    """Perturbing something only the previous chunk saw cannot move the
    current chunk's loss while the cached history is held fixed."""
    m = lm()
    marker = VOCAB.encode("b")[0]                # appears only in chunk 1
    ids = np.array(VOCAB.encode("bat and hat") + [EOS], dtype=np.int64)
    targets = np.concatenate([ids[1:], [PAD]])
    pad = targets == PAD
    half = 6
    assert marker in ids[:half] and marker not in ids[half:]

    kv = []
    m.decoder_forward(ids[:half], kv_out=kv)

    def chunk2_loss():
        logits = m.decoder_forward(ids[half:], start_pos=half, kv_prefix=kv)
        probs = T.softmax_rows(logits)
        return float(TR.cross_entropy(probs, targets[half:],
                                      pad[half:]).values)

    def full_loss():
        logits = m.decoder_forward(ids)
        return float(TR.cross_entropy(T.softmax_rows(logits), targets,
                                      pad).values)

    eps = 1e-4
    row = m.embed.weights.values[marker].copy()
    base_chunk, base_full = chunk2_loss(), full_loss()
    bumped = m.embed.weights.values.copy()
    bumped[marker, 0] += eps
    T.assign_(m.embed.weights, bumped)
    assert chunk2_loss() == base_chunk           # frozen history: exactly 0
    assert abs(full_loss() - base_full) > 1e-9   # live history reacts
    bumped[marker, 0] = row[0]
    T.assign_(m.embed.weights, bumped)


def test_chunk_forward_matches_a_manual_construction():
    """Chunk 2 of a 1-layer post-norm model, rebuilt by hand in numpy from
    the cached chunk-1 keys/values."""
    cfg = M.ModelConfig(d=4, n_layers=1, tau=1, d_ffn=8)
    m = M.Model.init(cfg, VOCAB, seed=2, dtype=F64)
    ids = np.array(VOCAB.encode("the cat"), dtype=np.int64)
    half = 4
    kv = []
    m.decoder_forward(ids[:half], kv_out=kv)
    got = m.decoder_forward(ids[half:], start_pos=half, kv_prefix=kv).values

    lay = m.dec_layers[0]
    emb = m.embed.weights.values[ids[half:]] + m.pe.table(len(ids))[half:]
    q = emb @ lay.att.wq.values
    k1, v1 = kv[0]
    k = np.vstack([k1, emb @ lay.att.wk.values])
    v = np.vstack([v1, emb @ lay.att.wv.values])
    n2 = emb.shape[0]
    scores = q @ k.T / np.sqrt(4.0)
    for i in range(n2):
        scores[i, half + i + 1:] = -np.inf
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = (e / e.sum(axis=1, keepdims=True)) @ v @ lay.att.w_out.values

    def ln(x, p):
        mu = x.mean(axis=1, keepdims=True)
        sg = x.std(axis=1, keepdims=True)
        return p.g.values * (x - mu) / (sg + p.eps) + p.b.values

    h = ln(att + emb, lay.ln1)
    f = np.maximum(h @ lay.ffn_core.w_h.values + lay.ffn_core.b_h.values, 0.0)
    h = ln(f @ lay.ffn_core.w_f.values + lay.ffn_core.b_f.values + h, lay.ln2)
    want = h @ m.w_o.values
    assert np.max(np.abs(got - want)) < 1e-10
