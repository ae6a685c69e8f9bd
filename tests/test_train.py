"""Schedule, batching, loss, Adam, and the training loop, chunked or not."""

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


def lm(seed=0, dtype=F64, **kw):
    base = dict(d=8, n_layers=1, tau=2, d_ffn=16)
    base.update(kw)
    return M.Model.init(M.ModelConfig(**base), VOCAB, seed=seed, dtype=dtype)


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
    batches = TR.make_batches(seqs, 2, T.Rng(0))
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


def logits_of(probs):
    """Logits whose softmax is probs exactly where probs is 0 or one value
    per row, and to rounding elsewhere; a zero becomes -inf."""
    with np.errstate(divide="ignore"):
        return T.Tensor(np.log(np.asarray(probs, dtype=F64)))


def test_perfect_prediction_scores_zero():
    loss = TR.cross_entropy(logits_of(np.eye(4)), [0, 1, 2, 3])
    assert float(loss.values) == pytest.approx(0.0, abs=1e-12)


def test_uniform_prediction_scores_log_vocab():
    loss = TR.cross_entropy(logits_of(np.full((3, 5), 0.2)), [0, 4, 2])
    assert float(loss.values) == pytest.approx(math.log(5.0))


def test_gradient_at_the_logits_is_p_minus_y():
    logits = T.Tensor(np.array([[0.3, -1.2, 0.8]], dtype=F64), trainable=True)
    with T.Tape():
        loss = TR.cross_entropy(logits, [2])
    g = T.backward(loss)[logits].values
    want = T.softmax_rows(logits).values.copy()
    want[0, 2] -= 1.0
    assert np.max(np.abs(g - want)) < 1e-12


def test_batch_gradient_scales_by_token_count():
    logits = T.Tensor(np.linspace(-1, 1, 12).reshape(4, 3), dtype=F64,
                      trainable=True)
    targets = [0, 2, 1, 0]
    with T.Tape():
        loss = TR.cross_entropy(logits, targets)
    g = T.backward(loss)[logits].values
    want = T.softmax_rows(logits).values.copy()
    want[np.arange(4), targets] -= 1.0
    assert np.max(np.abs(g - want / 4.0)) < 1e-12


def test_zero_probability_is_clamped_and_counted():
    tally = TR.WarningTally()
    loss = TR.cross_entropy(logits_of([[1.0, 0.0], [0.5, 0.5]]), [1, 0],
                            tally=tally)
    assert np.isfinite(float(loss.values))
    assert tally.clamped == 1
    assert float(loss.values) == pytest.approx(
        -(math.log(TR.PROB_FLOOR) + math.log(0.5)) / 2.0)


def test_pad_positions_carry_no_loss():
    logits = logits_of([[0.9, 0.1], [0.4, 0.6]])
    full = TR.cross_entropy(logits, [0, 0], pad_mask=[False, True])
    assert float(full.values) == pytest.approx(-math.log(0.9))
    with pytest.raises(ValueError):
        TR.cross_entropy(logits, [0, 0], pad_mask=[True, True])


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


def test_dropout_models_train_in_train_mode():
    # one segment makes the batch the same for every seed, so the first
    # loss moves with the seed only through the layer-dropout draws
    one = segs()[:1]
    first = {rho: [TR.train_lm(lm(n_layers=2, placement="pre",
                                  dropout_rho=rho), one,
                               run_cfg(max_steps=1, seed=seed))[0]["loss"]
                   for seed in (1, 2)]
             for rho in (0.5, 1.0)}
    assert first[0.5][0] != first[0.5][1]
    assert first[1.0][0] == first[1.0][1]


def test_loss_falls_on_repetitive_text():
    rows = TR.train_lm(lm(), segs(), run_cfg(max_steps=30))
    first = np.mean([r["loss"] for r in rows[:5]])
    last = np.mean([r["loss"] for r in rows[-5:]])
    assert last < first - 0.3


def test_metrics_rows_carry_the_csv_fields():
    rows = TR.train_lm(lm(), segs(), run_cfg(max_steps=2))
    csv = TR.metrics_to_csv(rows)
    assert csv.splitlines()[0] == "step,lr,loss,tokens_per_s,clamped,grad_norm"
    assert len(csv.splitlines()) == 3
    assert rows[0]["lr"] == pytest.approx(TR.lr_schedule(1, run_cfg()))
    for row, line in zip(rows, csv.splitlines()[1:]):
        assert set(row) == set(TR.METRIC_FIELDS)
        step, _, _, _, clamped, _ = line.split(",")
        assert (int(step), int(clamped)) == (row["step"], row["clamped"])


def test_grad_norm_is_the_pre_clip_norm():
    clipped = TR.train_lm(lm(), segs(), run_cfg(max_steps=3, clip_norm=1e-3))
    free = TR.train_lm(lm(), segs(), run_cfg(max_steps=3))
    # the first step starts from the same weights, clipped or not
    assert clipped[0]["grad_norm"] == free[0]["grad_norm"] > 1e-3
    assert all(np.isfinite(r["grad_norm"]) for r in clipped + free)


def test_diverging_run_stops_at_a_fixed_step():
    """lr0 = 1e6 with no warmup overflows float32 in the second step's
    forward; the run stops there with the first step's weights."""
    model = lm(dtype=np.float32)
    after_first = []

    def keep(row):
        after_first[:] = [p.values.copy() for p in model.parameters()]

    with pytest.raises(TR.TrainingDivergedError) as info:
        TR.train_lm(model, segs(), run_cfg(lr0=1e6, n_warmup=1, max_steps=50),
                    on_step=keep)
    assert info.value.step == 2
    assert "step 2" in str(info.value)
    for p, want in zip(model.parameters(), after_first):
        np.testing.assert_array_equal(p.values, want)


@pytest.mark.parametrize("placement", ["post", "pre"])
def test_a_floored_step_with_no_gradient_stops_training(placement):
    """lr0 = 1e6 under the default warmup overflows nothing, but after a
    step or two every target is floored or certain and the gradient is
    exactly zero; the run stops there instead of idling at loss ~19."""
    model = lm(d=16, d_ffn=32, dtype=np.float32, placement=placement)
    cfg = run_cfg(lr0=1e6, n_warmup=TR.TrainConfig().n_warmup, max_steps=20)
    rows, before = [], []

    def keep(row):
        rows.append(row)
        before[:] = [p.values.copy() for p in model.parameters()]

    with pytest.raises(TR.TrainingDivergedError, match="under the floor") \
            as info:
        TR.train_lm(model, segs(), cfg, on_step=keep)
    assert info.value.step <= 3 and len(rows) == info.value.step - 1
    for p, want in zip(model.parameters(), before):
        np.testing.assert_array_equal(p.values, want)


def test_non_finite_loss_stops_training_before_the_update():
    model = lm()
    before = [p.values.copy() for p in model.parameters()]
    poisoned = model.w_o.values.copy()
    poisoned[0, 0] = np.nan
    T.assign_(model.w_o, poisoned)
    with pytest.raises(TR.TrainingDivergedError, match="loss is nan") as info:
        TR.train_lm(model, segs(), run_cfg())
    assert info.value.step == 1
    for p, want in zip(model.parameters(), before):
        if p is not model.w_o:
            np.testing.assert_array_equal(p.values, want)


# ---------------------------------------------------------------------------
# the batched step
# ---------------------------------------------------------------------------


def _per_row_loss(model, batch, seed):
    """Reference: one training-mode forward per row, each with a fresh
    T.Rng(seed) so every row draws the batch's layer-dropout choices, and
    each row's mean NLL weighted by its share of the batch's targets."""
    total = batch.n_tokens
    loss = None
    for r in range(batch.inputs.shape[0]):
        n_row = int((~batch.pad[r]).sum())
        if n_row == 0:
            continue
        logits = model.decoder_forward(batch.inputs[r], training=True,
                                       rng=T.Rng(seed))
        part = TR.cross_entropy(logits, batch.targets[r], batch.pad[r]) \
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
        ref = _per_row_loss(model, batch, seed=5)
    ref_grads = T.backward(ref)
    with T.Tape():
        got, n_tok = TR._batch_loss(model, batch, TR.WarningTally(),
                                    rng=T.Rng(5))
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
    chunked = TR.train_lm(lm(seed=5), segs(),
                          run_cfg(max_steps=8, chunk_len=64))
    assert len(plain) == len(chunked)
    for a, b in zip(plain, chunked):
        assert a["step"] == b["step"] and a["lr"] == b["lr"]
        assert a["loss"] == pytest.approx(b["loss"], rel=1e-9)


def _per_row_chunked_training(model, segments, cfg):
    """Reference: the chunk-wise loop as a separate per-row function, one
    decoder_forward per row and span, each row's span loss weighted by its
    share of the span's targets."""
    rng = T.Rng(cfg.seed)
    state = TR.AdamState(cfg.beta1, cfg.beta2, cfg.eps_adam)
    tally = TR.WarningTally()
    metrics, batches, step = [], [], 0
    while step < cfg.max_steps:
        if not batches:
            batches = TR.make_batches(segments, cfg.batch_size, rng)
        batch = batches.pop(0)
        width = batch.inputs.shape[1]
        kv_prev = [None] * batch.inputs.shape[0]
        for lo in range(0, width, cfg.chunk_len):
            hi = min(lo + cfg.chunk_len, width)
            if step >= cfg.max_steps:
                break
            keep = ~batch.pad[:, lo:hi]
            n_tok = int(keep.sum())
            if n_tok == 0:
                continue
            step += 1
            lr = TR.lr_schedule(step, cfg)
            with T.Tape() as tape:
                loss = None
                kv_next = [None] * batch.inputs.shape[0]
                for r in range(batch.inputs.shape[0]):
                    kv_now = []
                    logits = model.decoder_forward(
                        batch.inputs[r, lo:hi], start_pos=lo,
                        kv_prefix=kv_prev[r], kv_out=kv_now)
                    kv_next[r] = kv_now
                    n_row = int(keep[r].sum())
                    if n_row == 0:
                        continue
                    part = TR.cross_entropy(logits,
                                            batch.targets[r, lo:hi],
                                            batch.pad[r, lo:hi], tally)
                    part = part * (n_row / n_tok)
                    loss = part if loss is None else loss + part
                TR._apply_update(model, loss, lr, cfg, state)
            tape.release()
            kv_prev = kv_next
            metrics.append(dict(step=step, lr=lr, loss=float(loss.values)))
    return metrics


@pytest.mark.parametrize("n_c", [3, 7, 64])
def test_batched_chunks_match_the_per_row_loop(n_c):
    rows = [s[:4 + (5 * i) % 9] for i, s in enumerate(segs())]
    assert len({len(r) for r in rows}) > 1             # PAD-tailed rows
    cfg = run_cfg(max_steps=11, chunk_len=n_c)
    ref_model, got_model = lm(seed=7), lm(seed=7)
    want = _per_row_chunked_training(ref_model, rows, cfg)
    got = TR.train_lm(got_model, rows, cfg)
    assert len(got) == len(want) == cfg.max_steps
    for a, b in zip(got, want):
        assert (a["step"], a["lr"]) == (b["step"], b["lr"])
        assert a["loss"] == pytest.approx(b["loss"], rel=1e-10)
    for (name, p), q in zip(got_model.named(), ref_model.parameters()):
        assert np.max(np.abs(p.values - q.values)) < 1e-10, name


@pytest.mark.parametrize("chunk_len", [None, 5])
@pytest.mark.parametrize("batch_size", [1, 4])
def test_a_step_is_one_forward_over_every_row(monkeypatch, chunk_len,
                                              batch_size):
    calls = []
    plain_forward = M.Model.decoder_forward

    def counting_forward(self, tokens, *args, **kwargs):
        calls.append((np.shape(tokens), kwargs))
        return plain_forward(self, tokens, *args, **kwargs)

    monkeypatch.setattr(M.Model, "decoder_forward", counting_forward)
    TR.train_lm(lm(), segs(), run_cfg(max_steps=2, batch_size=batch_size,
                                      chunk_len=chunk_len))
    assert len(calls) == 2
    (shape1, kw1), (shape2, kw2) = calls
    assert shape1[0] == shape2[0] == batch_size
    if chunk_len is None:                    # no history: the full-width call
        assert shape1[1] == 13
        assert all(kw.get("kv_prefix") is kw.get("kv_out") is None
                   for kw in (kw1, kw2))
    else:                                    # the second span reads the first's
        assert shape1[1] == shape2[1] == chunk_len
        assert kw1["kv_prefix"] is None and kw2["kv_prefix"] is kw1["kv_out"]
        assert kw2["start_pos"] == chunk_len


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
        return float(TR.cross_entropy(logits, targets[half:],
                                      pad[half:]).values)

    def full_loss():
        logits = m.decoder_forward(ids)
        return float(TR.cross_entropy(logits, targets,
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
