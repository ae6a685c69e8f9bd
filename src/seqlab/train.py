"""Training: cross-entropy, Adam, warmup schedule, batching, one loop.

The loop is deliberately small: a batch is a padded (b, m) id matrix that
goes through Model.decoder_forward in one pass, and one Adam step follows
one backward pass. With a chunk length the same loop takes one step per
span of columns, handing the previous span's detached decode state (key
and value arrays, kernel sums or SSM state) to the next, so history is
visible but carries no gradient.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .embedding import EOS, PAD, Vocab
from .model import Model

PROB_FLOOR = 1e-9


class TrainingDivergedError(ArithmeticError):
    """A training step overflowed, its loss or gradient norm is not
    finite, or its gradient is zero while target probabilities sit under
    the floor.

    ``step`` is the 1-based step at which it happened; the parameters
    still hold the values the step started from.
    """

    def __init__(self, step: int, reason: str):
        super().__init__(f"training diverged at step {step}: {reason}")
        self.step = step


@dataclass
class TrainConfig:
    lr0: float = 0.05
    n_warmup: int = 400
    batch_size: int = 8
    max_steps: int = 200
    seed: int = 0
    clip_norm: Optional[float] = None
    chunk_len: Optional[int] = None          # n_c; None disables chunking
    seq_len: int = 64                        # LM segment length
    beta1: float = 0.9
    beta2: float = 0.98
    eps_adam: float = 1e-9

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if self.n_warmup < 1:
            raise ValueError("n_warmup must be >= 1")
        if self.batch_size < 1 or self.max_steps < 1:
            raise ValueError("batch size and step budget must be >= 1")
        if self.seq_len < 2:
            raise ValueError("segments need at least two tokens")
        if self.chunk_len is not None and self.chunk_len < 1:
            raise ValueError("chunk length must be >= 1")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip threshold must be positive")


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """lr0 * min(step^-0.5, step * n_warmup^-1.5): linear warmup, then decay."""
    if step < 1:
        raise ValueError("schedule steps start at 1")
    return cfg.lr0 * min(step ** -0.5, step * cfg.n_warmup ** -1.5)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """Aligned id rows: every row ends with EOS, then PAD out to the block."""

    inputs: np.ndarray                       # (b, w) int64
    targets: np.ndarray                      # inputs shifted one left, PAD tail
    pad: np.ndarray                          # PAD indicator on targets (b, w)

    def __post_init__(self):
        if not (self.inputs.shape == self.targets.shape == self.pad.shape):
            raise ValueError("batch matrices must share one shape")

    @property
    def n_tokens(self) -> int:
        return int((~self.pad).sum())


def make_batches(seqs: Sequence[Sequence[int]], size: int,
                 rng: Optional[T.Rng] = None) -> List[Batch]:
    """Pack sequences into padded blocks of up to `size` rows.

    Each sequence gets an EOS appended, then PADs out to the longest row
    of its block. With an rng, the order is shuffled and then sorted by
    length inside windows of 4*size rows so blocks waste less padding;
    without one the input order is kept.
    """
    if size < 1:
        raise ValueError("batch size must be >= 1")
    rows = [list(s) + [EOS] for s in seqs]
    if not rows:
        return []
    order = list(range(len(rows)))
    if rng is not None:
        order = [int(i) for i in rng.permutation(len(rows))]
        win = 4 * size
        for lo in range(0, len(order), win):
            chunk = order[lo:lo + win]
            chunk.sort(key=lambda i: len(rows[i]))
            order[lo:lo + win] = chunk
    out = []
    for lo in range(0, len(order), size):
        members = [rows[i] for i in order[lo:lo + size]]
        width = max(len(r) for r in members)
        inputs = np.full((len(members), width), PAD, dtype=np.int64)
        for r, row in enumerate(members):
            inputs[r, :len(row)] = row
        targets = np.full_like(inputs, PAD)
        targets[:, :-1] = inputs[:, 1:]
        out.append(Batch(inputs, targets, targets == PAD))
    return out


def segments_from_ids(ids: Sequence[int], seq_len: int) -> List[List[int]]:
    """Non-overlapping seq_len slices of a token stream; short tail dropped."""
    ids = list(ids)
    return [ids[lo:lo + seq_len] for lo in range(0, len(ids) - 1, seq_len)
            if len(ids[lo:lo + seq_len]) >= 2]


def segments_from_text(text: str, vocab: Vocab, seq_len: int) -> List[List[int]]:
    return segments_from_ids(vocab.encode(text), seq_len)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


@dataclass
class WarningTally:
    """Counts target probabilities that hit the clamp floor."""

    clamped: int = 0


def cross_entropy(logits: T.Tensor, targets, pad_mask=None,
                  tally: Optional[WarningTally] = None) -> T.Tensor:
    """Mean negative log-likelihood of the targets over non-PAD positions.

    Rows of `logits` are next-token scores; their softmax is the predicted
    distribution. Target probabilities below PROB_FLOOR are clamped to it
    (counted on the tally, and given no gradient) so the loss stays
    finite; elsewhere the gradient at the logits is the usual p - y,
    scaled by 1/#tokens. One taped op (T.log_softmax_nll).
    """
    ids = np.asarray(targets, dtype=np.int64)
    m = logits.shape[0]
    if logits.ndim != 2 or ids.shape != (m,):
        raise T.ShapeError("one target per row of (m, |V|) logits required")
    keep = np.ones(m, dtype=bool) if pad_mask is None \
        else ~np.asarray(pad_mask, dtype=bool)
    if not keep.any():
        raise ValueError("no unpadded targets to score")
    loss, picked = T.log_softmax_nll(logits, ids, keep / keep.sum(), PROB_FLOOR)
    if tally is not None:
        tally.clamped += int((picked[keep] < PROB_FLOOR).sum())
    return loss


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    step: int = 0
    m: dict = field(default_factory=dict)    # id(param) -> first moment
    v: dict = field(default_factory=dict)


def _grad_of(grads, p: T.Tensor) -> np.ndarray:
    g = grads.get(id(p)) if isinstance(grads, dict) else grads.get(p)
    if g is None:
        return np.zeros_like(p.values, dtype=np.float64)
    return np.asarray(getattr(g, "values", g), dtype=np.float64)


def adam_step(params: Sequence[T.Tensor], grads, state: AdamState,
              lr: float) -> None:
    """One bias-corrected Adam update, in place via parameter assignment.

    The moment arrays are updated in place, so a step allocates no new
    state per parameter.
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p in params:
        g = _grad_of(grads, p)
        if g.shape != p.values.shape:
            raise T.ShapeError("gradient shape does not match its parameter")
        key = id(p)
        if key not in state.m:
            state.m[key] = np.zeros_like(g)
            state.v[key] = np.zeros_like(g)
        m, v = state.m[key], state.v[key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        T.assign_(p, p.values - lr * m_hat / (np.sqrt(v_hat) + state.eps))


def clip_gradients(params: Sequence[T.Tensor], grads,
                   max_norm: Optional[float]) -> Tuple[dict, float]:
    """Scale all gradients so the global L2 norm is capped at max_norm.

    Returns ({id(param): gradient}, pre-clip norm); when the norm exceeds
    the threshold the scaled global norm equals it exactly. max_norm None
    only measures the norm.
    """
    table = {id(p): _grad_of(grads, p) for p in params}
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in table.values())))
    if max_norm is not None and norm > max_norm and norm > 0:
        scale = max_norm / norm
        table = {k: g * scale for k, g in table.items()}
    return table, norm


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _batch_loss(model: Model, batch: Batch, tally: WarningTally, *,
                span: Optional[Tuple[int, int]] = None, kv_prefix=None,
                kv_out=None, rng: Optional[T.Rng] = None
                ) -> Tuple[T.Tensor, int]:
    """Mean NLL over every non-PAD target in columns span = (lo, hi) of the
    batch, by default all of them.

    One causal training-mode forward over the (b, hi - lo) id block: PAD
    inputs sit after each row's EOS, so no real position attends to them,
    and their targets are masked out of the loss. kv_prefix and kv_out go
    to Model.decoder_forward: the previous span's detached decode state,
    and a list that receives this span's. rng draws layer dropout.
    """
    lo, hi = span or (0, batch.inputs.shape[1])
    pad = batch.pad[:, lo:hi]
    n_tok = int((~pad).sum())
    if n_tok == 0:
        raise ValueError("batch contains no scorable targets")
    logits = model.decoder_forward(batch.inputs[:, lo:hi], training=True,
                                   rng=rng, start_pos=lo,
                                   kv_prefix=kv_prefix, kv_out=kv_out)
    rows = T.reshape(logits, (-1, logits.shape[-1]))
    loss = cross_entropy(rows, batch.targets[:, lo:hi].reshape(-1),
                         pad.reshape(-1), tally)
    return loss, n_tok


@contextmanager
def _overflow_stops(step: int):
    """Raise TrainingDivergedError for a floating-point overflow or invalid
    operation: float32 saturates silently (a layer norm of infinite
    variance returns its bias), so the loss alone can stay finite."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise TrainingDivergedError(step, str(exc)) from exc


def _apply_update(model: Model, loss: T.Tensor, lr: float,
                  cfg: TrainConfig, state: AdamState, floored: int = 0) -> float:
    """Backward and one Adam step, clipped when cfg.clip_norm is set;
    returns the pre-clip gradient norm. A non-finite loss or norm, an
    overflow in the backward, or a zero gradient while ``floored`` target
    probabilities sit under PROB_FLOOR raises TrainingDivergedError before
    any parameter moves."""
    step = state.step + 1
    if not np.isfinite(loss.values):
        raise TrainingDivergedError(step, f"the loss is {float(loss.values)}")
    params = model.parameters()
    with _overflow_stops(step):
        table, norm = clip_gradients(params, T.backward(loss), cfg.clip_norm)
    if not np.isfinite(norm):
        raise TrainingDivergedError(step, f"the gradient norm is {norm}")
    if norm == 0.0 and floored:
        # a floored target passes no gradient, and the others are certain:
        # no step can lower the loss, and Adam's momentum alone moves on
        raise TrainingDivergedError(
            step, f"the gradient is zero with {floored} target probabilities "
            f"under the floor {PROB_FLOOR}")
    adam_step(params, table, state, lr)
    return norm


METRIC_FIELDS = ("step", "lr", "loss", "tokens_per_s", "clamped", "grad_norm")


def _metrics_row(step: int, lr: float, loss: T.Tensor, n_tok: int, t0: float,
                 tally: WarningTally, grad_norm: float) -> dict:
    dt = max(time.perf_counter() - t0, 1e-9)
    row = (step, lr, float(loss.values), n_tok / dt, tally.clamped, grad_norm)
    return dict(zip(METRIC_FIELDS, row))


def _chunk_spans(width: int, n_c: Optional[int]) -> List[Tuple[int, int]]:
    n_c = n_c or width
    return [(lo, min(lo + n_c, width)) for lo in range(0, width, n_c)]


def train_lm(model: Model, segments: Sequence[Sequence[int]], cfg: TrainConfig,
             on_step: Optional[Callable[[dict], None]] = None) -> List[dict]:
    """Autoregressive training over id segments; returns per-step metrics.

    Each batch is one optimizer step. With cfg.chunk_len = n_c it is one
    step per span of n_c columns instead: a span starts from the previous
    span's decode state as a frozen history, so no gradient crosses a span
    boundary, and the spans after every row has ended take no step.

    Deterministic for a fixed seed: the segment order, batch packing,
    layer-dropout draws and every update depend only on the rng stream.
    Metric rows carry step, lr, loss, tokens/s, the running count of
    clamped target probabilities and the pre-clip gradient norm
    (METRIC_FIELDS). A floating-point overflow or invalid operation in a
    step, a non-finite loss or gradient norm, or a zero gradient while some
    target probability is under PROB_FLOOR (so every target is floored or
    certain) stops training with TrainingDivergedError.
    """
    if not segments:
        raise ValueError("no training segments")
    rng = T.Rng(cfg.seed)
    state = AdamState(cfg.beta1, cfg.beta2, cfg.eps_adam)
    tally = WarningTally()
    metrics: List[dict] = []
    batches: List[Batch] = []
    step = 0
    while step < cfg.max_steps:
        if not batches:
            batches = make_batches(segments, cfg.batch_size, rng)
        batch = batches.pop(0)
        kv_prev = None
        for lo, hi in _chunk_spans(batch.inputs.shape[1], cfg.chunk_len):
            if step >= cfg.max_steps:
                break
            if lo and batch.pad[:, lo:hi].all():
                break                        # PAD only tails rows: all ended
            step += 1
            lr = lr_schedule(step, cfg)
            t0 = time.perf_counter()
            kv_now = None if cfg.chunk_len is None else []
            clamped = tally.clamped
            with T.Tape() as tape:
                with _overflow_stops(step):
                    loss, n_tok = _batch_loss(model, batch, tally,
                                              span=(lo, hi), kv_prefix=kv_prev,
                                              kv_out=kv_now, rng=rng)
                norm = _apply_update(model, loss, lr, cfg, state,
                                     tally.clamped - clamped)
            tape.release()
            kv_prev = kv_now
            row = _metrics_row(step, lr, loss, n_tok, t0, tally, norm)
            metrics.append(row)
            if on_step is not None:
                on_step(row)
    return metrics


def metrics_to_csv(metrics: Sequence[dict]) -> str:
    """Every collected field, one row per step, under a header row."""
    lines = [",".join(METRIC_FIELDS)]
    for row in metrics:
        lines.append(",".join(f"{row[k]:.8g}" if isinstance(row[k], float)
                              else str(row[k]) for k in METRIC_FIELDS))
    return "\n".join(lines) + "\n"
