"""Training: cross-entropy, Adam, warmup schedule, batching, chunked updates.

The loop is deliberately small: a batch is a padded (b, m) id matrix that
goes through Model.decoder_forward in one pass, and one Adam step follows
one backward pass. Chunk-wise training feeds each row to the model in
slices, handing the previous slice's detached key/value arrays to the next
one, so history is visible to attention but carries no gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .embedding import EOS, PAD, Vocab
from .model import Model

PROB_FLOOR = 1e-9


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
                 rng: Optional[T.Rng] = None,
                 sort_window: Optional[int] = None) -> List[Batch]:
    """Pack sequences into padded blocks of up to `size` rows.

    Each sequence gets an EOS appended, then PADs out to the longest row
    of its block. With an rng, the order is shuffled and then sorted by
    length inside windows of sort_window rows (default 4*size) so blocks
    waste less padding; without one the input order is kept.
    """
    if size < 1:
        raise ValueError("batch size must be >= 1")
    rows = [list(s) + [EOS] for s in seqs]
    if not rows:
        return []
    order = list(range(len(rows)))
    if rng is not None:
        order = [int(i) for i in rng.permutation(len(rows))]
        win = sort_window or 4 * size
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


def cross_entropy(probs: T.Tensor, targets, pad_mask=None,
                  tally: Optional[WarningTally] = None) -> T.Tensor:
    """Mean negative log-likelihood of the targets over non-PAD positions.

    Rows of `probs` are next-token distributions. Zero predicted
    probabilities are clamped at 1e-9 (counted on the tally) so the loss
    stays finite; through a softmax the gradient at the logits is the
    usual p - y, scaled by 1/#tokens.
    """
    ids = np.asarray(targets, dtype=np.int64)
    m = probs.shape[0]
    if ids.shape != (m,):
        raise T.ShapeError("one target per distribution row required")
    keep = np.ones(m, dtype=bool) if pad_mask is None \
        else ~np.asarray(pad_mask, dtype=bool)
    if not keep.any():
        raise ValueError("no unpadded targets to score")
    picked = T.take(probs, (np.arange(m), ids))
    if tally is not None:
        tally.clamped += int((picked.values[keep] < PROB_FLOOR).sum())
    floored = T.maximum(picked, PROB_FLOOR)
    w = T.Tensor((keep / keep.sum()).astype(probs.dtype))
    return T.reduce_sum(T.log(floored) * w) * -1.0


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
                   max_norm: float) -> Tuple[dict, float]:
    """Scale all gradients so the global L2 norm is capped at max_norm.

    Returns ({id(param): gradient}, pre-clip norm); when the norm exceeds
    the threshold the scaled global norm equals it exactly.
    """
    table = {id(p): _grad_of(grads, p) for p in params}
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in table.values())))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        table = {k: g * scale for k, g in table.items()}
    return table, norm


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _batch_loss(model: Model, batch: Batch,
                tally: WarningTally) -> Tuple[T.Tensor, int]:
    """Mean NLL over every non-PAD target in the batch.

    One causal forward over the whole (b, m) id matrix: PAD inputs sit
    after each row's EOS, so no real position attends to them, and their
    targets are masked out of the loss.
    """
    if batch.n_tokens == 0:
        raise ValueError("batch contains no scorable targets")
    logits = model.decoder_forward(batch.inputs)
    rows = T.reshape(logits, (-1, logits.shape[-1]))
    loss = cross_entropy(T.softmax_rows(rows), batch.targets.reshape(-1),
                         batch.pad.reshape(-1), tally)
    return loss, batch.n_tokens


def _apply_update(model: Model, loss: T.Tensor, lr: float,
                  cfg: TrainConfig, state: AdamState) -> None:
    grads = T.backward(loss)
    params = model.parameters()
    if cfg.clip_norm is not None:
        table, _ = clip_gradients(params, grads, cfg.clip_norm)
        adam_step(params, table, state, lr)
    else:
        adam_step(params, grads, state, lr)


METRIC_FIELDS = ("step", "lr", "loss", "tokens_per_s", "clamped")


def _metrics_row(step: int, lr: float, loss: T.Tensor, n_tok: int, t0: float,
                 tally: WarningTally) -> dict:
    dt = max(time.perf_counter() - t0, 1e-9)
    row = (step, lr, float(loss.values), n_tok / dt, tally.clamped)
    return dict(zip(METRIC_FIELDS, row))


def train_lm(model: Model, segments: Sequence[Sequence[int]], cfg: TrainConfig,
             on_step: Optional[Callable[[dict], None]] = None) -> List[dict]:
    """Autoregressive training over id segments; returns per-step metrics.

    Deterministic for a fixed seed: the segment order, batch packing and
    every update depend only on the rng stream. Metric rows carry step,
    lr, loss, tokens/s and the running count of clamped target
    probabilities (METRIC_FIELDS).
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
        step += 1
        lr = lr_schedule(step, cfg)
        t0 = time.perf_counter()
        with T.Tape() as tape:
            loss, n_tok = _batch_loss(model, batch, tally)
            _apply_update(model, loss, lr, cfg, state)
        tape.release()
        row = _metrics_row(step, lr, loss, n_tok, t0, tally)
        metrics.append(row)
        if on_step is not None:
            on_step(row)
    return metrics


# -- chunk-wise training ------------------------------------------------------


def _chunk_spans(width: int, n_c: int) -> List[Tuple[int, int]]:
    return [(lo, min(lo + n_c, width)) for lo in range(0, width, n_c)]


def chunked_row_losses(model: Model, inputs: np.ndarray, targets: np.ndarray,
                       pad: np.ndarray, n_c: int,
                       tally: Optional[WarningTally] = None) -> List[T.Tensor]:
    """Per-chunk mean NLL for one row, chaining detached key/value history.

    Each chunk sees the previous chunk's cached keys/values; the returned
    chunk losses share no tape edges across chunks, so optimizing one
    never moves anything through the history.
    """
    losses = []
    kv_prev = None
    for lo, hi in _chunk_spans(inputs.shape[0], n_c):
        keep = ~pad[lo:hi]
        kv_now: list = []
        logits = model.decoder_forward(inputs[lo:hi], start_pos=lo,
                                       kv_prefix=kv_prev, kv_out=kv_now)
        if keep.any():
            probs = T.softmax_rows(logits)
            losses.append(cross_entropy(probs, targets[lo:hi], pad[lo:hi],
                                        tally))
        kv_prev = kv_now
    return losses


def train_chunked(model: Model, segments: Sequence[Sequence[int]],
                  cfg: TrainConfig,
                  on_step: Optional[Callable[[dict], None]] = None) -> List[dict]:
    """Chunk-wise training: one optimizer step per chunk column of a batch.

    With chunk_len >= the segment width there is exactly one chunk, and
    the loop reproduces train_lm update for update.
    """
    if cfg.chunk_len is None:
        raise ValueError("chunked training needs chunk_len")
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
        width = batch.inputs.shape[1]
        kv_prev: List[Optional[list]] = [None] * batch.inputs.shape[0]
        for lo, hi in _chunk_spans(width, cfg.chunk_len):
            if step >= cfg.max_steps:
                break
            keep = ~batch.pad[:, lo:hi]
            n_tok = int(keep.sum())
            if n_tok == 0:
                continue
            step += 1
            lr = lr_schedule(step, cfg)
            t0 = time.perf_counter()
            with T.Tape() as tape:
                loss = None
                kv_next: List[Optional[list]] = [None] * batch.inputs.shape[0]
                for r in range(batch.inputs.shape[0]):
                    kv_now: list = []
                    logits = model.decoder_forward(
                        batch.inputs[r, lo:hi], start_pos=lo,
                        kv_prefix=kv_prev[r], kv_out=kv_now)
                    kv_next[r] = kv_now
                    n_row = int(keep[r].sum())
                    if n_row == 0:
                        continue
                    probs = T.softmax_rows(logits)
                    part = cross_entropy(probs, batch.targets[r, lo:hi],
                                         batch.pad[r, lo:hi], tally)
                    part = part * (n_row / n_tok)
                    loss = part if loss is None else loss + part
                _apply_update(model, loss, lr, cfg, state)
            tape.release()
            kv_prev = kv_next
            row = _metrics_row(step, lr, loss, n_tok, t0, tally)
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
