"""Decoding, checkpoints, and quantized inference.

Greedy and beam search drive Model.decode_step, so every variant's cache
discipline is reused as-is. Checkpoints are a small binary format: magic,
version, config text, vocabulary, named float32 tensors, CRC; version 1
files, which stored attention projections head by head, still load. Quantized
inference reroutes the projection/FFN weight products through integer
matmuls while everything else stays in floats.
"""

from __future__ import annotations

import contextlib
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import tensor as T
from .config import Config
from .embedding import CLS, EOS, PAD, SOS, Vocab
from .model import DecodeSession, Model, ModelConfig

MAGIC = b"SQL1"
VERSION = 2                                  # v1 stored one tensor per head

# structural ids a decoder never emits; EOS stays eligible so search can stop
_SUPPRESSED = (PAD, SOS, CLS)


class CheckpointFormatError(ValueError):
    """The file is not a checkpoint, or disagrees with its own config."""


class CheckpointIntegrityError(ValueError):
    """The file is a checkpoint but its bytes are damaged or cut short."""


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@dataclass
class SearchConfig:
    beam: int = 1
    n_max: int = 32
    alpha_len: float = 0.0                   # score / len^alpha ranking

    def __post_init__(self):
        if self.beam < 1:
            raise ValueError("beam width must be >= 1")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.alpha_len < 0:
            raise ValueError("length exponent must be >= 0")


@dataclass
class Hypothesis:
    """One candidate continuation and the session that produced it."""

    tokens: List[int]
    logprob: float                           # sum of stepwise log-probs
    session: Optional[DecodeSession]
    finished: bool = False
    dist: Optional[np.ndarray] = field(default=None, repr=False)

    def score(self, alpha: float) -> float:
        if alpha == 0.0 or not self.tokens:
            return self.logprob
        return self.logprob / len(self.tokens) ** alpha


def _seed_session(model: Model, prompt: Sequence[int],
                  source=None) -> tuple[DecodeSession, np.ndarray]:
    """Feed the start symbol plus the prompt; return the next-token dist."""
    session = model.decode_session(source)
    dist = model.decode_step(session, SOS)
    for t in prompt:
        dist = model.decode_step(session, int(t))
    return session, dist


def _pick_greedy(dist: np.ndarray) -> int:
    d = dist.copy()
    d[list(_SUPPRESSED)] = -1.0
    return int(np.argmax(d))                 # ties fall to the lowest id


def greedy_generate(model: Model, prompt: Sequence[int], cfg: SearchConfig,
                    source=None) -> List[int]:
    """Append the argmax token until EOS or exactly n_max tokens."""
    session, dist = _seed_session(model, prompt, source)
    out: List[int] = []
    while len(out) < cfg.n_max:
        tok = _pick_greedy(dist)
        out.append(tok)
        if tok == EOS or len(out) == cfg.n_max:
            break
        dist = model.decode_step(session, tok)
    return out


def beam_search(model: Model, prompt: Sequence[int], cfg: SearchConfig,
                source=None) -> List[Hypothesis]:
    """Ranked hypotheses from width-limited left-to-right search.

    Live hypotheses expand over the whole vocabulary each step; the best
    `beam` by length-normalized score survive, and any that emit EOS or
    reach n_max retire to the result pool. Scores are raw cumulative
    log-probabilities, so they match sequence scoring exactly.
    """
    session, dist = _seed_session(model, prompt, source)
    live = [Hypothesis([], 0.0, session, dist=dist)]
    pool: List[Hypothesis] = []
    while live:
        candidates = []
        for idx, hyp in enumerate(live):
            logp = np.log(np.maximum(hyp.dist.astype(np.float64), 1e-300))
            for v in range(len(model.vocab)):
                if v in _SUPPRESSED:
                    continue
                cum = hyp.logprob + float(logp[v])
                length = len(hyp.tokens) + 1
                norm = cum if cfg.alpha_len == 0.0 \
                    else cum / length ** cfg.alpha_len
                candidates.append((-norm, idx, v, cum))
        candidates.sort()
        next_live = []
        for _, idx, v, cum in candidates[:cfg.beam]:
            parent = live[idx]
            sess = parent.session.clone()
            d = model.decode_step(sess, v)
            hyp = Hypothesis(parent.tokens + [v], cum, sess, dist=d)
            if v == EOS or len(hyp.tokens) >= cfg.n_max:
                hyp.finished = True
                pool.append(hyp)
            else:
                next_live.append(hyp)
        live = next_live
    pool.sort(key=lambda h: (-h.score(cfg.alpha_len), len(h.tokens), h.tokens))
    return pool


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.at = 0

    def take(self, n: int) -> bytes:
        if self.at + n > len(self.blob):
            raise CheckpointIntegrityError("checkpoint is truncated")
        out = self.blob[self.at:self.at + n]
        self.at += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))


def _checkpoint_bytes(model: Model) -> bytes:
    parts = [MAGIC, struct.pack("<H", VERSION)]
    cfg_text = model.cfg.to_config().to_text().encode("utf-8")
    parts.append(struct.pack("<I", len(cfg_text)))
    parts.append(cfg_text)
    tokens = model.vocab.to_lines()
    parts.append(struct.pack("<I", len(tokens)))
    for tok in tokens:
        raw = tok.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    entries = list(model.named())
    parts.append(struct.pack("<I", len(entries)))
    for name, tensor in entries:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", tensor.ndim))
        for dim in tensor.shape:
            parts.append(struct.pack("<I", dim))
        parts.append(np.ascontiguousarray(
            tensor.values, dtype="<f4").tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def save_checkpoint(model: Model, path: str) -> None:
    """Write a checkpoint atomically.

    The bytes go to a temporary file beside ``path``, are flushed and
    fsynced, and only then renamed over ``path``; a write that fails
    partway leaves any previous checkpoint there intact.
    """
    blob = _checkpoint_bytes(model)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> Model:
    """Rebuild the model a checkpoint describes; tensors load bitwise.

    Bad magic or an unknown version raise CheckpointFormatError; damaged
    or truncated bytes raise CheckpointIntegrityError; a tensor table
    that disagrees with the stored configuration raises
    CheckpointFormatError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise CheckpointFormatError("not a checkpoint: bad magic bytes")
    (version,) = r.unpack("H")
    if version not in (1, VERSION):
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    if len(blob) < 8:
        raise CheckpointIntegrityError("checkpoint is truncated")
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointIntegrityError("checksum mismatch: damaged checkpoint")

    (cfg_len,) = r.unpack("I")
    cfg = ModelConfig.from_config(Config.parse(r.take(cfg_len).decode("utf-8")))
    (n_tokens,) = r.unpack("I")
    tokens = []
    for _ in range(n_tokens):
        (tok_len,) = r.unpack("H")
        tokens.append(r.take(tok_len).decode("utf-8"))
    vocab = Vocab.from_lines(tokens)

    table = {}
    (n_tensors,) = r.unpack("I")
    for _ in range(n_tensors):
        (name_len,) = r.unpack("H")
        name = r.take(name_len).decode("utf-8")
        (ndim,) = r.unpack("B")
        shape = tuple(r.unpack("I" * ndim)) if ndim else ()
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        data = np.frombuffer(r.take(4 * count), dtype="<f4").reshape(shape)
        table[name] = data
    if version == 1:
        table = _fold_v1_heads(table)

    model = Model.init(cfg, vocab, seed=0, dtype=np.float32)
    seen = set()
    for name, tensor in model.named():
        if name not in table:
            raise CheckpointFormatError(
                f"config mismatch: checkpoint lacks tensor {name!r}")
        data = table[name]
        if data.shape != tensor.shape:
            raise CheckpointFormatError(
                f"config mismatch: {name} stored as {data.shape}, "
                f"model expects {tensor.shape}")
        T.assign_(tensor, data.astype(np.float32))
        seen.add(name)
    extra = set(table) - seen
    if extra:
        raise CheckpointFormatError(
            f"config mismatch: unexpected tensors {sorted(extra)}")
    return model


_V1_HEAD = re.compile(r"(.*\.w[qkv])(\d+|_shared)")


def _fold_v1_heads(table: dict) -> dict:
    """Concatenate v1's per-head ``wq{h}``/``wk{h}``/``wk_shared``
    entries, in head order, into the fused columns of ``wq``/``wk``/``wv``."""
    heads = {}
    for name in list(table):
        match = _V1_HEAD.fullmatch(name)
        if match is not None:
            base, head = match.groups()
            heads.setdefault(base, {})[
                0 if head == "_shared" else int(head)] = table.pop(name)
    for base, blocks in heads.items():
        table[base] = np.concatenate([blocks[h] for h in sorted(blocks)], axis=1)
    return table


# ---------------------------------------------------------------------------
# quantized inference
# ---------------------------------------------------------------------------


def weight_quant_specs(model: Model, bits: int) -> dict:
    """Per-matrix quantizers for every projection and FFN weight.

    Steps follow s = max|w| / (2^(p-1) - 1), so the largest entry lands on
    the last integer level; a fused projection shares one step across its
    heads. An all-zero matrix has no usable step and maps to None; its
    products are taken as exactly zero.
    """
    q_max = (1 << (bits - 1)) - 1
    mats = []
    for layer in list(model.enc_layers) + list(model.dec_layers):
        for att in (layer.att, layer.cross):
            if att is not None:
                mats.extend([att.wq, att.wk, att.wv, att.w_out])
        core = layer.ffn_core
        if hasattr(core, "experts"):
            for expert in core.experts:
                mats.extend([expert.w_h, expert.w_f])
        else:
            mats.extend([core.w_h, core.w_f])
    specs = {}
    for w in mats:
        top = float(np.max(np.abs(w.values)))
        specs[id(w)] = None if top == 0.0 \
            else T.QuantSpec(top / q_max, bits)
    return specs


def _quant_route(specs: dict, bits: int, stats: Optional[T.QuantStats] = None):
    q_max = (1 << (bits - 1)) - 1

    def route(a: T.Tensor, b: T.Tensor):
        if id(b) not in specs:
            return None                      # not a targeted weight: floats
        spec_b = specs[id(b)]
        top = float(np.max(np.abs(a.values)))
        if spec_b is None or top == 0.0:
            dtype = np.result_type(a.dtype, b.dtype)
            return T.Tensor(np.zeros((a.shape[0], b.shape[1]), dtype=dtype))
        spec_a = T.QuantSpec(top / q_max, bits)
        return T.quantized_matmul(a, b, spec_a, spec_b, stats, stats)

    return route


def quantized_forward(model: Model, tokens: Sequence[int], bits: int = 8,
                      stats: Optional[T.QuantStats] = None) -> np.ndarray:
    """One decoder pass with integer weight products; returns raw logits."""
    specs = weight_quant_specs(model, bits)
    with T.matmul_routing(_quant_route(specs, bits, stats)):
        return model.decoder_forward(list(tokens)).values


def quantized_infer(model: Model, prompt: Sequence[int], cfg: SearchConfig,
                    bits: int = 8,
                    stats: Optional[T.QuantStats] = None) -> List[int]:
    """Greedy generation with integer projection/FFN products.

    Every weight product routes through the quantized matmul with a step
    calibrated per matrix (activations per call); layer norm, softmax,
    residuals and the output head stay in ordinary floats.
    """
    specs = weight_quant_specs(model, bits)
    out: List[int] = []
    ids = [SOS] + [int(t) for t in prompt]
    with T.matmul_routing(_quant_route(specs, bits, stats)):
        while len(out) < cfg.n_max:
            logits = model.decoder_forward(ids).values
            dist = np.exp(logits[-1] - logits[-1].max())
            tok = _pick_greedy(dist / dist.sum())
            out.append(tok)
            ids.append(tok)
            if tok == EOS:
                break
    return out
