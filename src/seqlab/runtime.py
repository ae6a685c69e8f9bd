"""Decoding, checkpoints, and quantized inference.

Greedy and beam search drive Model.decode_step, so every variant's cache
discipline is reused as-is. Greedy search drafts the tokens likely to come
next by copying from its own prompt and output, verifies a draft in one
cached block and rewinds the rejected rest out of the session (speculative
decoding, Leviathan et al., 2023, with LLMA's copied drafts, Yang et al.,
2023), whatever state the model's layers carry; beam search feeds one id
per row and step. Checkpoints are a small binary format: magic,
version, config text, vocabulary, named float32 tensors, CRC. Version 3
stores each attention block's fused ``w_qkv``; version 2 files, which
stored ``wq``/``wk``/``wv`` apart, and version 1 files, which stored them
head by head, still load. Quantized inference is the same decoding inside
the ``quantized`` context, which reroutes the projection/FFN weight
products through integer matmuls (one step per weight matrix, or per
projection block of a fused one, and one per activation row) while
everything else stays in floats. The weights' steps and integer levels
are derived once and kept on the model, per width, until a parameter is
assigned or a weight replaced, so a product quantizes only its
activation rows.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import tensor as T
from .attention import qkv_blocks
from .config import Config
from .embedding import CLS, EOS, PAD, SOS, Vocab
from .model import DecodeSession, Model, ModelConfig

MAGIC = b"SQL1"
VERSION = 3          # v2 stored wq/wk/wv apart, v1 one tensor per head

# structural ids a decoder never emits; EOS stays eligible so search can stop
_SUPPRESSED = (PAD, SOS, CLS)
_SUPPRESSED_IDS = np.array(_SUPPRESSED)

# greedy search's drafts (see _Drafter): the match key's length, the
# longest draft, and the first and the longest pause after a draft's
# first token fails
_NGRAM = 2
_DRAFT_CAP = 8
_BACKOFF_FIRST = 2
_BACKOFF_CAP = 32


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
    """One finished candidate continuation."""

    tokens: List[int]
    logprob: float                           # sum of stepwise log-probs

    def score(self, alpha: float) -> float:
        if alpha == 0.0 or not self.tokens:
            return self.logprob
        return self.logprob / len(self.tokens) ** alpha


def _seed_session(model: Model, prompt: Sequence[int],
                  source=None) -> tuple[DecodeSession, np.ndarray]:
    """Feed the start symbol plus the prompt as one block; return the
    session and the next-token distribution."""
    session = model.decode_session(source)
    block = np.asarray([[SOS] + [int(t) for t in prompt]], dtype=np.int64)
    return session, model.decode_step(session, block)[0, -1]


def _pick_greedy(dist: np.ndarray):
    """The argmax id of a distribution, or the list of them of a stack of
    distributions, over the ids a decoder may emit."""
    d = dist.copy()
    d[..., _SUPPRESSED_IDS] = -1.0
    return d.argmax(-1).tolist()             # ties fall to the lowest id


class _Drafter:
    """Guesses of the tokens greedy search is about to emit, copied from
    the context (prompt plus output) after an earlier occurrence of its
    last _NGRAM tokens, as LLMA does (Yang et al., 2023). ``follow`` maps
    every N-gram of the context to the position after its latest
    occurrence and is updated once per token, so a lookup costs the same
    however long the context grows. A match whose copy runs past the end
    of the context repeats the copied span (the draft reads back into
    itself).

    The draft length adapts: +2 after a draft accepted whole, -1 after
    any other, between 1 and _DRAFT_CAP. After a draft whose first token
    is rejected, drafting pauses for _BACKOFF_FIRST steps, twice as many
    after each further such draft, up to _BACKOFF_CAP, and back at
    _BACKOFF_FIRST once a draft's first token is accepted. A rejected
    draft costs about one step, so this keeps a drafter that is always
    wrong within a few percent of one-token decoding.
    """

    def __init__(self, prompt: Sequence[int]):
        self.ctx: List[int] = []
        self.follow: dict = {}
        self.start = len(prompt)                 # output starts here in ctx
        self.size = _DRAFT_CAP
        self.wait = 0                            # steps left without drafts
        self.backoff = _BACKOFF_FIRST
        self._extend(prompt)

    def _extend(self, tokens) -> None:
        ctx, follow = self.ctx, self.follow
        for tok in tokens:
            if len(ctx) >= _NGRAM:
                follow[tuple(ctx[-_NGRAM:])] = len(ctx)
            ctx.append(int(tok))

    def propose(self, out: List[int], limit: int) -> List[int]:
        """Up to ``limit`` draft tokens to follow ``out``, the output so
        far; none while backing off or when the last N-gram is new."""
        self._extend(out[len(self.ctx) - self.start:])
        if self.wait:
            self.wait -= 1
            return []
        at = self.follow.get(tuple(self.ctx[-_NGRAM:]))
        k = min(self.size, limit)
        if at is None or k < 1:
            return []
        period = self.ctx[at:]
        draft = (period * -(-k // len(period)))[:k]
        cut = [j for j, tok in enumerate(draft) if tok in _SUPPRESSED]
        return draft[:cut[0]] if cut else draft

    def update(self, drafted: int, accepted: int) -> None:
        """Adapt to a draft of ``drafted`` tokens, ``accepted`` kept."""
        self.size = min(self.size + 2, _DRAFT_CAP) if accepted == drafted \
            else max(self.size - 1, 1)
        if accepted:
            self.backoff = _BACKOFF_FIRST
        else:
            self.wait = self.backoff
            self.backoff = min(2 * self.backoff, _BACKOFF_CAP)


def greedy_generate(model: Model, prompt: Sequence[int], cfg: SearchConfig,
                    source=None) -> List[int]:
    """Append the argmax token until EOS or exactly n_max tokens.

    Each pass feeds the last token picked together with the draft of the
    tokens that may follow it (``_Drafter``), as one block of a cached
    decode step. A draft token is kept while it equals the argmax of the
    row before it; the row after the last kept one picks the next token,
    and the positions of the rejected rest are rewound out of the
    session, every layer kind's state alike (a KV cache, kernel sums or
    an SSM state). The tokens are those of one step per token, the
    block's rows being that step's distributions up to floating-point
    rounding (a float32 near tie can go the other way). A pass without a
    draft is a one-id step. The output stops at EOS or at n_max tokens,
    and the decoder is never fed the n_max-th.
    """
    session, dist = _seed_session(model, prompt, source)
    drafter = _Drafter(prompt)
    out = [_pick_greedy(dist)]
    while out[-1] != EOS and len(out) < cfg.n_max:
        draft = drafter.propose(out, cfg.n_max - len(out) - 1)
        if not draft:
            out.append(_pick_greedy(model.decode_step(session, out[-1])))
            continue
        block = np.array([[out[-1]] + draft], dtype=np.int64)
        picks = _pick_greedy(model.decode_step(session, block)[0])
        kept = 0                             # draft tokens the rows confirm
        while kept < len(draft) and picks[kept] == draft[kept] != EOS:
            kept += 1
        drafter.update(len(draft), kept)
        out += picks[:kept + 1]
        session.rewind(len(draft) - kept)
    return out


def _top_k(scores: np.ndarray, k: int) -> List[int]:
    """Indices of the k largest scores, largest first; of equal scores the
    lower index comes first, the order a stable sort cut to k gives (that
    of ``heapq.nlargest``). Each pick is one argmax over a float64 copy in
    which the picks so far are -inf, so with scores above -inf no pick
    repeats. numpy's sorts are not used: loading their kernels costs
    about 1 MB of resident memory."""
    left = scores.astype(np.float64)         # a copy: picks are masked out
    picks = []
    for _ in range(min(k, left.size)):
        i = int(left.argmax())
        picks.append(i)
        left[i] = -np.inf
    return picks


def beam_search(model: Model, prompt: Sequence[int], cfg: SearchConfig,
                source=None) -> List[Hypothesis]:
    """Ranked hypotheses from width-limited left-to-right search.

    Live hypotheses expand over the whole vocabulary each step; the best
    `beam` by length-normalized score survive, ties going to the earlier
    parent and then the lower token id. Any that emit EOS or reach n_max
    retire to the result pool without another step. The rest are rows of
    one decode session, gathered from their parents' rows and advanced by
    one batched step. Scores are raw cumulative log-probabilities, so they
    match sequence scoring exactly.
    """
    session, dist = _seed_session(model, prompt, source)
    allowed = np.ones(len(model.vocab), dtype=bool)
    allowed[list(_SUPPRESSED)] = False
    allowed = np.flatnonzero(allowed)
    tokens: List[List[int]] = [[]]           # one per session row
    logprob = np.zeros(1)
    dists = dist[None, :]
    pool: List[Hypothesis] = []
    while True:
        length = len(tokens[0]) + 1
        cum = logprob[:, None] + np.log(np.maximum(dists[:, allowed], 1e-300))
        norm = cum if cfg.alpha_len == 0.0 else cum / length ** cfg.alpha_len
        # the flattening is (parent, token) order, so ties go to the
        # earlier parent, then the lower token
        parents, grown, scores = [], [], []
        for i in _top_k(norm.ravel(), cfg.beam):
            parent, col = divmod(i, allowed.size)
            tok = int(allowed[col])
            seq, score = tokens[parent] + [tok], float(cum[parent, col])
            if tok == EOS or length >= cfg.n_max:
                pool.append(Hypothesis(seq, score))
            else:
                parents.append(parent)
                grown.append(seq)
                scores.append(score)
        if not parents:
            break
        tokens, logprob = grown, np.array(scores)
        session.select(parents)
        dists = model.decode_step(session, np.array(grown)[:, -1:])[:, 0]
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
    or truncated bytes raise CheckpointIntegrityError; contents that pass
    the checksum but do not parse, a config key the model does not know,
    and a tensor table that disagrees with the stored configuration, raise
    CheckpointFormatError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise CheckpointFormatError("not a checkpoint: bad magic bytes")
    (version,) = r.unpack("H")
    if version not in (1, 2, VERSION):
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    if len(blob) < 8:
        raise CheckpointIntegrityError("checkpoint is truncated")
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointIntegrityError("checksum mismatch: damaged checkpoint")
    try:
        return _read_model(r, version)
    except (CheckpointFormatError, CheckpointIntegrityError):
        raise
    except ValueError as exc:                # bad text, config or vocab
        raise CheckpointFormatError(f"malformed checkpoint: {exc}") from exc


def _read_model(r: _Reader, version: int) -> Model:
    (cfg_len,) = r.unpack("I")
    stored = Config.parse(r.take(cfg_len).decode("utf-8"))
    unknown = set(stored.keys()) - {key for _, key, _ in ModelConfig._KEYS} \
        - {"share.groups"}
    if unknown:
        raise CheckpointFormatError(f"unknown config keys {sorted(unknown)}")
    cfg = ModelConfig.from_config(stored)
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
        count = math.prod(shape)
        data = np.frombuffer(r.take(4 * count), dtype="<f4").reshape(shape)
        table[name] = data
    if version < VERSION:
        table = _fold_projections(table)

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
_V2_PROJECTION = re.compile(r"(.*\.)w([qkv])")


def _fold_projections(table: dict) -> dict:
    """Fold older projection entries into v3's ``w_qkv``: v1's per-head
    ``wq{h}``/``wk{h}``/``wk_shared`` are concatenated, in head order, into
    v2's ``wq``/``wk``/``wv``, and a block's three v2 entries into the
    columns [wq | wk | wv] of its ``w_qkv``. A block missing one of the
    three keeps the others, and the loader reports the mismatch."""
    heads = {}
    for name in list(table):
        match = _V1_HEAD.fullmatch(name)
        if match is not None:
            base, head = match.groups()
            heads.setdefault(base, {})[
                0 if head == "_shared" else int(head)] = table.pop(name)
    for base, blocks in heads.items():
        table[base] = np.concatenate([blocks[h] for h in sorted(blocks)], axis=1)
    blocks = {}
    for name in table:
        match = _V2_PROJECTION.fullmatch(name)
        if match is not None:
            blocks.setdefault(match.group(1), set()).add(match.group(2))
    for prefix, roles in blocks.items():
        if roles == {"q", "k", "v"}:
            table[prefix + "w_qkv"] = np.concatenate(
                [table.pop(prefix + "w" + r) for r in "qkv"], axis=1)
    return table


# ---------------------------------------------------------------------------
# quantized inference
# ---------------------------------------------------------------------------


_QUANT_ROLES = ("w_qkv", "w_out", "w_h", "w_f")


class WeightSpecs(dict):
    """``weight_quant_specs``' table, id(weight) -> QuantSpec or None, kept
    on the model with what ``_quant_route`` derives from it once per weight
    or column block: ``levels`` maps (id(weight), cols) to the weight (or
    the block), its QuantSpec and its integer levels with their saturation
    count. ``stamp`` is the ``T.param_stamp`` of the targeted weights
    the table was derived from."""

    def __init__(self, specs: dict, stamp: tuple):
        super().__init__(specs)
        self.stamp = stamp
        self.levels = {}


def weight_quant_specs(model: Model, bits: int) -> WeightSpecs:
    """Per-matrix quantizers for every projection and FFN weight.

    Steps follow s = max|w| / (2^(p-1) - 1), so the largest entry lands on
    the last integer level; a projection shares one step across its heads.
    A fused ``w_qkv`` gets a row of per-column steps in which each of its
    W^q, W^k and W^v blocks keeps its own step, so its levels and products
    are those of three separate matrices; an all-zero block has step 1
    (its levels and products are zero). An all-zero matrix has no usable
    step and maps to None; its products are taken as exactly zero.

    The table is kept on the model, one per width, and derived again once
    a parameter has been assigned (``T.assign_``) or a targeted weight
    replaced, so a checkpoint load or a training step never leaves it,
    or the levels kept with it, stale.
    """
    if bits < 2:
        raise ValueError(f"quantization needs at least 2 bits, got {bits}")
    named = [(name, w) for name, w in model.named()
             if name.rsplit(".", 1)[-1] in _QUANT_ROLES]
    stamp = T.param_stamp(*(w for _, w in named))
    table = model._quant.get(bits)
    if table is not None and table.stamp == stamp:
        return table
    q_max = (1 << (bits - 1)) - 1
    specs = {}
    for name, w in named:
        if name.endswith(".w_qkv"):
            steps = np.empty((1, w.shape[1]))
            for lo, hi in qkv_blocks(w.shape):
                top = float(np.max(np.abs(w.values[:, lo:hi])))
                steps[:, lo:hi] = top / q_max if top else 1.0
            specs[id(w)] = T.QuantSpec(steps, bits)
        else:
            top = float(np.max(np.abs(w.values)))
            specs[id(w)] = None if top == 0.0 \
                else T.QuantSpec(top / q_max, bits)
    table = model._quant[bits] = WeightSpecs(specs, stamp)
    return table


def _quant_route(specs: WeightSpecs, bits: int,
                 stats: Optional[T.QuantStats] = None):
    """Matmul routing through ``T.quantized_matmul``. Each targeted weight,
    or column block of one, is quantized at its first product and kept in
    ``specs.levels``, so later contexts reuse it; a column-block product
    quantizes, and counts, its block's columns. A product then quantizes
    only its activation rows, each with its own step max|row| / q_max
    (any step zeroes an all-zero row)."""
    prepared = specs.levels

    def route(a: T.Tensor, b: T.Tensor, cols: Optional[tuple] = None):
        key = id(b), cols
        entry = prepared.get(key)
        if entry is None:
            if id(b) not in specs:
                return None                  # not a targeted weight: floats
            entry = prepared[key] = _prepare(b, specs[id(b)], cols, bits)
        w, spec, levels = entry
        if spec is None:
            return T.Tensor(np.zeros(a.shape[:-1] + w.shape[1:],
                                     np.result_type(a.dtype, w.dtype)))
        return T.quantized_matmul(a, w, None, spec, stats, stats,
                                  levels_b=levels)

    return route


def _prepare(b: T.Tensor, spec: Optional[T.QuantSpec], cols: Optional[tuple],
             bits: int) -> tuple:
    """(weight or its column block, its QuantSpec, its levels) of one
    targeted weight; the block is a constant reading b's columns."""
    w = b if cols is None else T.Tensor(b.values[:, slice(*cols)])
    if spec is None:
        return w, None, None
    step = spec.step
    if cols is not None and np.ndim(step):
        step = step[:, slice(*cols)]
    # a float64 0-d array or row: numpy takes it faster than a float
    spec = T.QuantSpec(np.asarray(step, np.float64), bits)
    return w, spec, T.quantize_levels(w.values, spec)


@contextlib.contextmanager
def quantized(model: Model, bits: int, stats: Optional[T.QuantStats] = None):
    """Integer projection/FFN weight products for every forward pass,
    decode step and search inside the context; layer norm, softmax,
    residuals and the output head stay in floats. The weights' steps and
    levels come from the model's kept table (``weight_quant_specs``), so
    a context on unchanged weights quantizes no weight. ``stats`` counts
    the entries of every activation row quantized, so a greedy search's
    counts include the rows of the draft tokens it rejected."""
    specs = weight_quant_specs(model, bits)
    with T.matmul_routing(_quant_route(specs, bits, stats)):
        yield


def quantized_infer(model: Model, prompt: Sequence[int], cfg: SearchConfig,
                    bits: int = 8,
                    stats: Optional[T.QuantStats] = None) -> List[int]:
    """Cached greedy generation inside ``quantized``. With one step per
    activation row, a cached step quantizes each position as a re-run of
    the whole prefix would."""
    with quantized(model, bits, stats):
        return greedy_generate(model, prompt, cfg)
