"""The benchmark workloads, driven through seqlab's public API.

Each workload is a closed loop with one caller: the next step or request
starts when the previous one returns. ``setup`` builds everything the
timed loop needs (corpus, vocabulary, models, a checkpoint round trip,
warm-up) and may be called repeatedly; ``run`` times operations; ``check``
verifies their outputs outside the timed region; ``metrics`` and
``trace_metrics`` turn timings and spans into named results.

Every workload reports the same metrics, per *op*: a training step, or a
decode round of one request of each kind. Anything specific to one
workload (per-kind request times, cache or tape layers) is a detail,
printed and recorded but not part of the result line.

The workload seed picks the data order and the prompts; model weights
come from fixed seeds, so every seed measures the same models.
"""

from __future__ import annotations

import importlib.resources
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from seqlab import embedding as E
from seqlab import model as M
from seqlab import runtime as R
from seqlab import tensor as T
from seqlab import train as TR

import tracing

# the acceptance suite's char-LM shape (criterion 10): post-norm, d=64,
# 2 layers, 4 heads, FFN 256; every model in the benchmark has it
SHAPE = dict(d=64, n_layers=2, tau=4, d_ffn=256, placement="post")
MIN_SAMPLES = 100                           # per timing: ten beyond its p90
PROMPT_CHARS = 6
SOURCE_CHARS = 14
SUPPRESSED = (E.PAD, E.SOS, E.CLS)          # ids greedy decoding never emits
LOGIT_TOL = 1e-4                            # float32 cached vs uncached logits
QUANT16_TIE = 1e-3                          # float logit gap counted as a tie
BEAM_TOL_PER_TOKEN = 2e-5                   # float32 log-prob drift per token


class _Stop(Exception):
    """Raised from the training callback to end a timed loop."""


@dataclass
class Op:
    """One timed operation: a training step or a decode request."""

    kind: str
    start: float
    end: float
    tokens: int
    output: object = None
    inputs: tuple = ()
    ok: bool = True

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Checked:
    attempted: int
    failed: int
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# arithmetic shared by every workload
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def timing(values_ms) -> dict:
    return {"p50": statistics.median(values_ms), "p90": percentile(values_ms, 90),
            "n": len(values_ms)}


def corpus_text() -> str:
    return (importlib.resources.files("seqlab") / "data" / "corpus.txt").read_text()


def ordinary_ids(vocab) -> list:
    return [v for v in range(len(vocab))
            if v not in (E.PAD, E.SOS, E.EOS, E.CLS)]


def suppress_eos(model: M.Model) -> None:
    """Make the EOS logit the mean of the ordinary tokens' logits.

    The logit is linear in the head column, so it can never exceed the
    largest ordinary logit and greedy decoding never stops early, whatever
    the hidden state. Beam search ranks EOS mid-vocabulary.
    """
    w = model.w_o.values.copy()
    w[:, E.EOS] = w[:, ordinary_ids(model.vocab)].mean(axis=1)
    T.assign_(model.w_o, w)


def round_trip(model: M.Model, path: str) -> M.Model:
    R.save_checkpoint(model, path)
    try:
        return R.load_checkpoint(path)
    finally:
        os.remove(path)


def same_weights(a: M.Model, b: M.Model) -> bool:
    pa, pb = dict(a.named()), dict(b.named())
    return pa.keys() == pb.keys() and all(
        pa[k].values.dtype == pb[k].values.dtype
        and np.array_equal(pa[k].values, pb[k].values) for k in pa)


def slices(text: str, vocab, rng, n: int, width: int) -> list:
    """n corpus substrings of ``width`` characters, encoded.

    The width is fixed so that the seed changes what is decoded, never
    how much work a request does.
    """
    at = rng.integers(0, len(text) - width, size=n)
    return [vocab.encode(text[a:a + width]) for a in at]


def greedy_agrees(model, prompt, out, enc_out=None) -> bool:
    """Every emitted token is an argmax of the uncached forward pass.

    One causal forward over [SOS] + prompt + out[:-1] gives, at row
    len(prompt) + i, the logits that chose out[i]. A token within
    LOGIT_TOL of the row maximum counts as an argmax, so a float32 near
    tie between the cached and uncached arithmetic is not a failure.
    """
    ids = [E.SOS] + list(prompt) + list(out[:-1])
    logits = model.decoder_forward(ids, enc_out).values.astype(np.float64)
    rows = logits[len(prompt):len(prompt) + len(out)]
    rows[:, list(SUPPRESSED)] = -np.inf
    picked = rows[np.arange(len(out)), np.asarray(out)]
    return bool(np.all(picked >= rows.max(axis=1) - LOGIT_TOL))


def _probe(seed: int, ops, kind: str) -> Op:
    """The seed's choice among the ops of one kind."""
    mine = [op for op in ops if op.kind == kind]
    return mine[int(np.random.default_rng(seed).integers(0, len(mine)))]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    round_size = 1                          # requests per op
    trace_rounds = 0                        # ops traced in a --trace 1 run
    min_rounds = MIN_SAMPLES                # a timed run never stops short

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.ckpt_path = os.path.join(scratch, f"{self.name}-{os.getpid()}.ckpt")

    def run(self, seconds: Optional[float] = None, count: Optional[int] = None,
            mark: Optional[Callable[[int], None]] = None) -> list:
        """Time requests for ``seconds``, or ``count`` requests.

        A timed run does at least ``min_rounds`` ops and ends on a whole
        round.
        """
        deadline = None if seconds is None else time.perf_counter() + seconds
        ops = []
        i = 0
        while (count is None or i < count) and (
                deadline is None or i < self.min_rounds * self.round_size
                or i % self.round_size or time.perf_counter() < deadline):
            if mark is not None:
                mark(i)
            ops.append(self.request(i))
            i += 1
        return ops

    def trace_metrics(self, spans, plain, units) -> tuple:
        """Per-layer metrics and details from the spans of the traced ops.

        ``units`` maps request id -> traced request; ``plain`` are the
        untraced requests run alongside, the base of the overhead ratio.
        Checkpoint times come from the set-up spans.
        """
        selfs = tracing.self_times(spans)
        prof = tracing.Profile(spans, selfs, units)
        out = layer_metrics(prof, len(units) / self.round_size)
        windows = {i: (op.start, op.end) for i, op in units.items()}
        out["trace.unattributed_share"] = (prof.unattributed(windows), "ratio")
        out["trace.overhead_ratio"] = (
            statistics.mean(op.seconds for op in units.values())
            / statistics.mean(op.seconds for op in plain), "ratio")
        details = self.layer_details(prof, spans, selfs, units)
        for name in ("runtime.save_checkpoint", "runtime.load_checkpoint"):
            durs = [e - s for (n, s, e, _, _, _) in spans if n == name]
            details[f"{name}.ms"] = (
                1e3 * statistics.median(durs) if durs else 0.0, "ms")
        return out, details

    def op_seconds(self, ops) -> list:
        """Wall time of each op: a step, or a round from its first request's
        start to its last one's end."""
        k = self.round_size
        return [ops[i + k - 1].end - ops[i].start
                for i in range(0, len(ops) - k + 1, k)]

    def metrics(self, ops, setup_s: float, peak_mb: float) -> dict:
        """The end-to-end metrics: name -> (value, unit, samples)."""
        op_ms = [1e3 * s for s in self.op_seconds(ops)]
        return {"setup_s": (setup_s, "s", None),
                "peak_rss_mb": (peak_mb, "MB", None),
                "op_ms_p85": (percentile(op_ms, 85), "ms", len(op_ms))}

    def details(self, ops) -> dict:
        """Timings that are not in the result line, in the same form."""
        wall = ops[-1].end - ops[0].start
        t = timing([1e3 * s for s in self.op_seconds(ops)])
        return {"tokens_per_s": (sum(op.tokens for op in ops) / wall,
                                 "tokens/s", len(ops)),
                "op_ms_p50": (t["p50"], "ms", t["n"]),
                "op_ms_p90": (t["p90"], "ms", t["n"])}


class TrainCharLM(Workload):
    """train.train_lm on the bundled corpus with the criterion-10 config."""

    name = "train-charlm"
    trace_rounds = 100
    TOKENS_PER_STEP = 8 * 64

    def setup(self):
        text = corpus_text()
        self.vocab = E.Vocab.from_text(text)
        # full-length segments only, a whole number of batches: every step
        # trains exactly 8 rows of 64 targets
        segs = [s for s in TR.segments_from_text(text, self.vocab, 64)
                if len(s) == 64]
        self.segments = segs[:len(segs) - len(segs) % 8]
        fresh = M.Model.init(M.ModelConfig(**SHAPE), self.vocab, seed=0)
        self.model = round_trip(fresh, self.ckpt_path)
        self.initial = [p.values.copy() for p in self.model.parameters()]
        TR.train_lm(fresh, self.segments, self._config(2))      # warm-up

    def _config(self, steps: int) -> TR.TrainConfig:
        return TR.TrainConfig(lr0=0.2, n_warmup=400, batch_size=8,
                              max_steps=steps, seed=self.seed, seq_len=64)

    def run(self, seconds=None, count=None, mark=None):
        for p, v in zip(self.model.parameters(), self.initial):
            T.assign_(p, v)
        deadline = None if seconds is None else time.perf_counter() + seconds
        ops = []
        last = [0.0]

        def on_step(row):
            now = time.perf_counter()
            ops.append(Op("step", last[0], now, self.TOKENS_PER_STEP,
                          row["loss"]))
            last[0] = now
            if (count is not None and len(ops) >= count) or (
                    deadline is not None and now >= deadline
                    and len(ops) >= self.min_rounds):
                raise _Stop
            if mark is not None:
                mark(len(ops))

        if mark is not None:
            mark(0)
        last[0] = time.perf_counter()
        try:
            TR.train_lm(self.model, self.segments, self._config(10 ** 9),
                        on_step=on_step)
        except _Stop:
            pass
        return ops

    def check(self, ops) -> Checked:
        """Finite losses, the criterion-10 start, a bitwise checkpoint.

        The checkpoint round trip of the trained model is one extra op.
        """
        for op in ops:
            op.ok = math.isfinite(op.output)
        ln_v = math.log(len(self.vocab))
        ops[0].ok &= abs(ops[0].output - ln_v) / ln_v <= 0.05
        bitwise = same_weights(self.model,
                               round_trip(self.model, self.ckpt_path))
        notes = [f"first loss {ops[0].output:.4f} vs ln|V| {ln_v:.4f}",
                 f"trained checkpoint round-trips bitwise: {bitwise}"]
        return Checked(len(ops) + 1,
                       sum(not op.ok for op in ops) + (not bitwise), notes)

    def layer_details(self, prof, spans, selfs, units) -> dict:
        n = len(units)
        out = {
            "tensor.tape.records_per_step": (
                prof.counted("tensor.backward") / n, "count"),
            "tensor.matmul.madds_per_step": (
                prof.counted("tensor.matmul") / n, "computed_madd"),
            "tensor.matmul.gflops": _gflops(prof),
            "model.decoder_forward.calls_per_step": (
                prof.n_calls("model.decoder_forward") / n, "count"),
            "attention.qkv_attention.calls_per_step": (
                prof.n_calls("attention.qkv_attention") / n, "count"),
            "tensor.matmul.calls_per_step": (
                prof.n_calls("tensor.matmul") / n, "count"),
            "python.gc.pause_ms_per_step": (
                1e3 * prof.total_s.get(tracing.GC_SPAN, 0.0) / n, "ms"),
            "python.gc.gen2_collections": (prof.gen2, "count"),
        }
        for name in ("tensor.backward", "tensor.matmul", "tensor.softmax_rows",
                     "attention.multi_head_self", "blocks.layer_norm",
                     "blocks.ffn", "model.decoder_forward", "train.adam_step",
                     "train.cross_entropy", "train.make_batches"):
            out[f"{name}.self_ms_per_step"] = (prof.self_ms(name) / n, "ms")
        return out


def _module_self_ms(prof, module: str) -> float:
    return prof.self_ms(*(n for n in prof.self_s
                          if n.startswith(module + ".")))


def layer_metrics(prof, n_ops: float) -> dict:
    """The per-layer metrics every workload reports, per op.

    Each layer named here runs in every workload, so a change to it shows
    on both, and a change to a layer only one workload reaches (the tape,
    the KV cache) shows in its module's self time on that one.
    """
    out = {
        "tensor.matmul.calls_per_op": (
            prof.n_calls("tensor.matmul") / n_ops, "count"),
        "tensor.matmul.madds_per_op": (
            prof.counted("tensor.matmul") / n_ops, "computed_madd"),
        "tensor.matmul.gflops": _gflops(prof),
        "attention.qkv_attention.calls_per_op": (
            prof.n_calls("attention.qkv_attention") / n_ops, "count"),
        "model.decoder_forward.calls_per_op": (
            prof.n_calls("model.decoder_forward") / n_ops, "count"),
        "model.decoder_forward.positions_per_op": (
            prof.counted("model.decoder_forward") / n_ops, "count"),
        "python.gc.pause_ms_per_op": (
            1e3 * prof.total_s.get(tracing.GC_SPAN, 0.0) / n_ops, "ms"),
        "python.gc.collections_per_op": (
            prof.n_calls(tracing.GC_SPAN) / n_ops, "count"),
    }
    for module in ("tensor", "attention", "blocks", "model"):
        out[f"{module}.self_ms_per_op"] = (
            _module_self_ms(prof, module) / n_ops, "ms")
    for name in ("tensor.matmul", "tensor.softmax_rows",
                 "attention.qkv_attention", "blocks.layer_norm", "blocks.ffn"):
        out[f"{name}.self_ms_per_op"] = (prof.self_ms(name) / n_ops, "ms")
    return out


def _gflops(prof) -> tuple:
    s = prof.self_s.get("tensor.matmul", 0.0)
    return (2.0 * prof.counted("tensor.matmul") / s / 1e9 if s else 0.0,
            "GFLOP/s")


def _decode_layer_metrics(prof, tokens: int) -> dict:
    """Per-token costs every cached decode path shares."""
    keys = ("attention.KVCache.keys", "attention.KVCache.values_")
    out = {
        "tensor.matmul.calls_per_token": (
            prof.n_calls("tensor.matmul") / tokens, "count"),
        "tensor.matmul.madds_per_token": (
            prof.counted("tensor.matmul") / tokens, "computed_madd"),
        "tensor.matmul.gflops": _gflops(prof),
        "attention.KVCache.keys.self_ms_per_token": (
            prof.self_ms(*keys) / tokens, "ms"),
        "attention.KVCache.keys.rows_per_token": (
            prof.counted(*keys) / tokens, "count"),
    }
    for name in ("tensor.matmul", "blocks.layer_norm", "blocks.ffn",
                 "attention.attend_step_cached", "model.decode_step"):
        out[f"{name}.self_ms_per_token"] = (prof.self_ms(name) / tokens, "ms")
    return out


class DecodeMixed(Workload):
    """Short beam, quantized, encoder-decoder and window requests in turn."""

    name = "decode-mixed"
    KINDS = ("beam4", "quant8", "encdec", "window")
    round_size = len(KINDS)
    trace_rounds = 12
    # window requests are the long ones: 71 positions, about 9 windows
    N_MAX = {"beam4": 8, "quant8": 10, "encdec": 20, "window": 64}

    def setup(self):
        text = corpus_text()
        self.vocab = E.Vocab.from_text(text)
        rng = np.random.default_rng(self.seed)
        self.prompts = slices(text, self.vocab, rng, 512, PROMPT_CHARS)
        self.sources = slices(text, self.vocab, rng, 512, SOURCE_CHARS)
        configs = {
            "beam4": M.ModelConfig(**SHAPE),
            "quant8": M.ModelConfig(**SHAPE),
            "encdec": M.ModelConfig(architecture="encoder-decoder", **SHAPE),
            "window": M.ModelConfig(attention="window", window=8, **SHAPE),
        }
        self.models = {}
        for seed, kind in enumerate(self.KINDS, start=1):
            fresh = M.Model.init(configs[kind], self.vocab, seed=seed)
            suppress_eos(fresh)
            self.models[kind] = round_trip(fresh, self.ckpt_path)
            self._call(kind, fresh, self.prompts[-1], self.sources[-1], 4)

    def _call(self, kind, model, prompt, source, n_max):
        cfg = R.SearchConfig(n_max=n_max)
        if kind == "beam4":
            top = R.beam_search(model, prompt,
                                R.SearchConfig(beam=4, n_max=n_max))[0]
            return top.tokens, top.logprob
        if kind == "quant8":
            return R.quantized_infer(model, prompt, cfg, bits=8), None
        if kind == "encdec":
            return R.greedy_generate(model, prompt, cfg, source=source), None
        return R.greedy_generate(model, prompt, cfg), None

    def request(self, i: int) -> Op:
        kind = self.KINDS[i % len(self.KINDS)]
        prompt = self.prompts[i % len(self.prompts)]
        source = self.sources[i % len(self.sources)]
        t0 = time.perf_counter()
        out, logprob = self._call(kind, self.models[kind], prompt, source,
                                  self.N_MAX[kind])
        t1 = time.perf_counter()
        return Op(kind, t0, t1, len(out), (out, logprob), (prompt, source))

    def check(self, ops) -> Checked:
        worst_beam = 0.0
        for op in ops:
            out, logprob = op.output
            op.ok = len(out) == self.N_MAX[op.kind] and E.EOS not in out
            if op.kind == "beam4":
                # beam scores the continuation given the prompt
                model, prompt = self.models["beam4"], op.inputs[0]
                ref = model.sequence_logprob(prompt + out) \
                    - model.sequence_logprob(prompt)
                err = abs(logprob - ref)
                worst_beam = max(worst_beam, err / len(out))
                op.ok = op.ok and err <= BEAM_TOL_PER_TOKEN * len(out)
        notes = [f"beam logprob vs sequence_logprob: worst "
                 f"{worst_beam:.3g}/token (tolerance {BEAM_TOL_PER_TOKEN:g})"]

        probe = _probe(self.seed, ops, "encdec")
        model = self.models["encdec"]
        ok = greedy_agrees(model, probe.inputs[0], probe.output[0],
                           model.encode(probe.inputs[1]))
        probe.ok &= ok
        notes.append(f"encoder-decoder probe matches uncached: {ok}")
        probe = _probe(self.seed, ops, "window")
        ok = greedy_agrees(self.models["window"], probe.inputs[0],
                           probe.output[0])
        probe.ok &= ok
        notes.append(f"window probe matches uncached: {ok}")
        # the 16-bit request is one extra op, outside the timed loop
        ok = self._quant16_agrees(_probe(self.seed, ops, "quant8").inputs[0])
        notes.append(f"16-bit quantized probe equals float greedy: {ok}")
        return Checked(len(ops) + 1, sum(not op.ok for op in ops) + (not ok),
                       notes)

    def _quant16_agrees(self, prompt) -> bool:
        """16-bit integer decoding reproduces float greedy (criterion 8).

        At the first differing position the two tokens must be a float
        near tie (logit gap within QUANT16_TIE); later positions then
        continue from different prefixes and are not compared.
        """
        model = self.models["quant8"]
        cfg = R.SearchConfig(n_max=self.N_MAX["quant8"])
        plain = R.greedy_generate(model, prompt, cfg)
        quant = R.quantized_infer(model, prompt, cfg, bits=16)
        if plain == quant:
            return True
        if len(plain) != len(quant):
            return False
        i = next(k for k, (a, b) in enumerate(zip(plain, quant)) if a != b)
        ids = [E.SOS] + list(prompt) + plain[:i]
        row = model.decoder_forward(ids).values[-1].astype(np.float64)
        return abs(row[plain[i]] - row[quant[i]]) <= QUANT16_TIE

    def details(self, ops):
        out = super().details(ops)
        for kind in self.KINDS:
            t = timing([1e3 * op.seconds for op in ops if op.kind == kind])
            out[f"{kind}_ms_p50"] = (t["p50"], "ms", t["n"])
            out[f"{kind}_ms_p90"] = (t["p90"], "ms", t["n"])
        return out

    def layer_details(self, prof, spans, selfs, units) -> dict:
        kinds = {kind: [i for i, op in units.items() if op.kind == kind]
                 for kind in self.KINDS}
        tokens = {kind: sum(units[i].tokens for i in kinds[kind])
                  for kind in self.KINDS}
        out = _decode_layer_metrics(prof, sum(tokens.values()))
        beam = tracing.Profile(spans, selfs, kinds["beam4"])
        quant = tracing.Profile(spans, selfs, kinds["quant8"])
        encdec = tracing.Profile(spans, selfs, kinds["encdec"])
        window = tracing.Profile(spans, selfs, kinds["window"])
        n_quant, n_beam = tokens["quant8"], tokens["beam4"]
        out.update({
            "tensor.quantized_matmul.calls_per_token": (
                quant.n_calls("tensor.quantized_matmul") / n_quant, "count"),
            "tensor.quantized_matmul.self_ms_per_token": (
                quant.self_ms("tensor.quantized_matmul") / n_quant, "ms"),
            "model.decoder_forward.positions_per_token": (
                quant.counted("model.decoder_forward") / n_quant, "count"),
            "runtime.weight_quant_specs.self_ms_per_request": (
                quant.self_ms("runtime.weight_quant_specs")
                / len(kinds["quant8"]), "ms"),
            "attention.KVCache.clone.calls_per_token": (
                beam.n_calls("attention.KVCache.clone") / n_beam, "count"),
            "attention.KVCache.clone.self_ms_per_token": (
                beam.self_ms("attention.KVCache.clone") / n_beam, "ms"),
            "runtime.beam_search.self_ms_per_request": (
                beam.self_ms("runtime.beam_search") / len(kinds["beam4"]),
                "ms"),
            "runtime.beam_search.decode_steps_per_token": (
                beam.n_calls("model.decode_step") / n_beam, "count"),
            "attention.cross_attention.self_ms_per_token": (
                encdec.self_ms("attention.cross_attention") / tokens["encdec"],
                "ms"),
            "model.decode_step.late_over_early": (
                tracing.late_over_early(list(window.steps.values())),
                "ratio"),
            "model.encode.calls_per_request": (
                encdec.n_calls("model.encode") / len(kinds["encdec"]), "count"),
        })
        return out


WORKLOADS = {w.name: w for w in (TrainCharLM, DecodeMixed)}
