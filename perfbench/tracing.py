"""Outside-in tracing: wrap seqlab's public functions and record spans.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it started (its parent), the unit of work it belongs
to (a training step or a decode request) and one integer count computed
at that boundary (matmul multiply-adds, cache rows returned, tokens fed,
tape records, GC generation). Garbage-collector pauses are recorded as
``python.gc`` spans through ``gc.callbacks``, so they are children of
whatever span they interrupted and never inflate its self time.

Spans live in flat ``array`` columns while the run is going: they are not
containers the cycle collector tracks, so tracing does not change how
often or how long the collector runs. They are written out once, at the
end, by ``write_spans``.
"""

from __future__ import annotations

import gc
import importlib
import math
import time
from array import array

import numpy as np

GC_SPAN = "python.gc"


def _matmul_madds(args, kwargs, result):
    """Multiply-adds of one product, computed from operand and result shapes."""
    a = args[0]
    return math.prod(result.shape) * np.shape(getattr(a, "values", a))[-1]


def _rows(args, kwargs, result):
    return result.shape[0]


def _tape_records(args, kwargs, result):
    return len(args[0].tape.records)


def _tokens_fed(args, kwargs, result):
    return len(args[1])


def _position(args, kwargs, result):
    # decode_step appends the fed token, so the step ran at position - 1
    return args[1].position - 1


# (module, class or None, attribute, span name, count function). Class
# entries wrap the plain function stored on the class, so bound calls and
# explicit calls both pass through the wrapper.
TARGETS = (
    ("seqlab.tensor", None, "matmul", "tensor.matmul", _matmul_madds),
    ("seqlab.tensor", None, "softmax_rows", "tensor.softmax_rows", None),
    ("seqlab.tensor", None, "backward", "tensor.backward", _tape_records),
    ("seqlab.tensor", None, "quantized_matmul", "tensor.quantized_matmul",
     _matmul_madds),
    ("seqlab.attention", None, "multi_head_self", "attention.multi_head_self",
     None),
    ("seqlab.attention", None, "qkv_attention", "attention.qkv_attention", None),
    ("seqlab.attention", None, "attend_step_cached",
     "attention.attend_step_cached", None),
    ("seqlab.attention", None, "cross_attention", "attention.cross_attention",
     None),
    ("seqlab.attention", "KVCache", "keys", "attention.KVCache.keys", _rows),
    ("seqlab.attention", "KVCache", "values_", "attention.KVCache.values_",
     _rows),
    ("seqlab.attention", "KVCache", "clone", "attention.KVCache.clone", None),
    ("seqlab.blocks", None, "layer_norm", "blocks.layer_norm", None),
    ("seqlab.blocks", None, "ffn", "blocks.ffn", None),
    ("seqlab.model", "Model", "decoder_forward", "model.decoder_forward",
     _tokens_fed),
    ("seqlab.model", "Model", "decode_step", "model.decode_step", _position),
    ("seqlab.model", "Model", "encode", "model.encode", None),
    ("seqlab.train", None, "adam_step", "train.adam_step", None),
    ("seqlab.train", None, "cross_entropy", "train.cross_entropy", None),
    ("seqlab.train", None, "make_batches", "train.make_batches", None),
    ("seqlab.runtime", None, "greedy_generate", "runtime.greedy_generate", None),
    ("seqlab.runtime", None, "beam_search", "runtime.beam_search", None),
    ("seqlab.runtime", None, "quantized_infer", "runtime.quantized_infer", None),
    ("seqlab.runtime", None, "weight_quant_specs", "runtime.weight_quant_specs",
     None),
    ("seqlab.runtime", None, "save_checkpoint", "runtime.save_checkpoint", None),
    ("seqlab.runtime", None, "load_checkpoint", "runtime.load_checkpoint", None),
)


class Tracer:
    """Span recorder that patches seqlab in place and restores it after."""

    def __init__(self):
        self._ids: dict[str, int] = {GC_SPAN: 0}   # spans store name ids
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("q")
        self.unit: array = array("q")
        self.count: array = array("q")
        self.current_unit = -1               # -1: set-up, outside any unit
        self.missing: list[str] = []         # targets this seqlab lacks
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._gc_open: list[int] = []

    # -- recording -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.current_unit)
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _on_gc(self, phase, info):
        if phase == "start":
            idx = self._open(0)
            self.count[idx] = info["generation"]
            self._gc_open.append(idx)
        elif self._gc_open:
            self._close(self._gc_open.pop())

    def _wrapper(self, fn, nid, count):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.count[idx] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install / restore -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target the imported seqlab has; list the others."""
        if self._patches:
            return
        for mod_name, cls_name, attr, span, count in TARGETS:
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            fn = None if owner is None else (
                owner.__dict__.get(attr) if isinstance(owner, type)
                else getattr(owner, attr, None))
            if fn is None:
                if span not in self.missing:
                    self.missing.append(span)
                continue
            nid = self._ids.setdefault(span, len(self._ids))
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, nid, count))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- output ------------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Tab-separated spans, times in microseconds from the first span."""
        names = list(self._ids)
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tunit\tname\tstart_us\tdur_us\tcount\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.unit[i]}\t"
                         f"{names[self.name_id[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - self.start[i]) * 1e6:.1f}\t"
                         f"{self.count[i]}\n")
        return len(self.start)

    def spans(self):
        """Plain-tuple view: (name, start, end, parent, unit, count)."""
        names = list(self._ids)
        return [(names[self.name_id[i]], self.start[i], self.end[i],
                 self.parent[i], self.unit[i], self.count[i])
                for i in range(len(self.start))]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration minus the part of the span's interval its children cover.

    ``spans`` is a sequence of (name, start, end, parent, unit, count)
    tuples whose parent field indexes the same sequence (-1: no parent).
    Children may overlap each other; the covered part is their union,
    clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, s, e, p, _, _ in spans:
        if p >= 0:
            children.setdefault(p, []).append((s, e))
    out = []
    for i, (_, s, e, _, _, _) in enumerate(spans):
        out.append((e - s) - covered(children.get(i, ()), s, e))
    return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Profile:
    """Per-name totals over the spans that belong to a set of units."""

    def __init__(self, spans, selfs, units):
        units = set(units)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self.gen2 = 0
        self.steps: dict[int, list[tuple[int, float]]] = {}
        self.top: dict[int, list[tuple[float, float]]] = {}
        for (name, s, e, p, u, c), st in zip(spans, selfs):
            if u not in units:
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + st
            self.total_s[name] = self.total_s.get(name, 0.0) + (e - s)
            self.count[name] = self.count.get(name, 0) + c
            if name == "model.decode_step":
                self.steps.setdefault(u, []).append((c, e - s))
            elif name == GC_SPAN and c == 2:
                self.gen2 += 1
            if p < 0:
                self.top.setdefault(u, []).append((s, e))

    def self_ms(self, *names) -> float:
        return 1e3 * sum(self.self_s.get(n, 0.0) for n in names)

    def counted(self, *names) -> int:
        return sum(self.count.get(n, 0) for n in names)

    def n_calls(self, name) -> int:
        return self.calls.get(name, 0)

    def unattributed(self, windows) -> float:
        """Share of the units' wall time that no top-level span covers.

        ``windows`` maps unit id -> (start, end) of that unit as the
        workload timed it.
        """
        wall = cov = 0.0
        for u, (lo, hi) in windows.items():
            wall += hi - lo
            cov += covered(self.top.get(u, ()), lo, hi)
        return (wall - cov) / wall if wall > 0 else 0.0


def late_over_early(requests) -> float:
    """Mean step time over the last quarter of positions / the first quarter.

    ``requests`` is a list of per-request [(position, seconds), ...] lists.
    A request of n steps contributes positions < n/4 to the early pool and
    positions >= n - n/4 to the late pool; 1.0 means flat per-step cost.
    """
    early = []
    late = []
    for steps in requests:
        n = len(steps)
        if n < 4:
            continue
        q = n / 4.0
        for pos, dt in steps:
            if pos < q:
                early.append(dt)
            elif pos >= n - q:
                late.append(dt)
    if not early or not late:
        return 0.0
    return (sum(late) / len(late)) / (sum(early) / len(early))
