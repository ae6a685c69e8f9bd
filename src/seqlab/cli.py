"""Command-line front end.

Subcommands: train, generate, encode, score, bench, inspect, oracle.
Every CSV the tool emits starts with a header row. Expected failures
(missing files, bad configs, damaged checkpoints) print one line on
stderr and exit nonzero; argparse handles unknown flags the usual way.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import List, Optional

from . import attention as A
from . import oracles as O
from . import runtime as R
from . import train as TR
from .blocks import ConfigurationError
from .config import Config
from .embedding import CLS, Vocab
from .model import POOL_MODES, Model, ModelConfig


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _apply_overrides(cfg: Config, pairs: List[str]) -> Config:
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set needs key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        cfg.set(key.strip(), value.strip())
    return cfg


def _train_config(cfg: Config, args) -> TR.TrainConfig:
    base = TR.TrainConfig()
    picked = dict(
        lr0=cfg.get_float("train.lr0", base.lr0),
        n_warmup=cfg.get_int("train.warmup", base.n_warmup),
        batch_size=cfg.get_int("train.batch_size", base.batch_size),
        max_steps=cfg.get_int("train.steps", base.max_steps),
        seed=cfg.get_int("train.seed", base.seed),
        seq_len=cfg.get_int("train.seq_len", base.seq_len),
        clip_norm=cfg.get_float("train.clip_norm", 0.0) or None,
        chunk_len=cfg.get_int("train.chunk_len", 0) or None,
    )
    for flag, key in (("lr", "lr0"), ("warmup", "n_warmup"),
                      ("batch_size", "batch_size"), ("steps", "max_steps"),
                      ("seed", "seed"), ("seq_len", "seq_len"),
                      ("clip_norm", "clip_norm"), ("chunk_len", "chunk_len")):
        val = getattr(args, flag)
        if val is not None:
            picked[key] = val
    return TR.TrainConfig(**picked)


def cmd_train(args) -> int:
    cfg = Config.load(args.config) if args.config else Config()
    _apply_overrides(cfg, args.set)
    train_cfg = _train_config(cfg, args)
    model_cfg = ModelConfig.from_config(cfg)
    if model_cfg.architecture != "decoder-only":
        raise ConfigurationError(
            f"train fits decoder-only language models; "
            f"{model_cfg.architecture} is not trainable here")
    if train_cfg.chunk_len:
        model_cfg.check_chunkable()
    text = _read_text(args.corpus)
    vocab = Vocab.from_text(text)
    model = Model.init(model_cfg, vocab, seed=train_cfg.seed)
    segments = TR.segments_from_text(text, vocab, train_cfg.seq_len)
    metrics = TR.train_lm(model, segments, train_cfg)
    R.save_checkpoint(model, args.out)
    if args.metrics:
        _write_text(args.metrics, TR.metrics_to_csv(metrics))
    first, last = metrics[0]["loss"], metrics[-1]["loss"]
    print(f"trained {len(metrics)} steps on {len(vocab)} symbols: "
          f"loss {first:.4f} -> {last:.4f}; saved {args.out}")
    return 0


def cmd_generate(args) -> int:
    cfg = R.SearchConfig(beam=args.beam, n_max=args.max_len,
                         alpha_len=args.alpha)
    model = R.load_checkpoint(args.ckpt)
    prompt = model.vocab.encode(args.prompt) if args.prompt else []
    with (R.quantized(model, args.quantize) if args.quantize is not None
          else contextlib.nullcontext()):
        if cfg.beam > 1:
            tokens = R.beam_search(model, prompt, cfg)[0].tokens
        else:
            tokens = R.greedy_generate(model, prompt, cfg)
    print(model.vocab.decode(tokens))
    return 0


def cmd_encode(args) -> int:
    model = R.load_checkpoint(args.ckpt)
    ids = model.vocab.encode(args.text)
    if args.pool == "cls":
        ids = [CLS] + ids                    # cls pooling reads this row
    vec = model.represent(ids, args.pool)
    header = ",".join(f"dim_{i}" for i in range(vec.size))
    row = ",".join(f"{x:.8g}" for x in vec)
    _write_text(args.out, f"{header}\n{row}\n")
    return 0


def cmd_score(args) -> int:
    model = R.load_checkpoint(args.ckpt)
    print(f"{model.sequence_logprob(model.vocab.encode(args.text)):.8g}")
    return 0


def cmd_bench(args) -> int:
    vocab = Vocab.from_text("abcdefgh")
    lines = ["variant,n,multiply_adds,seconds"]
    for variant in args.variants.split(","):
        variant = variant.strip()
        cfg = ModelConfig(d=args.d, n_layers=args.layers, tau=args.heads,
                          attention=variant, window=args.window)
        model = Model.init(cfg, vocab, seed=args.seed)
        for n in (int(x) for x in args.lengths.split(",")):
            ids = [4 + (i % (len(vocab) - 4)) for i in range(n)]
            counter = A.OpCounter()
            started = time.perf_counter()
            model.decoder_forward(ids, counter=counter)
            elapsed = time.perf_counter() - started
            lines.append(f"{variant},{n},{counter.multiply_adds},"
                         f"{elapsed:.6f}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_inspect(args) -> int:
    model = R.load_checkpoint(args.ckpt)
    sys.stdout.write(model.cfg.to_config().to_text())
    print(f"vocab_size: {len(model.vocab)}")
    print(f"tensors: {sum(1 for _ in model.named())}")
    return 0


def cmd_oracle(args) -> int:
    reports = O.run_oracle_suite(seed=args.seed)
    _write_text(args.out, O.suite_csv(reports))
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlab", description="sequence-modeling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model on a text corpus")
    p.add_argument("--corpus", required=True, help="training text file")
    p.add_argument("--config", help="config file (key: value lines)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config entry (repeatable)")
    p.add_argument("--out", default="model.ckpt", help="checkpoint path")
    p.add_argument("--metrics", help="write per-step metrics CSV here")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seq-len", dest="seq_len", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--clip-norm", dest="clip_norm", type=float)
    p.add_argument("--chunk-len", dest="chunk_len", type=int,
                   help="TrainConfig.chunk_len: train_lm takes one step per "
                        "span of this many columns, each attending over the "
                        "previous span's frozen keys and values (dense, "
                        "window or lowrank-d attention, no layer dropout)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="continue a prompt")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--prompt", default="")
    p.add_argument("--max-len", dest="max_len", type=int, default=64)
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.0,
                   help="length-normalization exponent")
    p.add_argument("--quantize", type=int, metavar="BITS",
                   help="run weight matmuls at this integer precision")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("encode", help="pool a text into one vector")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--pool", default="mean", choices=POOL_MODES)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("score", help="log-probability of a text")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--text", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("bench", help="count work across variants and lengths")
    p.add_argument("--variants", default="dense,window")
    p.add_argument("--lengths", default="64,128,256,512")
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="dump a checkpoint's configuration")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("oracle", help="run the verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
