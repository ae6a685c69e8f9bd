"""End-to-end command-line behavior, driven through cli.main."""

import contextlib
import io
import re

import numpy as np
import pytest

import seqlab.cli as C
import seqlab.model as M
import seqlab.runtime as R
from seqlab.embedding import CLS, Vocab

CORPUS = "the cat sat on the mat and a rat ran at the hat. " * 50


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    ckpt = root / "model.ckpt"
    metrics = root / "metrics.csv"
    rc = C.main(["train", "--corpus", str(corpus), "--out", str(ckpt),
                 "--metrics", str(metrics), "--steps", "20",
                 "--seq-len", "24", "--batch-size", "4",
                 "--set", "model.d=16", "--set", "model.ffn_width=32",
                 "--set", "model.heads=2", "--set", "model.layers=1"])
    assert rc == 0
    return {"root": root, "corpus": corpus, "ckpt": str(ckpt),
            "metrics": metrics}


def test_train_writes_a_loadable_checkpoint(workdir):
    model = R.load_checkpoint(workdir["ckpt"])
    assert model.cfg.d == 16 and model.cfg.n_layers == 1
    assert "t" in model.vocab.tokens


def test_train_metrics_csv_has_header_and_rows(workdir):
    lines = workdir["metrics"].read_text().strip().split("\n")
    assert lines[0] == "step,lr,loss,tokens_per_s,clamped,grad_norm"
    assert len(lines) == 21
    assert lines[1].startswith("1,")


def test_train_reads_a_config_file(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text(CORPUS[:500], encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text("model.d: 16\nmodel.heads: 2\nmodel.ffn_width: 32\n"
                      "model.layers: 1\ntrain.steps: 3\ntrain.seq_len: 16\n"
                      "train.batch_size: 2\n", encoding="utf-8")
    out = tmp_path / "m.ckpt"
    rc = C.main(["train", "--corpus", str(corpus), "--config", str(config),
                 "--out", str(out)])
    assert rc == 0
    assert R.load_checkpoint(str(out)).cfg.d == 16


def _train_chunked(tmp_path, *overrides):
    corpus = tmp_path / "c.txt"
    corpus.write_text(CORPUS[:400], encoding="utf-8")
    out = tmp_path / "m.ckpt"
    rc = C.main(["train", "--corpus", str(corpus), "--out", str(out),
                 "--steps", "3", "--seq-len", "16", "--batch-size", "2",
                 "--chunk-len", "8", "--set", "model.d=16",
                 "--set", "model.heads=2", "--set", "model.ffn_width=32",
                 "--set", "model.layers=1", *overrides])
    return rc, out


def test_train_with_a_chunk_length(tmp_path):
    rc, out = _train_chunked(tmp_path)
    assert rc == 0 and out.exists()


def test_train_with_a_chunk_length_on_a_window_config(tmp_path):
    rc, out = _train_chunked(tmp_path, "--set", "attention.variant=window",
                             "--set", "attention.window=4")
    assert rc == 0 and out.exists()
    assert R.load_checkpoint(str(out)).cfg.attention == "window"


@pytest.mark.parametrize("architecture", ["encoder-only", "encoder-decoder"])
def test_train_rejects_untrainable_architecture_before_reading(
        tmp_path, capsys, architecture):
    out = tmp_path / "m.ckpt"
    # the corpus does not exist: the config is refused before it is read
    rc = C.main(["train", "--corpus", str(tmp_path / "absent.txt"),
                 "--out", str(out),
                 "--set", f"model.architecture={architecture}"])
    assert rc != 0
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and architecture in err[0]
    assert not out.exists()


@pytest.mark.parametrize("override", ["attention.variant=linear",
                                      "attention.variant=ssm"])
def test_chunked_train_rejects_unchunkable_config(tmp_path, capsys, override):
    out = tmp_path / "m.ckpt"
    rc = C.main(["train", "--corpus", str(tmp_path / "absent.txt"),
                 "--out", str(out), "--chunk-len", "8", "--set", override])
    assert rc != 0
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and "chunked" in err[0]
    assert not out.exists()


def test_generate_max_len_one_emits_one_token(workdir, capsys):
    assert C.main(["generate", "--ckpt", workdir["ckpt"], "--prompt", "the ",
                   "--max-len", "1"]) == 0
    printed = capsys.readouterr().out.rstrip("\n")
    model = R.load_checkpoint(workdir["ckpt"])
    tokens = R.greedy_generate(model, model.vocab.encode("the "),
                               R.SearchConfig(n_max=1))
    assert len(tokens) == 1
    assert printed == model.vocab.decode(tokens)


def test_generate_beam_flag(workdir, capsys):
    assert C.main(["generate", "--ckpt", workdir["ckpt"], "--prompt", "a",
                   "--max-len", "6", "--beam", "3"]) == 0
    model = R.load_checkpoint(workdir["ckpt"])
    pool = R.beam_search(model, model.vocab.encode("a"),
                         R.SearchConfig(beam=3, n_max=6))
    assert capsys.readouterr().out.rstrip("\n") == \
        model.vocab.decode(pool[0].tokens)


def test_generate_quantized_matches_float_at_sixteen_bits(workdir, capsys):
    args = ["generate", "--ckpt", workdir["ckpt"], "--prompt", "the ",
            "--max-len", "12"]
    assert C.main(args) == 0
    plain = capsys.readouterr().out
    assert C.main(args + ["--quantize", "16"]) == 0
    assert capsys.readouterr().out == plain


def test_generate_quantized_beam_matches_float_at_sixteen_bits(workdir,
                                                               capsys):
    assert C.main(["generate", "--ckpt", workdir["ckpt"], "--prompt", "a",
                   "--max-len", "6", "--beam", "3", "--quantize", "16"]) == 0
    model = R.load_checkpoint(workdir["ckpt"])
    pool = R.beam_search(model, model.vocab.encode("a"),
                         R.SearchConfig(beam=3, n_max=6))
    assert capsys.readouterr().out.rstrip("\n") == \
        model.vocab.decode(pool[0].tokens)


@pytest.mark.parametrize("flags,needle", [
    (["--quantize", "-3"], "2 bits"),
    (["--quantize", "1"], "2 bits"),
    (["--quantize", "0"], "2 bits"),
])
def test_generate_refuses_quantize_misuse(workdir, capsys, flags, needle):
    rc = C.main(["generate", "--ckpt", workdir["ckpt"], "--prompt", "a",
                 "--max-len", "4"] + flags)
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.strip().split("\n")
    assert len(err) == 1 and needle in err[0]
    assert captured.out == ""


def test_score_prints_the_sequence_logprob(workdir, capsys):
    assert C.main(["score", "--ckpt", workdir["ckpt"],
                   "--text", "the cat"]) == 0
    printed = float(capsys.readouterr().out.strip())
    model = R.load_checkpoint(workdir["ckpt"])
    want = model.sequence_logprob(model.vocab.encode("the cat"))
    assert printed == pytest.approx(want, rel=1e-6)
    assert printed < 0


def test_encode_emits_a_vector_csv(tmp_path, capsys):
    vocab = Vocab.from_text("abcd")
    model = M.Model.init(M.ModelConfig(d=8, n_layers=1, tau=2, d_ffn=16,
                                       architecture="encoder-only"),
                         vocab, seed=0)
    ckpt = tmp_path / "enc.ckpt"
    R.save_checkpoint(model, str(ckpt))
    assert C.main(["encode", "--ckpt", str(ckpt), "--text", "abca"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ",".join(f"dim_{i}" for i in range(8))
    vec = np.array([float(x) for x in lines[1].split(",")])
    np.testing.assert_allclose(
        vec, model.represent(vocab.encode("abca"), "mean"), rtol=1e-5)


def _advertised_pool_modes():
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        C.main(["encode", "--help"])
    return re.search(r"--pool \{([^}]*)\}", text.getvalue()).group(1).split(",")


def test_encode_pool_choices_are_the_model_pooling_modes():
    assert tuple(_advertised_pool_modes()) == M.POOL_MODES


@pytest.mark.parametrize("mode", _advertised_pool_modes())
def test_every_advertised_pool_choice_encodes(tmp_path, capsys, mode):
    vocab = Vocab.from_text("abcd")
    model = M.Model.init(M.ModelConfig(d=8, n_layers=1, tau=2, d_ffn=16,
                                       architecture="encoder-only"),
                         vocab, seed=0)
    ckpt = tmp_path / "enc.ckpt"
    R.save_checkpoint(model, str(ckpt))
    assert C.main(["encode", "--ckpt", str(ckpt), "--text", "abca",
                   "--pool", mode]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1]
    ids = vocab.encode("abca")
    if mode == "cls":
        ids = [CLS] + ids
    np.testing.assert_allclose([float(x) for x in row.split(",")],
                               model.represent(ids, mode), rtol=1e-5)


def test_encode_without_an_encoder_fails_cleanly(workdir, capsys):
    assert C.main(["encode", "--ckpt", workdir["ckpt"],
                   "--text", "cat"]) == 1
    assert "error" in capsys.readouterr().err


def test_inspect_dumps_the_config(workdir, capsys):
    assert C.main(["inspect", "--ckpt", workdir["ckpt"]]) == 0
    out = capsys.readouterr().out
    assert "model.d: 16" in out
    assert "vocab_size:" in out


def test_bench_emits_one_row_per_variant_and_length(tmp_path):
    out = tmp_path / "bench.csv"
    rc = C.main(["bench", "--variants", "dense,window", "--lengths", "16,32",
                 "--d", "16", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "variant,n,multiply_adds,seconds"
    assert len(lines) == 5
    keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert keys == [("dense", "16"), ("dense", "32"),
                    ("window", "16"), ("window", "32")]


def test_bench_counters_scale_as_expected(tmp_path):
    out = tmp_path / "bench.csv"
    assert C.main(["bench", "--variants", "dense", "--lengths", "64,128",
                   "--d", "16", "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            out.read_text().strip().split("\n")[1:]]
    ops = {int(r[1]): int(r[2]) for r in rows}
    assert ops[128] == 4 * ops[64]           # attention work is quadratic
    # exact tallies, unchanged since heads became column blocks of one
    # projection (the per-head layout counted the same work head by head);
    # the window pass computes blocks of 8 queries over 16 keys (2 heads
    # of width 8, logits and values): 16 * 2 * 16 * 8 * 2 at 16 positions,
    # twice that at 32; an SSM block of 16 positions is one
    # (16 + d_state)^2 product per column, so its work is linear in length;
    # a linear-attention block of 16 (2 heads, d' = 8 and V with its column
    # of ones, 9 wide) is per head the masked scores and their product with
    # V, 16 * 16 * (8 + 9), plus the sums read and carried, 2 * 16 * 8 * 9
    assert C.main(["bench", "--variants", "dense,window,linear,lowrank-d,ssm",
                   "--lengths", "16,32", "--d", "16", "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            out.read_text().strip().split("\n")[1:]]
    ops = {(r[0], int(r[1])): int(r[2]) for r in rows}
    assert ops == {
        ("dense", 16): 8192, ("dense", 32): 32768,
        ("window", 16): 8192, ("window", 32): 16384,
        ("linear", 16): 13312, ("linear", 32): 26624,
        ("lowrank-d", 16): 6144, ("lowrank-d", 32): 24576,
        ("ssm", 16): 16 * (16 + 16) ** 2, ("ssm", 32): 2 * 16 * (16 + 16) ** 2}
    assert ops["ssm", 32] == 2 * ops["ssm", 16]
    assert ops["window", 32] == 2 * ops["window", 16]
    assert ops["linear", 32] == 2 * ops["linear", 16]


def test_oracle_subcommand_writes_csv(tmp_path):
    out = tmp_path / "oracle.csv"
    assert C.main(["oracle", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("name,")
    assert len(lines) >= 40
    assert all(line.endswith(",pass") for line in lines[1:])


def test_unknown_flag_exits_nonzero(workdir, capsys):
    assert C.main(["generate", "--ckpt", workdir["ckpt"],
                   "--frobnicate"]) == 2
    assert "--frobnicate" in capsys.readouterr().err


def test_missing_subcommand_exits_nonzero(capsys):
    assert C.main([]) != 0
    capsys.readouterr()


def test_missing_corpus_file_reports_on_stderr(tmp_path, capsys):
    rc = C.main(["train", "--corpus", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    assert "nope.txt" in capsys.readouterr().err


def test_missing_checkpoint_reports_on_stderr(tmp_path, capsys):
    assert C.main(["score", "--ckpt", str(tmp_path / "gone.ckpt"),
                   "--text", "a"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_set_override_fails_cleanly(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("abcabc", encoding="utf-8")
    rc = C.main(["train", "--corpus", str(corpus),
                 "--out", str(tmp_path / "m.ckpt"), "--set", "model.d"])
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


def test_unreadable_prompt_symbol_fails_cleanly(workdir, capsys):
    assert C.main(["score", "--ckpt", workdir["ckpt"],
                   "--text", "zebra!"]) == 1
    assert capsys.readouterr().err.startswith("error:")
