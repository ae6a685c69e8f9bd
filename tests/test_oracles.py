"""The verification suite itself: every family green, failures reported."""

import numpy as np

import seqlab.oracles as O


def test_every_family_passes():
    reports = O.run_oracle_suite(seed=0)
    assert len(reports) == len(O.EXPECTED_FAMILIES)
    failing = [r.name for r in reports if not r.passed]
    assert failing == []


def test_family_names_are_unique_and_ordered():
    names = [r.name for r in O.run_oracle_suite(seed=0)]
    assert names == list(O.EXPECTED_FAMILIES)
    assert len(set(names)) == len(names)


# every family's (name, tolerance, kind), as the suite must keep them
PINNED_SPEC = [
    ("matmul-loop", 1e-06, "err"),
    ("sublayer-gradients", 0.001, "err"),
    ("quantize-roundtrip", 1.0, "ratio"),
    ("quantized-matmul-bound", 1.0, "ratio"),
    ("pe-shift", 1e-09, "err"),
    ("embed-plus-pe", 1e-09, "err"),
    ("attention-loop", 1e-06, "err"),
    ("head-permutation", 1e-09, "err"),
    ("attention-composition", 1e-09, "err"),
    ("gaussian-prior-argmax", 0.0, "count"),
    ("rpr-loop", 1e-06, "err"),
    ("multiquery-weight-copy", 1e-09, "err"),
    ("cached-decode", 1e-06, "err"),
    ("field-union", 0.0, "count"),
    ("kernel-loop", 1e-06, "err"),
    ("streaming-batch", 1e-06, "err"),
    ("length-reduction-mean", 1e-09, "err"),
    ("width-reduction-rank", 0.0, "count"),
    ("discretization-order", 1e-09, "err"),
    ("ssm-closed-form", 1e-06, "err"),
    ("ssm-conv-vs-scan", 1e-06, "err"),
    ("ssm-diagonal-kernel", 1e-09, "err"),
    ("ssm-diagonalization", 1e-05, "err"),
    ("eigen-reconstruction", 1e-06, "err"),
    ("ln-moments", 1.0, "ratio"),
    ("rk-exponential", 0.2, "ratio"),
    ("dropout-expectation", 0.02, "ratio"),
    ("moe-topk-sort", 0.0, "count"),
    ("tied-stack-copy", 1e-09, "err"),
    ("tied-gradient-sum", 1e-09, "err"),
    ("padding-invariance", 1e-06, "err"),
    ("pooling-padding", 1e-06, "err"),
    ("logprob-stepwise", 1e-09, "err"),
    ("similarity-triangle", 0.0, "count"),
    ("schedule-shape", 0.0, "count"),
    ("adam-quadratic", 0.001, "ratio"),
    ("adam-trace", 1e-12, "err"),
    ("chunk-no-gradient", 0.0, "count"),
    ("chunk-manual-forward", 1e-09, "err"),
    ("beam-greedy", 0.0, "count"),
    ("beam-exhaustive", 1e-09, "err"),
    ("beam-rescoring", 1e-06, "err"),
    ("checkpoint-regeneration", 0.0, "count"),
    ("quantized-agreement", 0.0, "count"),
    ("quantized-bound", 1.0, "ratio"),
    ("cli-smoke", 0.0, "count"),
]


def test_family_tolerances_and_kinds_are_pinned():
    """The suite runs 46 families with these names, tolerances and kinds:
    a family may change what it runs against, never how it is judged."""
    assert [(n, t, k) for n, t, k, _ in O._SUITE] == PINNED_SPEC
    assert len(PINNED_SPEC) == 46


def test_tolerance_override_can_fail_a_family():
    reports = O.run_oracle_suite(seed=0, tolerances={"attention-loop": 0.0})
    by_name = {r.name: r for r in reports}
    assert not by_name["attention-loop"].passed
    assert by_name["attention-loop"].tolerance == 0.0
    assert by_name["matmul-loop"].passed


def test_failures_are_reported_not_raised(monkeypatch):
    def boom(rng):
        raise RuntimeError("synthetic breakage")

    patched = [(n, t, k, boom if n == "pe-shift" else f)
               for n, t, k, f in O._SUITE]
    monkeypatch.setattr(O, "_SUITE", patched)
    reports = O.run_oracle_suite(seed=0)
    by_name = {r.name: r for r in reports}
    assert not by_name["pe-shift"].passed
    assert by_name["embed-plus-pe"].passed


def test_missing_family_shows_up_as_failing(monkeypatch):
    monkeypatch.setattr(O, "_SUITE",
                        [row for row in O._SUITE if row[0] != "kernel-loop"])
    reports = O.run_oracle_suite(seed=0)
    by_name = {r.name: r for r in reports}
    assert "kernel-loop" in by_name
    assert not by_name["kernel-loop"].passed


def test_unregistered_runner_shows_up_as_orphan(monkeypatch):
    extra = O._SUITE + [("renegade", 1.0, "err", lambda rng: (0.0, 0.0))]
    monkeypatch.setattr(O, "_SUITE", extra)
    reports = O.run_oracle_suite(seed=0)
    orphans = [r for r in reports if r.name == "orphan:renegade"]
    assert len(orphans) == 1 and not orphans[0].passed


def test_suite_csv_has_header_and_one_row_per_family():
    reports = O.run_oracle_suite(seed=0)
    lines = O.suite_csv(reports).strip().split("\n")
    assert lines[0] == "name,max_abs_err,max_rel_err,tolerance,status"
    assert len(lines) == 1 + len(reports)
    assert all(line.count(",") == 4 for line in lines[1:])


def test_report_row_marks_failures():
    passing = O.OracleReport("alpha", 1e-9, 1e-9, 1e-6, True)
    failing = O.OracleReport("beta", 1.0, 1.0, 1e-6, False)
    assert passing.row().endswith("pass")
    assert failing.row().endswith("FAIL")


def test_suite_is_deterministic_for_a_seed():
    a = O.suite_csv(O.run_oracle_suite(seed=3))
    b = O.suite_csv(O.run_oracle_suite(seed=3))
    assert a == b


# a couple of direct checks on the reference helpers themselves


def test_triple_loop_matmul_agrees_with_numpy():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 3))
    np.testing.assert_allclose(O.triple_loop_matmul(a, b), a @ b,
                               atol=1e-12)


def test_central_difference_on_a_quadratic():
    f = lambda x: float((np.asarray(x) ** 2).sum())
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(O.central_difference(f, x), 2 * x, atol=1e-6)


def test_enumerate_sequences_counts():
    seqs = list(O.enumerate_sequences([4, 5, 6], 2))
    assert len(seqs) == 9
    assert len(set(seqs)) == 9
