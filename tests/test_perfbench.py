"""The benchmark's own scripts run against this checkout.

perfbench/ calls the decoding and training API (quantized_infer,
beam_search, greedy_generate, train_lm, checkpoints). Running its
self-check and each workload's set-up here makes an API change that
breaks the benchmark fail the test suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_selfcheck_passes():
    done = _run(str(BENCH / "selfcheck.py"))
    assert done.returncode == 0, done.stderr
    assert "selfcheck ok" in done.stdout


@pytest.mark.parametrize("workload", ["train-charlm", "decode-mixed"])
def test_benchmark_workload_sets_up(workload):
    done = _run(str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
                "--seconds", "1", "--setup-only")
    assert done.returncode == 0, done.stderr
    float(done.stdout.split()[-1])           # the set-up's end time
