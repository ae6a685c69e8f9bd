"""seqlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-charlm --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy. ``--trace 0``
times the workload for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed number of operations, alternating untraced
ones with ones where every public seqlab layer is wrapped, and reports
per-layer metrics plus the tracing overhead. The last line of standard
output is the JSON result, holding exactly the metrics ``BENCHMARK.json``
names; the lines before it are a readable table, the workload's details
and the environment.

Set-up time is measured in fresh child processes of this script
(``--setup-only``), from just before each is started to the moment its
set-up is done, and reported as the median of five.
"""

import os
import time

# pinned before numpy loads OpenBLAS; the value is read back below
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import gc
import importlib.metadata
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("train-charlm", "decode-mixed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_blas(threads: int) -> dict:
    """Set and read back the OpenBLAS thread count bundled with numpy."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    libs = sorted(libdir.glob("libscipy_openblas64_*.so"))
    info = {"blas_library": None, "blas_config": None, "blas_threads": None}
    if not libs:
        return info
    lib = ctypes.CDLL(str(libs[0]))
    set_threads = lib.scipy_openblas_set_num_threads64_
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    set_threads(threads)
    info.update(blas_library=libs[0].name,
                blas_config=get_config().decode("ascii", "replace").strip(),
                blas_threads=int(get_threads()))
    return info


def environment(blas: dict) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "openblas": numpy.__config__.CONFIG["Build Dependencies"]["blas"]
            .get("version"),
            "nproc": len(os.sched_getaffinity(0)), **blas}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program():
    if not (SRC / "seqlab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no seqlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqlab
    if Path(seqlab.__file__).resolve().parent != SRC / "seqlab":
        raise SystemExit(f"benchmark: imported seqlab from {seqlab.__file__}")


def timed_setups(args) -> list:
    """Seconds from starting a child process to the end of its set-up.

    perf_counter reads the system-wide monotonic clock, so the child's
    reading and this process's are comparable.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(child.stdout.split()[-1]) - t0)
    return samples


def manifest_metrics(trace: int):
    """(name, unit) pairs the result line must hold, or None without a manifest."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())["per_layer" if trace else "end_to_end"]
    return sorted((m["name"], m["unit"]) for m in spec)


def table_rows(metrics: dict, samples=None) -> list:
    """(name, value, unit, samples) rows from name -> (value, unit[, n])."""
    return [(name, v[0], v[1], v[2] if len(v) > 2 else samples)
            for name, v in metrics.items()]


def emit(result: dict, table: list, details: list, env: dict,
         notes: list) -> None:
    print("# environment " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("# check: " + note)
    width = max(len(row[0]) for row in table + details)
    for title, rows in (("metrics", table), ("details", details)):
        if rows:
            print(f"# {title}")
        for name, value, unit, samples in rows:
            n = "" if samples is None else f"  (n={samples})"
            print(f"{name:<{width}}  {value:>14.6g} {unit}{n}")
    print(json.dumps(result))


def measure(wl, args):
    """Untraced: time the workload, then check it.

    Returns (checked, table, details, op_ms).
    """
    setup_s = statistics.median(timed_setups(args))
    wl.setup()
    gc.collect()
    ops = wl.run(seconds=args.seconds)
    peak = peak_rss_mb()
    checked = wl.check(ops)
    return (checked, table_rows(wl.metrics(ops, setup_s, peak)),
            table_rows(wl.details(ops)),
            [1e3 * s for s in wl.op_seconds(ops)])


def trace(wl, args):
    """Fixed work, traced and untraced in alternation.

    Returns (checked, table, details, op_ms). Ops (a step, or a round of
    one request per kind) alternate between untraced and traced, so both
    halves see the same inputs' shapes and the same machine conditions;
    the untraced half is the base of the overhead.
    """
    import tracing
    tracer = tracing.Tracer()
    tracer.install()                        # checkpoint spans come from set-up
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    gc.collect()

    def traced(i):
        return (i // wl.round_size) % 2 == 1

    def mark(i):
        if traced(i):
            tracer.current_unit = i
            tracer.install()
        else:
            tracer.uninstall()

    try:
        ops = wl.run(count=2 * wl.trace_rounds * wl.round_size, mark=mark)
    finally:
        tracer.uninstall()
    checked = wl.check(ops)
    units = {i: op for i, op in enumerate(ops) if traced(i)}
    plain = [op for i, op in enumerate(ops) if not traced(i)]
    layer, details = wl.trace_metrics(tracer.spans(), plain, units)
    n_spans = tracer.write_spans(
        str(OUT / f"spans-{args.workload}-s{args.seed}.tsv"))
    checked.notes.append(f"{n_spans} spans written to perfbench/out")
    if tracer.missing:
        checked.notes.append("not in this seqlab, metrics read 0: "
                             + ", ".join(tracer.missing))
    n_ops = len(units) // wl.round_size
    return (checked, table_rows(dict(sorted(layer.items())), n_ops),
            table_rows(dict(sorted(details.items())), n_ops),
            [1e3 * s for s in wl.op_seconds(ops)])


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    blas = pin_blas(1)
    if blas["blas_threads"] not in (None, 1):
        raise SystemExit(f"benchmark: OpenBLAS kept {blas['blas_threads']} threads")
    import selfcheck
    import workloads
    OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(OUT))
    if args.setup_only:
        wl.setup()
        print(time.perf_counter())
        return 0
    selfcheck.run()
    checked, table, details, op_ms = (trace if args.trace else measure)(wl, args)
    want = manifest_metrics(args.trace)
    got = sorted((name, unit) for name, _, unit, _ in table)
    if want is not None and got != want:
        raise SystemExit(f"benchmark: metrics {got} are not the manifest's {want}")

    env = environment(blas)
    result = {"correct": checked.failed == 0, "attempted": checked.attempted,
              "failed": checked.failed,
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, value, unit, _ in table}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, environment=env,
                  samples={name: n for name, _, _, n in table},
                  details={name: {"value": float(value), "unit": unit,
                                  "samples": n}
                           for name, value, unit, n in details},
                  op_ms=op_ms, checks=checked.notes)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    emit(result, table, details, env, checked.notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
