"""Checks of the benchmark's own arithmetic on hand-built inputs.

run.py calls ``run()`` before every measurement, so a broken percentile,
self-time or ratio computation stops the benchmark instead of reporting
wrong numbers. Standalone: ``python3 perfbench/selfcheck.py`` (from a
checkout root, with ``src`` importable) prints "selfcheck ok".
"""

import math

import tracing
from workloads import percentile, timing


def _close(a, b):
    return math.isclose(a, b, rel_tol=0, abs_tol=1e-12)


def check_percentiles():
    values = list(range(100, 0, -1))           # 1..100, unsorted
    assert percentile(values, 90) == 90        # ten samples lie beyond it
    assert percentile(values, 50) == 50
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 90) == 3      # ceil(2.7) = rank 3
    t = timing([1.0, 2.0, 3.0, 4.0])
    assert t["p50"] == 2.5 and t["p90"] == 4.0 and t["n"] == 4


def check_self_times():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3];
    # b holds two overlapping children [6, 8] and [7, 8.5] (union 2.5) and
    # one that runs past b's end [8.5, 12] (clipped to 0.5)
    spans = [
        ("root", 0.0, 10.0, -1, 0, 0),
        ("a", 1.0, 4.0, 0, 0, 0),
        ("a1", 2.0, 3.0, 1, 0, 0),
        ("b", 5.0, 9.0, 0, 0, 0),
        ("b1", 6.0, 8.0, 3, 0, 0),
        ("b2", 7.0, 8.5, 3, 0, 0),
        ("b3", 8.5, 12.0, 3, 0, 0),
    ]
    got = tracing.self_times(spans)
    want = [10 - 3 - 4, 3 - 1, 1, 4 - 3, 2, 1.5, 3.5]
    assert all(_close(g, w) for g, w in zip(got, want)), got
    prof = tracing.Profile(spans, got, [0])
    assert _close(prof.self_s["root"], 3.0) and prof.calls["b1"] == 1
    # one top-level span [0, 10] inside a unit window [0, 12]
    assert _close(prof.unattributed({0: (0.0, 12.0)}), 2.0 / 12.0)


def check_late_over_early():
    flat = [[(p, 1.0) for p in range(8)]]
    assert _close(tracing.late_over_early(flat), 1.0)
    # 8 steps: early positions 0, 1 (mean 1.5), late 6, 7 (mean 7.5)
    linear = [[(p, float(p + 1)) for p in range(8)]]
    assert _close(tracing.late_over_early(linear), 5.0)
    # pooled over requests: early {1, 3}, late {2, 6}
    two = [[(0, 1.0), (1, 0), (2, 0), (3, 2.0)],
           [(0, 3.0), (1, 0), (2, 0), (3, 6.0)]]
    assert _close(tracing.late_over_early(two), 2.0)


def check_covered():
    assert _close(tracing.covered([(0, 2), (1, 3), (5, 6)], 0, 10), 4.0)
    assert _close(tracing.covered([(0, 2), (1, 3)], 1.5, 2.5), 1.0)
    assert tracing.covered([], 0, 1) == 0.0


def run():
    for check in (check_percentiles, check_self_times, check_late_over_early,
                  check_covered):
        try:
            check()
        except AssertionError as exc:
            raise SystemExit(f"benchmark selfcheck {check.__name__} failed: "
                             f"{exc}") from None


if __name__ == "__main__":
    run()
    print("selfcheck ok")
