"""Self-test of the benchmark itself (not of degenkit).

    python3 bench/selftest.py

1. The benchmark's own random-family generator, drawn with seed 2024,
   reproduces the 100 non-empty instances of acceptance criterion 2 (the
   problems and their covariant tables), checked against ``tests/helpers.py``.
2. Two traced passes of each workload give identical counters, per layer
   and per op, and identical answer digests; at P1 degree 5, genus 2 the
   structure walk yields 17,005 structures.

Exits 0 when every check holds.
"""

from __future__ import annotations

import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402

P1_D5_G2_STRUCTURES = 17005
SEED = 1


def check_gate_reproduction():
    child.import_engine()
    sys.path.insert(0, str(ROOT / "tests"))
    import helpers
    import workloads
    from degenkit import jsonio
    from degenkit.correlator import needed_keys

    ours, theirs = random.Random(workloads.GATE_SEED), random.Random(workloads.GATE_SEED)
    found = draws = 0
    while found < workloads.RANDOM_SUITE_SIZE:
        draws += 1
        problem, insertions = workloads.random_problem(ours, max_legs=2)
        ref_problem, ref_insertions = helpers.random_problem(theirs, max_legs=2)
        assert jsonio.problem_to_dict(problem) == jsonio.problem_to_dict(ref_problem), draws
        assert insertions == ref_insertions, draws
        keys = needed_keys(problem, insertions)
        if not keys:
            continue
        found += 1
        table = workloads.covariant_table(keys, problem.divisor, problem.ambient, ours)
        ref = helpers.covariant_random_table(keys, ref_problem.divisor, ref_problem.ambient,
                                             theirs)
        assert table.items() == ref.items(), draws
    print("PASS gate reproduction: seed %d gives criterion 2's %d instances in %d draws"
          % (workloads.GATE_SEED, found, draws))


def traced_pass(workload, seed, workdir):
    result = run.spawn(workload, seed, "pass", 1, workdir, time.monotonic() + run.RUN_TIMEOUT_S)
    failures = run.check_passes([result])
    assert not failures, failures
    counts = {k: v for k, v in result["layers"].items() if not k.endswith("_s")}
    per_op = {op["name"]: op["counts"] for op in result["ops"]}
    return counts, per_op, result["digest"]


def check_traced_repeat(workload, seed):
    workdir = run.OUT / "work" / ("selftest-%s" % workload)
    run.OUT.mkdir(exist_ok=True)
    try:
        first = traced_pass(workload, seed, workdir)
        second = traced_pass(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert first == second, "traced counters or digests differ between two passes"
    counts, per_op, digest = first
    if workload == "p1_grid":
        walked = per_op["d5_g2"]["splitting.structures"]
        assert walked == P1_D5_G2_STRUCTURES, walked
        print("  d5_g2: %d structures, %d canonical_form calls"
              % (walked, per_op["d5_g2"]["graphs.canonical_calls"]))
    print("PASS %s: two traced passes agree on %d counters, answers %s"
          % (workload, len(counts), digest[:16]))
    for name in sorted(counts):
        print("  %-30s %s" % (name, counts[name]))


def main():
    check_gate_reproduction()
    for workload in run.WORKLOADS:
        check_traced_repeat(workload, SEED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
