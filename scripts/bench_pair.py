#!/usr/bin/env python3
"""Alternating pairs of one benchmark workload: a base revision against
the working tree.

usage: bench_pair.py BASE WORKLOAD SEED PAIRS [run.sh arguments...]

BASE (any git revision) is extracted with `git archive` into a temporary
directory. Each pair runs `bash bench/run.sh --workload WORKLOAD --seed
SEED` on the base tree, then on the working tree. Extra arguments (for
example --smoke) go to both runs. The script prints every pair's
readings of the metrics the workload measures, then for every
end-to-end metric each side's median and quartiles and how many pairs
the working tree won, by the metric's direction in BENCHMARK.json;
ties count for neither side. It exits non-zero when a run fails or
reports an incorrect result, never on the numbers.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def run(tree, workload, seed, extra):
    """One run.sh invocation: the last line's metrics and correctness,
    and the metrics the text marks as not measured on this workload."""
    out = subprocess.run(
        ["bash", "bench/run.sh", "--workload", workload, "--seed", seed] + extra,
        cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("bench-pair: run in %s failed (exit %d)" % (tree, out.returncode))
    res = json.loads(lines[-1])
    carried = {l.split()[0] for l in lines if "not measured on this workload" in l}
    return {k: v["value"] for k, v in res["metrics"].items()}, res["correct"], carried


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    if len(sys.argv) < 5:
        raise SystemExit(__doc__)
    base, workload, seed, pairs = sys.argv[1:5]
    extra = sys.argv[5:]
    here = os.getcwd()
    with open(os.path.join(here, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    tmp = tempfile.mkdtemp(prefix="bench-pair-")
    try:
        archive = subprocess.run(["git", "archive", base], cwd=here, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        sides = {"base": [], "tree": []}
        carried = set()
        bad = 0
        for i in range(int(pairs)):
            for side, tree in (("base", tmp), ("tree", here)):
                m, ok, c = run(tree, workload, seed, extra)
                sides[side].append(m)
                carried |= c
                bad += not ok
                shown = " ".join("%s=%.6g" % (k, m[k]) for k in sorted(m) if k not in carried or m[k] != 1)
                print("pair %2d %-4s %s%s" % (i + 1, side, shown, "" if ok else "  INCORRECT"), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("\n%s seed %s, %s pairs, base %s (parent first in every pair)" % (workload, seed, pairs, base))
    print("%-20s %-6s %36s %36s %6s" % ("metric", "better", "base median [q1, q3]", "tree median [q1, q3]", "wins"))
    for name in sorted(better):
        b = [m[name] for m in sides["base"]]
        t = [m[name] for m in sides["tree"]]
        sign = 1 if better[name] == "higher" else -1
        wins = sum(1 for x, y in zip(b, t) if sign * (y - x) > 0)
        bq, tq = quartiles(b), quartiles(t)
        note = "  (not measured here: neutral or carried reading)" if name in carried else ""
        print("%-20s %-6s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] %3d/%d%s" % (
            name, better[name], bq[1], bq[0], bq[2], tq[1], tq[0], tq[2], wins, len(b), note))
    if bad:
        raise SystemExit("bench-pair: %d run(s) reported an incorrect result" % bad)


if __name__ == "__main__":
    main()
