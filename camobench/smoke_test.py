#!/usr/bin/env python3
"""Smoke test of the camobench benchmark at a tiny size of every workload.

    python3 camobench/smoke_test.py [WORKLOAD ...]

For each workload in BENCHMARK.json (or the ones named):
  - an untraced run ends with one JSON object {correct, attempted,
    failed, metrics} holding every end_to_end metric with its unit;
  - a traced run holds every per_layer metric with its unit, and
    writes its spans;
  - the 'workload-metrics' line names every metric workloads.json
    lists for the workload, with its unit;
  - a second untraced run with the same seed repeats the simulated
    figures and the statistics digest exactly.
Exits 1 and says what is missing on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (
            " ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    notes = {}
    for line in lines[:-1]:
        if line.startswith("camobench: workload-metrics "):
            info = json.loads(line[len("camobench: workload-metrics "):])
        elif line.startswith("camobench: sim.stats_digest "):
            notes["digest"] = line.split()[-1]
    return result, info, notes


def check_metrics(where, got, expected):
    errors = []
    for name, unit in expected.items():
        if name not in got:
            errors.append("%s: missing %s" % (where, name))
        elif got[name].get("unit") != unit:
            errors.append("%s: %s has unit %r, expected %r" % (
                where, name, got[name].get("unit"), unit))
        elif not isinstance(got[name].get("value"), (int, float)):
            errors.append("%s: %s has no numeric value" % (where, name))
    return errors


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        facts = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = sys.argv[1:] or [w["name"] for w in bench["workloads"]]

    errors = []
    for w in names:
        before = len(errors)
        try:
            result, info, notes = run(w, 0)
            again, info2, notes2 = run(w, 1)
            repeat, info3, notes3 = run(w, 0)
        except (AssertionError, ValueError, IndexError) as e:
            errors.append("%s: %s" % (w, e))
            continue
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            errors.append("%s: result keys %s" % (w, sorted(result)))
        if result["attempted"] < 1:
            errors.append("%s: attempted %d" % (w, result["attempted"]))
        errors += check_metrics(w + " end-to-end", result["metrics"], e2e)
        if set(result["metrics"]) != set(e2e):
            errors.append("%s: end-to-end names %s" % (
                w, sorted(result["metrics"])))
        errors += check_metrics(w + " per-layer", again["metrics"], layers)
        if set(again["metrics"]) != set(layers):
            errors.append("%s: per-layer names %s" % (
                w, sorted(again["metrics"])))
        errors += check_metrics(w + " workload-metrics", info,
                                facts["workloads"][w]["metrics"])
        spans = os.path.join(REPO, ".bench_build", "run",
                             "spans-%s-%d.json" % (w, SEED))
        if not os.path.isfile(spans):
            errors.append("%s: traced run wrote no %s" % (w, spans))
        if not notes.get("digest") or notes != notes3:
            errors.append("%s: digest did not repeat: %s vs %s" % (
                w, notes, notes3))
        for sim in ("shaping_slowdown", "leak_mi_bits",
                    "covert_capacity_bits"):
            if sim in info and info[sim] != info3.get(sim):
                errors.append("%s: %s did not repeat" % (w, sim))
        print("%s: ok=%s attempted=%d failed=%d digest=%s" % (
            w, len(errors) == before, result["attempted"], result["failed"],
            notes.get("digest")))

    for e in errors:
        print("FAIL " + e)
    print("smoke: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
