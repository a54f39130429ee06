#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it runs
run.py at smoke size, untraced and traced, and checks that

  * each run exits 0 and prints every metric BENCHMARK.json names for that
    mode, with its unit;
  * the traced and untraced runs produce byte-identical reports (the
    harness prints a hash of the report bytes), so the decorators and
    spans do not perturb the program;

and that layer_map.json places every per-layer metric exactly once and
points only at end-to-end metrics and workloads that exist.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    digest = [l.split(":", 1)[1].strip() for l in lines
              if l.startswith("# reports-fnv1a:")]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, digest, proc.stderr


def main():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    layer_map = load(os.path.join(HERE, "layer_map.json"))
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    mapped = [m for entry in layer_map["layers"] for m in entry["metrics"]]
    expect(sorted(mapped) == sorted(layers),
           "layer_map.json lists every per-layer metric exactly once")
    targets = [t for entry in layer_map["layers"] for t in entry["moves"]]
    expect(all(t["metric"] in e2e and t["workload"] in workloads
               for t in targets),
           "layer_map.json points at existing end-to-end metrics and workloads")

    for workload in workloads:
        digests = {}
        for trace, wanted in ((0, e2e), (1, layers)):
            code, result, digest, stderr = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            expect(code == 0 and result is not None and result["correct"],
                   label + " exits 0 with correct results")
            if code != 0:
                sys.stderr.write(stderr[-4000:])
            got = {} if result is None else {
                name: m.get("unit") for name, m in result["metrics"].items()}
            expect(got == wanted,
                   label + " prints every metric of BENCHMARK.json with its unit")
            digests[trace] = digest
        expect(len(digests[0]) == 1 and digests[0] == digests[1],
               workload + ": traced and untraced reports are byte-identical")

    print("selftest: %s" % ("PASS" if not failures else
                            "FAIL (%d)" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
