#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/check.py            # default seed, all workloads
    python3 perfbench/check.py --held-out # also the held-out seed

For every workload of BENCHMARK.json, and for fleet_churn, it checks that
  * the default seed runs with error_rate == 0 (no failed evaluation, no
    oracle mismatch) and correct == true;
  * two runs of one seed print the same sim_digest (simulated latencies,
    failure flags and registry counts), and a second seed prints another,
    so the seed reaches the generator;
  * the traced run prints every per_layer metric of BENCHMARK.json, writes
    a loadable Chrome trace, and its layer self times sum to the op time;
  * the plain run prints exactly the end_to_end metrics of BENCHMARK.json,
    with their units.
Each run uses --seconds 1, which is one pass per world.

It also runs fleet_churn on LIVELOCK_SEED, where the library never
quiesces after a crash batch (see README.md). That check fails until the
library is fixed; fleet_churn stays out of BENCHMARK.json until it passes.
"""

import json
import os
import re
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1
OTHER_SEED = 2
# Never used to tune the benchmark; later performance claims are checked on it.
HELD_OUT_SEED = 7919
# fleet_churn world 2 of this seed livelocks at step 4250.
LIVELOCK_SEED = 109
LIVELOCK_TIMEOUT_S = 120


def run(workload, seed, trace=0, timeout=None):
    """Runs the benchmark; returns (stdout, result, digest), or None when
    it did not finish within `timeout` seconds (the process group is
    killed)."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, proc.returncode))
    lines = out.rstrip("\n").split("\n")
    digest = re.search(r"^sim_digest (\w+)", out, re.M).group(1)
    return out, json.loads(lines[-1]), digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = [DEFAULT_SEED] + ([HELD_OUT_SEED] if "--held-out" in sys.argv
                              else [])
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    names = [w["name"] for w in spec["workloads"]] + ["fleet_churn"]
    for name in names:
        digests = {}
        for seed in seeds:
            _, res, digests[seed] = run(name, seed)
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] > 0,
                   "%s seed %d: error_rate == 0 over %d ops" %
                   (name, seed, res["attempted"]))
            want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, "%s seed %d: end_to_end metrics and units" %
                   (name, seed))
        _, _, again = run(name, DEFAULT_SEED)
        expect(again == digests[DEFAULT_SEED],
               "%s: same seed, same sim digest (%s)" % (name, again))
        _, _, other = run(name, OTHER_SEED)
        expect(other != digests[DEFAULT_SEED],
               "%s: another seed, another sim digest" % name)

        out, res, traced = run(name, DEFAULT_SEED, trace=1)
        expect(traced == digests[DEFAULT_SEED],
               "%s: tracing leaves the sim digest unchanged" % name)
        want = {m["name"] for m in spec["per_layer"]}
        expect(set(res["metrics"]) == want,
               "%s: every per_layer metric printed" % name)
        m = re.search(r"sum of layer self times .*\(of ([\d.]+) ms", out)
        layer = re.search(r"sum of layer self times\s+([\d.]+) ms", out)
        expect(m is not None and layer is not None and
               abs(float(layer.group(1)) - float(m.group(1))) <=
               1e-3 * float(m.group(1)) + 1e-3,
               "%s: layer self times account for the op time" % name)
        path = re.search(r"^chrome trace: (\S+)", out, re.M).group(1)
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        expect(len(events) > 0 and all(e["ph"] == "X" for e in events),
               "%s: chrome trace loads (%d spans)" % (name, len(events)))

    done = run("fleet_churn", LIVELOCK_SEED, timeout=LIVELOCK_TIMEOUT_S)
    expect(done is not None and done[1]["correct"],
           "fleet_churn seed %d finishes within %d s (known library "
           "livelock after a crash batch)" %
           (LIVELOCK_SEED, LIVELOCK_TIMEOUT_S))

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
