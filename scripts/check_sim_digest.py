#!/usr/bin/env python3
"""Pins the benchmark's simulated behaviour to committed digests.

    python3 scripts/check_sim_digest.py [--digests FILE]

For every entry of the digest file (default: SIM_DIGESTS.json at the
repository root) this runs

    python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0

and compares the `sim_digest` line it prints with the pinned value. The
digest hashes every simulated counter of a pass (sim times, wire bytes,
messages, cache hits, ...), one pass per world, so it does not depend on
run length once every world has run; one second is enough.

A change that moves a sim counter on purpose updates the file and says
why in CHANGES.md. Exit 0 when every digest matches; exit 1 with one
line per mismatch (workload, seed, expected and actual digest) or failed
run. The first run builds perfbench/ (see perfbench/run.py).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_DIGESTS = REPO_ROOT / "SIM_DIGESTS.json"
DIGEST_LINE = re.compile(r"^sim_digest ([0-9a-f]{16})\b", re.MULTILINE)


def load_entries(path: pathlib.Path) -> list[tuple[str, int, str]]:
    """(workload, seed, sim_digest) per entry of a digest file."""
    doc = json.loads(path.read_text())
    return [(str(e["workload"]), int(e["seed"]), str(e["sim_digest"]))
            for e in doc["digests"]]


def run_digest(workload: str, seed: int) -> str | None:
    """The sim_digest one perfbench run prints, or None if it failed."""
    cmd = [sys.executable, str(REPO_ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                          check=False, text=True)
    match = DIGEST_LINE.search(proc.stdout)
    if proc.returncode != 0 or match is None:
        return None
    return match.group(1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--digests", type=pathlib.Path, default=DEFAULT_DIGESTS,
                    help="digest file (default: SIM_DIGESTS.json)")
    args = ap.parse_args()

    failures: list[str] = []
    for workload, seed, expected in load_entries(args.digests):
        actual = run_digest(workload, seed)
        if actual is None:
            failures.append(f"{workload} seed {seed}: perfbench run failed")
        elif actual != expected:
            failures.append(f"{workload} seed {seed}: expected sim_digest "
                            f"{expected}, got {actual}")
        else:
            print(f"{workload} seed {seed}: sim_digest {actual} ok")
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
