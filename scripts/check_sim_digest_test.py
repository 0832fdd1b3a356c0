#!/usr/bin/env python3
"""Self-test for check_sim_digest.py: a digest file with one value
altered must fail, and the failure must name the workload, the seed,
the expected digest and the actual one.

This is what makes the digest gate load-bearing: a checker that stopped
comparing would pass here, and this test would fail. It runs perfbench
once (one second of the first pinned workload), building it first if
needed:
    python3 scripts/check_sim_digest_test.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_sim_digest as csd  # noqa: E402  (path bootstrap above)


def altered(digest: str) -> str:
    """`digest` with its last hex digit changed."""
    last = "0" if digest[-1] != "0" else "1"
    return digest[:-1] + last


class AlteredDigestTest(unittest.TestCase):
    def test_one_altered_digest_fails_and_is_named(self) -> None:
        workload, seed, pinned = csd.load_entries(csd.DEFAULT_DIGESTS)[0]
        wrong = altered(pinned)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "digests.json"
            path.write_text(json.dumps({"digests": [
                {"workload": workload, "seed": seed, "sim_digest": wrong},
            ]}))
            proc = subprocess.run(
                [sys.executable, str(pathlib.Path(csd.__file__)),
                 "--digests", str(path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                check=False, text=True)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn(f"{workload} seed {seed}", proc.stderr)
        self.assertIn(f"expected sim_digest {wrong}", proc.stderr)
        self.assertIn("got ", proc.stderr)


if __name__ == "__main__":
    unittest.main()
