#!/usr/bin/env python3
"""Check one seed-42 scale-1 profile against the golden digest table.

Usage: golden_digest.py SIMPROF GOLDEN_JSON CONFIG

Runs `SIMPROF profile CONFIG --seed 42 --checkpoint-stride 0 --no-manifest`
in a private temporary directory and compares the sha256 of the profile it
writes with `profiles_sha256[CONFIG]` in GOLDEN_JSON, which it only reads.
Exits 0 on a match and 1 on a mismatch or a failed run.
"""
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    simprof, golden, cfg = sys.argv[1:]
    simprof = str(Path(simprof).resolve())  # the run's cwd is a temp dir
    want = json.loads(Path(golden).read_text())["profiles_sha256"][cfg]
    with tempfile.TemporaryDirectory(prefix=f"simprof_golden_{cfg}_") as tmp:
        out = Path(tmp) / f"{cfg}.sprf"
        run = subprocess.run(
            [simprof, "profile", cfg, "--seed", "42", "--checkpoint-stride",
             "0", "--no-manifest", "--out", str(out)],
            cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        if run.returncode != 0:
            print(f"{cfg}: simprof profile exited {run.returncode}\n"
                  f"{run.stderr}", file=sys.stderr)
            return 1
        got = hashlib.sha256(out.read_bytes()).hexdigest()
    print(f"{cfg} {got}")
    if got != want:
        print(f"{cfg}: sha256 {got} != golden {want}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
