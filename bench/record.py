"""Record the output digests that ``run.py`` compares every sample against.

    python3 bench/record.py

Only for a commit whose outputs are known to be right: a digest is written
only when the sample passed every oracle check.  Existing digests are kept,
so running this again adds missing entries and never overwrites one.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> int:
    book = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.is_file() else {}
    for name in run.WORKLOADS:
        for size in ("toy", "full"):
            key = f"{name}/{size}"
            if key in book:
                continue
            args = SimpleNamespace(workload=name, size=size)
            s = run.run_child(args, "plain", run.perf_counter() + 600)
            bad = run.sample_problems(s, None)
            if bad:
                print(f"{key}: not recorded: {bad}", file=sys.stderr)
                continue
            book[key] = s["digest"]
            print(f"{key}: {s['digest']}")
            run.EXPECTED.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
