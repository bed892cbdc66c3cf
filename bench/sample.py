"""One cold sample: a fresh interpreter imports qcontract, builds one
workload's inputs, runs its check once and checks the output.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the program's sources;
prints one JSON object as its last line of output.  Timing starts before
the first ``qcontract`` import, so no memo of an earlier sample can help.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Far above what any workload charges, so an inherited QCONTRACT_BUDGET or
# the default limit can never end a sample with BudgetExceeded.
SAMPLE_BUDGET = 10 ** 10
NO_PROGRAM = 3   # exit code: the program itself is missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), default="plain")
    ap.add_argument("--spans", help="file to write the traced run's spans to")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]

    t0 = perf_counter()
    try:
        from qcontract import _budget
    except ImportError as exc:
        print(f"qcontract does not import: {exc}", file=sys.stderr)
        return NO_PROGRAM
    _budget.set_budget(SAMPLE_BUDGET)
    inputs = wl.setup(args.size)
    setup_s = perf_counter() - t0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    check = wl.check
    tracer = None
    if args.mode == "traced":
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)
        check = tracer.span("check", check)
    budget = _budget.set_budget(SAMPLE_BUDGET)
    try:
        t1 = perf_counter()
        output = check(inputs)
        out["verdict_s"] = perf_counter() - t1
    except Exception as exc:  # a failed sample is reported, not fatal
        out["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
        output = None
    out["budget_used"] = budget.used
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if output is not None:
        out["failures"] = wl.verify(inputs, output)
        out["digest"] = hashlib.sha256(wl.canonical(output).encode()).hexdigest()
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer)
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
