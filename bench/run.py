"""qcontract benchmark: cold time-to-verdict on three exact-algebra workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src``.
The load is a closed loop with one client: one check at a time, each in a
fresh interpreter (``sample.py``), because every ``qcontract`` invocation
pays the cold cost and no memo may carry over from one sample to the next.

``--trace 0`` runs samples for ``--seconds`` seconds and reports the
end-to-end metrics: the median ``verdict_s`` (inputs built -> report
returned), the median ``setup_s`` (import qcontract and build the inputs,
also taken from extra set-up-only interpreters) and the median
``peak_rss_mb``.  ``--trace 1`` runs one untraced sample as the base and
then traced samples, and reports the per-layer metrics of ``layers.py``.

Every sample's output is checked against oracles and against the digest
recorded in ``expected.json``; a sample that raises or fails a check counts
as failed.  Work counts must repeat exactly across the samples of a run,
since a count that moves means state leaked between samples.  The last line
of output is one JSON object: correct, attempted, failed, metrics.  The line
before it carries the details: every sample, the failures, the seed, and
the machine (Python version, CPU count and model, git commit).
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"
EXPECTED = BENCH / "expected.json"
sys.path.insert(0, str(BENCH))

import sample  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every run must end within 180 s; a child still running past this is
# killed and counted as failed.
HARD_LIMIT_S = 170.0
# Set-up-only interpreters run before each verdict sample, so that set-up
# times are taken all through the run: this machine's speed changes from
# second to second, and a burst of them would catch one moment only.
SETUPS_PER_SAMPLE = 4


class Fatal(Exception):
    """The program cannot be run at all (not there, or does not import)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QCONTRACT_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args, mode: str, deadline: float, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", args.workload,
           "--size", args.size, "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        return {"error": "sample timed out", "wall_s": perf_counter() - t0}
    wall = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == sample.NO_PROGRAM:
        raise Fatal(proc.stderr.strip())
    if proc.returncode != 0 or not lines:
        return {"error": f"sample exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}", "wall_s": wall}
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    return out


def expected_digest(args):
    return json.loads(EXPECTED.read_text()).get(f"{args.workload}/{args.size}")


def sample_problems(s: dict, want_digest) -> list[str]:
    if "error" in s:
        return [s["error"]]
    bad = list(s.get("failures", []))
    if want_digest is not None and s.get("digest") != want_digest:
        bad.append(f"output digest {s.get('digest')} differs from the recorded {want_digest}")
    return bad


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "git_commit": git_commit()}


def measure(args) -> tuple[list[dict], list[dict], list[str]]:
    """Run the samples of one run; returns (verdict samples, set-up-only
    samples, determinism problems)."""
    start = perf_counter()
    deadline = start + HARD_LIMIT_S
    budget_end = start + args.seconds
    samples: list[dict] = []
    setups: list[dict] = []

    def fits(cost: float) -> bool:
        return perf_counter() + cost <= budget_end

    if args.trace:
        samples.append(dict(run_child(args, "plain", deadline), mode="plain"))
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"{args.workload}-{args.size}.json"
        while True:
            samples.append(dict(run_child(args, "traced", deadline, spans), mode="traced"))
            traced = [s["wall_s"] for s in samples if s["mode"] == "traced"]
            if not fits(max(traced)):
                break
    else:
        while True:
            for _ in range(SETUPS_PER_SAMPLE):
                setups.append(run_child(args, "setup", deadline))
            samples.append(dict(run_child(args, "plain", deadline), mode="plain"))
            step = (max(s["wall_s"] for s in samples)
                    + SETUPS_PER_SAMPLE * max(s["wall_s"] for s in setups))
            if not fits(step):
                break

    problems = []
    used = {s["budget_used"] for s in samples if "budget_used" in s}
    if len(used) > 1:
        problems.append(f"budget.used differs between samples: {sorted(used)}")
    traced = [s for s in samples if "layers" in s]
    for name in (traced[0]["layers"] if traced else {}):
        if traced[0]["layers"][name][1] == "count":
            vals = {s["layers"][name][0] for s in traced}
            if len(vals) > 1:
                problems.append(f"{name} differs between traced samples: {sorted(vals)}")
    return samples, setups, problems


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="recorded in the output; every workload's inputs are "
                         "fixed mathematical data, so none depends on it")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy runs a short version, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "qcontract" / "__init__.py").is_file():
        print(f"bench: no qcontract sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so that no sample pays for compiling the sources
    compileall.compile_dir(str(SRC / "qcontract"), quiet=1)
    compileall.compile_dir(str(BENCH), maxlevels=0, quiet=1)
    try:
        samples, setups, problems = measure(args)
    except Fatal as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    want = expected_digest(args)
    failed = 0
    for s in samples:
        s["problems"] = sample_problems(s, want)
        failed += bool(s["problems"])
    ok = [s for s in samples if not s["problems"]]
    for p in problems:
        print(f"bench: DETERMINISM FAILURE: {p}", file=sys.stderr)
    for s in samples:
        for p in s["problems"]:
            print(f"bench: sample failed: {p}", file=sys.stderr)
    if not ok:
        print("bench: no sample completed", file=sys.stderr)
        return 1

    plain = [s for s in ok if s["mode"] == "plain"]
    traced = [s for s in ok if s["mode"] == "traced"]
    if args.trace:
        if not plain or not traced:
            print("bench: the traced run needs a good plain and traced sample",
                  file=sys.stderr)
            return 1
        base = median_of(plain, "verdict_s")
        with_trace = median_of(traced, "verdict_s")
        metrics = {}
        for name, (value, unit) in traced[0]["layers"].items():
            if unit != "count":   # counts are equal across samples, checked above
                value = statistics.median(s["layers"][name][0] for s in traced)
            metrics[name] = {"value": value, "unit": unit}
        metrics["budget.used"] = {"value": traced[0]["budget_used"], "unit": "count"}
        metrics["trace.overhead_ratio"] = {"value": with_trace / base, "unit": "ratio"}
        metrics["trace.base_verdict_s"] = {"value": base, "unit": "s"}
    else:
        metrics = {
            "verdict_s": {"value": median_of(plain, "verdict_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(
                s["setup_s"] for s in setups + plain if "setup_s" in s), "unit": "s"},
            "peak_rss_mb": {"value": median_of(plain, "peak_rss_mb"), "unit": "MB"},
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "seed_used": False,
        "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "samples": len(samples), "failed_frac": failed / len(samples),
        "budget_used": sorted({s["budget_used"] for s in ok}),
        "digest": "checked" if want else "none recorded",
        "determinism_problems": problems,
        "verdict_s": {mode: [s["verdict_s"] for s in group]
                      for mode, group in (("plain", plain), ("traced", traced)) if group},
        "setup_s": [s["setup_s"] for s in setups + samples if "setup_s" in s],
        "spans": traced[0]["spans"] if traced else 0,
        **machine(),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
