"""The permclosure benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Each repetition of a workload runs in a fresh interpreter (child.py), so
every cache starts cold, as it does for a command-line user.  With
``--trace 0`` the run repeats the workload while another repetition still
fits in ``--seconds`` (at least once), times the package's set-up in fresh
interpreters before and after, and reports the end-to-end metrics of
BENCHMARK.json as medians.  With ``--trace 1`` it runs
the workload once untraced and once traced, prints each case with its
budget headroom and each layer's self time, and reports the per-layer
metrics.  The last stdout line is the JSON result.  Workloads, metrics and
reference numbers are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("survey", "verify", "closures", "orbit_equiv")
SEEDED = ("closures", "orbit_equiv")  # the others run fixed inputs
# Set-up probes run half before and half after the repetitions, so that
# the median samples the machine at both ends of the run.
SETUP_PROBES = 8
RUN_LIMIT_S = 170  # every child is stopped by then, inside the 180 s allowed


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    """The caller's environment without anything that changes budgets or imports."""
    return {
        key: value for key, value in os.environ.items()
        if not key.startswith("PERMCLOSURE_") and key != "PYTHONPATH"
    }


def run_child(root: Path, args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a repetition")
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(root), *args]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, env=child_env()
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition still running after {RUN_LIMIT_S} s: {args}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: {args}")
    return json.loads(lines[-1])


def describe_failures(cases: list[dict]) -> list[str]:
    return [
        f"{c['outcome'].upper()} {c['case']}: {c['detail']}"
        for c in cases if c["outcome"] in ("wrong", "error")
    ]


def setup_probes(root: Path, count: int, deadline: float) -> list[float]:
    return [run_child(root, ["--setup-only"], deadline)["setup_s"] for _ in range(count)]


def untraced(root: Path, workload: str, seed: int, seconds: float, deadline: float):
    setups = setup_probes(root, SETUP_PROBES // 2, deadline)
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_child(
            root, ["--workload", workload, "--seed", str(seed), "--trace", "0"], deadline
        ))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    setups += setup_probes(root, SETUP_PROBES - SETUP_PROBES // 2, deadline)
    setups += [r["setup_s"] for r in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    print(f"{len(reps)} repetitions, {len(setups)} set-ups")
    return metrics, [c for r in reps for c in r["cases"]]


def traced(root: Path, workload: str, seed: int, deadline: float):
    args = ["--workload", workload, "--seed", str(seed)]
    plain = run_child(root, args + ["--trace", "0"], deadline)
    rep = run_child(root, args + ["--trace", "1"], deadline)
    cases = rep["cases"]
    metrics = dict(rep["layers"])
    metrics["trace.overhead_s"] = rep["wall_s"] - plain["wall_s"]
    metrics["fail_share"] = sum(c["outcome"] != "ok" for c in cases) / len(cases)
    print(f"wall_s untraced {plain['wall_s']:.3f} s, traced {rep['wall_s']:.3f} s")
    print("cases (wall_s, outcome, budget headroom):")
    for c in cases:
        room = ", ".join(
            f"{key} {h['used']}/{h['budget']} ({h['share']:.2%})"
            for key, h in (c["headroom"] or {}).items()
        )
        print(f"  {c['case']}: {c['wall_s']:.4f} s {c['outcome']} {c['detail']} [{room}]")
    print("layer self time:")
    for layer, value in sorted(rep["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer}: {value:.3f} s")
    return metrics, cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "permclosure" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a permclosure checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, cases = traced(root, args.workload, args.seed, deadline)
        else:
            metrics, cases = untraced(root, args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    seeded = "uses" if args.workload in SEEDED else "ignores"
    print(f"workload {args.workload} {seeded} seed {args.seed}")
    for line in describe_failures(cases):
        print(line)
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]} {m['unit']}")
    failed = sum(c["outcome"] in ("wrong", "error") for c in cases)
    result = {
        "correct": failed == 0,
        "attempted": len(cases),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
