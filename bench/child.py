"""One repetition of one workload, in a fresh interpreter.

Run by run.py, never imported.  Prints one JSON object on its last stdout
line.  The package comes from ``<root>/src``, so the numbers belong to the
checkout under test.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_package(root: Path) -> float:
    """Import the checkout's package and validate its catalog; the set-up time."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import permclosure

    permclosure.catalog_entries()
    elapsed = time.perf_counter() - start
    if src not in Path(permclosure.__file__).resolve().parents:
        raise SystemExit(f"permclosure was imported from {permclosure.__file__}, not {src}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    setup_s = load_package(args.root)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import permclosure
    import workloads

    expected = json.loads((HERE / "expected.json").read_text())

    def on_case(result):
        pass

    if args.trace:
        import layers
        import spans

        tracer = spans.Tracer(probes=layers.PROBES)
        counters = layers.Counters(tracer)
        spans.install(tracer)
        budgets = permclosure.default_budgets()

        def on_case(result):
            result.headroom = layers.headroom(counters.take_case(), budgets)

    results = workloads.RUNNERS[args.workload](args.seed, expected, on_case)
    out = {
        "setup_s": setup_s,
        "wall_s": sum(r.wall_s for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cases": [vars(r) for r in results],
    }
    if args.trace:
        out["layers"] = layers.metrics(tracer, counters, budgets)
        out["layer_self_s"] = tracer.layer_self_s()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
