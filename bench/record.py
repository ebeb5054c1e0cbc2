"""Record the expected answers in expected.json.

Run from the repository root on the commit whose answers are the reference:

    python3 bench/record.py

It records the stdout digest and exit code of each CLI command, the group
order, closure order and closure generators of each closure case in its
unrelabeled form, and each orbit-equivalence verdict.  Closures are
cross-checked against ``closure_kearnes`` up to degree 6 and against
``closure_naive`` up to degree 9, and verdicts against Burnside orbit
counts; a disagreement stops the recording.  The naive scan of all 10!
permutations takes too long to repeat for every case, so the cases of
degree 10 to 12 are recorded without a cross-check.  Takes about ten
minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import permclosure as pc  # noqa: E402
import workloads  # noqa: E402

NAIVE_MAX_DEGREE = 9
KEARNES_MAX_DEGREE = 6


def record_commands(commands) -> dict:
    out = {}
    for argv in commands:
        code, text, _wall, _cpu = workloads.run_command(argv)
        out[" ".join(argv)] = {"exit": code, "sha256": workloads.digest(text)}
        print(" ".join(argv), code, flush=True)
    return out


def record_closures() -> dict:
    out = {}
    for name, k, gens in workloads.closure_cases():
        group = pc.generate_group([pc.Permutation(g) for g in gens])
        try:
            report = pc.closure_pruned(group, k)
        except pc.BudgetExceeded as exc:
            out[name] = {"group_order": group.order, "refused": exc.budget_name}
            print(name, "refused", flush=True)
            continue
        checked = []
        if group.degree <= KEARNES_MAX_DEGREE:
            if pc.closure_kearnes(group, k).closure != report.closure:
                raise SystemExit(f"{name}: kearnes disagrees with pruned")
            checked.append("kearnes")
        if group.degree <= NAIVE_MAX_DEGREE:
            if pc.closure_naive(group, k).closure != report.closure:
                raise SystemExit(f"{name}: naive disagrees with pruned")
            checked.append("naive")
        out[name] = {
            "group_order": group.order,
            "closure_order": report.closure.order,
            "closure_generators": [list(g.images) for g in report.closure.generators],
            "cross_checked": checked,
        }
        print(name, report.closure.order, checked, flush=True)
    return out


def record_orbit_equiv() -> dict:
    out = {}
    for name, chain, g_name, h_name, k in workloads.orbit_cases():
        g, h = (
            pc.generate_group([pc.Permutation(x) for x in chain.groups[m][0]])
            for m in (g_name, h_name)
        )
        if not g.is_subgroup_of(h):
            raise SystemExit(f"{name}: not a nested pair")
        burnside = workloads.orbit_count(g, k) == workloads.orbit_count(h, k)
        if pc.orbit_equivalent(g, h, k) != burnside:
            raise SystemExit(f"{name}: orbit_equivalent disagrees with Burnside")
        out[name] = burnside
        print(name, burnside, flush=True)
    return out


def main() -> int:
    expected = {
        "survey": record_commands(workloads.SURVEY_COMMANDS),
        "verify": record_commands(workloads.VERIFY_COMMANDS),
        "orbit_equiv": record_orbit_equiv(),
        "closures": record_closures(),
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
