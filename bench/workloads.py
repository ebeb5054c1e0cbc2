"""The four workloads, their inputs and their oracles.

Each workload is a closed loop with one caller: a case starts when the
previous one returns.  Only the calls into the package are timed; building
the inputs and checking the answers happen outside the timed region.  The
seed relabels points in ``closures`` and ``orbit_equiv``; every expected
answer is invariant under relabeling, so the checks hold for any seed.
``survey`` and ``verify`` run fixed commands and ignore the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

# Calls go through the package namespace, which the tracer patches.
import permclosure as pc
from permclosure import BudgetExceeded, Permutation, catalog_entries
from permclosure import cli

SURVEY_COMMANDS = (("table1", "--format", "json"),)
VERIFY_COMMANDS = (
    ("verify", "--theorem", "primitive3", "--n", "9", "--format", "json"),
    ("verify", "--theorem", "seress", "--n", "9", "--format", "json"),
    ("verify", "--theorem", "main", "--format", "json"),
    ("verify", "--theorem", "wielandt", "--format", "json"),
)

# ---------------------------------------------------------------------------
# generators and relabeling (1-based image lists, built without the package)


def cycle_perm(degree: int, *cycles: tuple[int, ...]) -> list[int]:
    img = list(range(1, degree + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a - 1] = b
    return img


def cyclic_gens(n: int) -> list[list[int]]:
    return [cycle_perm(n, tuple(range(1, n + 1)))]


def dihedral_gens(n: int) -> list[list[int]]:
    flip = [1] + [n + 2 - v for v in range(2, n + 1)]
    return cyclic_gens(n) + [flip]


def symmetric_gens(points: tuple[int, ...], degree: int) -> list[list[int]]:
    return [cycle_perm(degree, points[:2]), cycle_perm(degree, points)]


def alternating_gens(points: tuple[int, ...], degree: int) -> list[list[int]]:
    a, b = points[:2]
    return [cycle_perm(degree, (a, b, c)) for c in points[2:]]


def random_relabeling(rng: random.Random, degree: int) -> list[int]:
    pi = list(range(1, degree + 1))
    rng.shuffle(pi)
    return pi


def pattern_relabeling(rng: random.Random, degree: int, k: int) -> list[int]:
    """A relabeling that permutes points only inside the value classes of the
    balanced pattern closure_pruned prunes with: min(k, n) runs of
    consecutive points, sizes as equal as possible, larger runs first.

    The pool stab(a*) . G has |stab(a*)| / |stab(a*) & G| cosets, and a
    relabeling that moves points between classes changes |stab(a*) & G|:
    a uniform one shrinks the pool of PGL(2,9) at k=2 from 2,592,000 to
    1,036,800 on some seeds, and grows that of D_10 at k=2 from 144,000 to
    288,000.  Inside the classes the pool is the same for every seed and
    only the labels change.
    """
    kk = min(k, degree)
    q, r = divmod(degree, kk)
    pi, start = [], 1
    for j in range(kk):
        block = list(range(start, start + q + (j < r)))
        rng.shuffle(block)
        pi += block
        start += len(block)
    return pi


def relabel(img: list[int], pi: list[int]) -> list[int]:
    """pi * g * pi^-1 as a 1-based image list: point pi(x) goes to pi(g(x))."""
    out = [0] * len(img)
    for x, gx in enumerate(img):
        out[pi[x] - 1] = pi[gx - 1]
    return out


def case_rng(seed: int, case: str) -> random.Random:
    return random.Random(f"{seed}/{case}")


# ---------------------------------------------------------------------------
# results


@dataclass
class CaseResult:
    case: str
    wall_s: float
    cpu_s: float
    outcome: str  # ok, refused (as expected), wrong, error
    detail: str = ""
    headroom: dict | None = None


class Clock:
    """Wall and CPU time around the calls into the package."""

    def __enter__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu
        return False


# ---------------------------------------------------------------------------
# survey and verify: CLI commands in one interpreter, stdout digested


def run_command(argv: tuple[str, ...]) -> tuple[int, str, float, float]:
    out = io.StringIO()
    with Clock() as clock, contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue(), clock.wall, clock.cpu


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_commands(commands, expected: dict, on_case: Callable) -> list[CaseResult]:
    results = []
    for argv in commands:
        name = " ".join(argv)
        want = expected[name]
        try:
            code, text, wall, cpu = run_command(argv)
        except Exception as exc:  # a crash is reported as this case's answer
            results.append(CaseResult(name, 0.0, 0.0, "error", repr(exc)))
            on_case(results[-1])
            continue
        outcome, detail = "ok", ""
        if code != want["exit"]:
            outcome, detail = "wrong", f"exit {code}, expected {want['exit']}"
        elif digest(text) != want["sha256"]:
            outcome, detail = "wrong", "stdout digest differs from the recorded one"
        results.append(CaseResult(name, wall, cpu, outcome, detail))
        on_case(results[-1])
    return results


def run_survey(seed: int, expected: dict, on_case: Callable) -> list[CaseResult]:
    return _run_commands(SURVEY_COMMANDS, expected["survey"], on_case)


def run_verify(seed: int, expected: dict, on_case: Callable) -> list[CaseResult]:
    return _run_commands(VERIFY_COMMANDS, expected["verify"], on_case)


# ---------------------------------------------------------------------------
# closures: generate_group on relabeled generators, then closure_pruned


def closure_cases() -> list[tuple[str, int, list[list[int]]]]:
    """(case name, alphabet size, 1-based generators), in batch order."""
    cases = []
    for n in (8, 9, 10, 11):
        for k in (2, 3):
            cases.append((f"C_{n}/k{k}", k, cyclic_gens(n)))
    for n in (8, 9, 10):
        for k in (2, 3):
            cases.append((f"D_{n}/k{k}", k, dihedral_gens(n)))
    entries = {e.name: e for e in catalog_entries()}
    for name, ks in CATALOG_CLOSURES:
        gens = [list(g.images) for g in entries[name].generators]
        for k in ks:
            cases.append((f"{name}/k{k}", k, gens))
    cases.append(("D_12/k2", 2, dihedral_gens(12)))
    return cases


# Catalog groups of degree 6..10.  Left out for run length: PSL(2,8) and
# PGammaL(2,8) at k=2 (their closure is S_9, the rebuild that `verify`
# already measures), PGammaL(2,9) (the same pool as PGL(2,9)) and
# PGL(2,9) at k=3; AGammaL(1,9) and ASL(2,3) at k=2 repeat the
# 207,360-candidate pool of AGL(1,9) and AGL(2,3).
CATALOG_CLOSURES = (
    ("PGL(2,5)", (2, 3)), ("C_3 wr S_2", (2, 3)), ("S_3 wr S_2", (2, 3)),
    ("S_3 wr_sd S_2", (2, 3)), ("(S_3 wr S_2) cap A_6", (2, 3)),
    ("R(cube)", (2, 3)), ("S(cube)", (2, 3)), ("F_21", (2, 3)),
    ("AGL(1,8)", (2, 3)), ("AGammaL(1,8)", (2, 3)), ("ASL(3,2)", (2, 3)),
    ("AGL(1,9)", (2, 3)), ("AGammaL(1,9)", (3,)), ("ASL(2,3)", (3,)),
    ("AGL(2,3)", (2, 3)), ("PSL(2,8)", (3,)), ("PGammaL(2,8)", (3,)),
    ("PGL(2,9)", (2,)),
)


def check_closure(group, report, want: dict, pi: list[int]) -> str:
    """Empty when the answer matches the record, else what differs."""
    if group.order != want["group_order"]:
        return f"group order {group.order}, expected {want['group_order']}"
    closure = report.closure
    if closure.order != want["closure_order"]:
        return f"closure order {closure.order}, expected {want['closure_order']}"
    for gen in want["closure_generators"]:
        if Permutation(relabel(gen, pi)) not in closure:
            return "closure lacks a relabeled generator of the recorded closure"
    return ""


def run_closures(seed: int, expected: dict, on_case: Callable) -> list[CaseResult]:
    results = []
    records = expected["closures"]
    for name, k, gens in closure_cases():
        want = records[name]
        pi = pattern_relabeling(case_rng(seed, name), len(gens[0]), k)
        perms = [Permutation(relabel(g, pi)) for g in gens]
        report = refusal = None
        try:
            with Clock() as clock:
                group = pc.generate_group(perms)
                try:
                    report = pc.closure_pruned(group, k)
                except BudgetExceeded as exc:
                    refusal = exc
        except Exception as exc:
            results.append(CaseResult(name, 0.0, 0.0, "error", repr(exc)))
            on_case(results[-1])
            continue
        if refusal is not None:
            ok = want.get("refused") == refusal.budget_name
            outcome = "refused" if ok else "wrong"
            detail = f"{refusal.budget_name} budget: needs {refusal.needed}, allows {refusal.allowed}"
        elif "refused" in want:
            outcome, detail = "wrong", f"expected a {want['refused']} budget refusal"
        else:
            detail = check_closure(group, report, want, pi)
            outcome = "wrong" if detail else "ok"
        results.append(CaseResult(name, clock.wall, clock.cpu, outcome, detail))
        on_case(results[-1])
    return results


# ---------------------------------------------------------------------------
# orbit_equiv: verdicts on nested pairs, checked by Burnside orbit counts


@dataclass(frozen=True)
class Chain:
    """Nested groups sharing one relabeling, and the pairs G <= H to decide."""

    name: str
    degree: int
    groups: dict  # group name -> (1-based generators, order)
    pairs: tuple[tuple[str, str], ...]


def _catalog_chain(name: str, members: tuple[str, ...], pairs) -> Chain:
    entries = {e.name: e for e in catalog_entries()}
    groups = {
        m: ([list(g.images) for g in entries[m].generators], entries[m].order)
        for m in members
    }
    return Chain(name, entries[members[0]].degree, groups, tuple(pairs))


def _product(kinds: str, sizes: tuple[int, int]) -> tuple[list[list[int]], int]:
    degree = sum(sizes)
    left = tuple(range(1, sizes[0] + 1))
    right = tuple(range(sizes[0] + 1, degree + 1))
    gens, order = [], 1
    for kind, points in zip(kinds, (left, right)):
        if kind == "A":
            gens += alternating_gens(points, degree)
            order *= math.factorial(len(points)) // 2
        else:
            gens += symmetric_gens(points, degree)
            order *= math.factorial(len(points))
    return gens, order


def orbit_chains() -> list[Chain]:
    products9 = {
        f"{a}_5x{b}_4": _product(a + b, (5, 4)) for a in "AS" for b in "AS"
    }
    products8 = {f"{a}_4x{a}_4": _product(a + a, (4, 4)) for a in "AS"}
    return [
        Chain("A_5xA_4<=S_5xS_4", 9, products9, (
            ("A_5xA_4", "A_5xS_4"), ("A_5xA_4", "S_5xA_4"), ("A_5xS_4", "S_5xS_4"),
            ("S_5xA_4", "S_5xS_4"), ("A_5xA_4", "S_5xS_4"),
        )),
        _catalog_chain(
            "AGL(1,9)<=AGL(2,3)", ("AGL(1,9)", "AGammaL(1,9)", "ASL(2,3)", "AGL(2,3)"),
            (("AGL(1,9)", "AGammaL(1,9)"), ("AGammaL(1,9)", "AGL(2,3)"),
             ("ASL(2,3)", "AGL(2,3)")),
        ),
        Chain("A_4xA_4<=S_4xS_4", 8, products8, (("A_4xA_4", "S_4xS_4"),)),
        _catalog_chain(
            "PSL(2,8)<=PGammaL(2,8)", ("PSL(2,8)", "PGammaL(2,8)"),
            (("PSL(2,8)", "PGammaL(2,8)"),),
        ),
    ]


ORBIT_ALPHABETS = (3, 4)


def orbit_count(group, k: int) -> int:
    """Burnside: the number of orbits on k^n is the mean of k^cycles(g)."""
    total = sum(k ** len(p.cycle_type()) for p in group)
    if total % group.order:
        raise ArithmeticError("Burnside sum is not a multiple of the group order")
    return total // group.order


def orbit_cases() -> list[tuple[str, Chain, str, str, int]]:
    cases = []
    for chain in orbit_chains():
        for k in ORBIT_ALPHABETS:
            for g, h in chain.pairs:
                cases.append((f"{g}<={h}/k{k}", chain, g, h, k))
    return cases


def run_orbit_equiv(seed: int, expected: dict, on_case: Callable) -> list[CaseResult]:
    results = []
    records = expected["orbit_equiv"]
    built: dict[tuple[str, str], object] = {}
    relabelings = {}
    for name, chain, g_name, h_name, k in orbit_cases():
        pi = relabelings.get(chain.name)
        if pi is None:
            pi = relabelings[chain.name] = random_relabeling(case_rng(seed, chain.name), chain.degree)
        todo = [m for m in (g_name, h_name) if (chain.name, m) not in built]
        inputs = {m: [Permutation(relabel(g, pi)) for g in chain.groups[m][0]] for m in todo}
        try:
            with Clock() as clock:
                for m in todo:
                    built[chain.name, m] = pc.generate_group(inputs[m])
                verdict = pc.orbit_equivalent(built[chain.name, g_name], built[chain.name, h_name], k)
        except Exception as exc:
            results.append(CaseResult(name, 0.0, 0.0, "error", repr(exc)))
            on_case(results[-1])
            continue
        g, h = built[chain.name, g_name], built[chain.name, h_name]
        detail = ""
        for m, grp in ((g_name, g), (h_name, h)):
            if grp.order != chain.groups[m][1]:
                detail = f"{m} has order {grp.order}, expected {chain.groups[m][1]}"
        if not detail:
            oracle = orbit_count(g, k) == orbit_count(h, k)
            if oracle != records[name]:
                detail = f"Burnside verdict {oracle} differs from the recorded {records[name]}"
            elif verdict != oracle:
                detail = f"verdict {verdict}, Burnside orbit counts say {oracle}"
        results.append(CaseResult(name, clock.wall, clock.cpu, "wrong" if detail else "ok", detail))
        on_case(results[-1])
    return results


RUNNERS = {
    "survey": run_survey,
    "verify": run_verify,
    "closures": run_closures,
    "orbit_equiv": run_orbit_equiv,
}
