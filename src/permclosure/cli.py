"""Command-line front end.

One subcommand per library operation: closures and chains of a single
group, the degree-up-to-6 survey, theorem verification panels, orbit
equivalence, invariance groups of function tables, and subgroup
enumeration.  Structured output is a single JSON document per run; wall
times appear only under ``--timings``.  Argument errors, argparse's and
every UsageError the handlers or the library raise, exit with the usage
code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace

from .budgets import KINDS, Budgets, default_budgets
from .closure import (
    FunctionTable,
    closure_chain,
    closure_report,
    galois_closure,
    invariance_group,
    orbit_equivalent,
)
from .tuples import orbit_count
from .catalog import (
    get_group,
    primitive_3closed_report,
    seress_report,
)
from .classify import (
    check_wielandt_containment,
    degree7_panel,
    degree7_panel_expectations,
    verify_main,
    wielandt_closure,
)
from .errors import (
    BudgetExceeded,
    CatalogValidationError,
    UnknownGroupName,
    UsageError,
)
from .perm import PermGroup, format_perm, read_group_file
from .subgroups import all_subgroups, table1_report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_NAME = 5

_EPILOG = """\
group arguments accept a file path or catalog:NAME (try catalog:D_4,
catalog:AGL(1,9), catalog:"S_3 wr S_2"); names ignore case, spacing and
underscores.

exit codes:
  0  success; verifications passed
  1  a verification, match, or equivalence check came back negative
  2  usage error
  3  unreadable or unparsable input file
  4  a search budget was exceeded (the message names the flag to raise)
  5  unknown group name or invalid catalog data
"""


def _budgets_from(args: argparse.Namespace) -> Budgets:
    given = {k.field: getattr(args, k.field) for k in KINDS.values()}
    return replace(default_budgets(), **{f: v for f, v in given.items() if v is not None})


def _load_group(spec: str, budgets: Budgets) -> PermGroup:
    if spec.startswith("catalog:"):
        return get_group(spec[len("catalog:"):], budgets)
    return read_group_file(spec, budgets=budgets)


def _gens_text(group: PermGroup) -> str:
    if not group.generators:
        return "id"
    return ", ".join(format_perm(g) for g in group.generators)


def _emit(
    args: argparse.Namespace, lines: list[str], doc: dict, started: float
) -> None:
    """Print the lines, or the document as JSON.  Every handler passes
    the ``time.perf_counter()`` reading it started at, before it loads
    anything; under ``--timings`` that adds a final ``wall time`` line and
    a ``wall_time`` key."""
    if args.timings:
        wall = time.perf_counter() - started
        lines = [*lines, f"wall time: {wall:.3f}s"]
        doc = {**doc, "wall_time": wall}
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_closure(args: argparse.Namespace, budgets: Budgets) -> int:
    started = time.perf_counter()
    group = _load_group(args.group, budgets)
    rep = closure_report(group, args.k, algorithm=args.algorithm, budgets=budgets)
    lines = [
        f"degree: {group.degree}",
        f"alphabet: {args.k}",
        f"algorithm: {rep.algorithm}",
        f"group order: {group.order}",
        f"group generators: {_gens_text(group)}",
        f"closure order: {rep.closure.order}",
        f"closure generators: {_gens_text(rep.closure)}",
        f"closed: {'yes' if rep.is_closed else 'no'}",
        f"candidates examined: {rep.candidates_examined}",
    ]
    if rep.pruning_tuple is not None:
        lines.append(
            "pruning tuple: " + " ".join(str(v) for v in rep.pruning_tuple)
        )
    _emit(args, lines, rep.summary_dict(), started)
    return EXIT_OK


def _cmd_chain(args: argparse.Namespace, budgets: Budgets) -> int:
    started = time.perf_counter()
    group = _load_group(args.group, budgets)
    rep = closure_chain(group, budgets=budgets)
    lines = [
        f"degree: {group.degree}",
        f"group order: {group.order}",
    ]
    for e in rep.entries:
        state = "closed" if e.closure.order == group.order else "not closed"
        lines.append(f"k={e.k}: closure order {e.closure.order} ({state})")
    lines.append(f"largest non-closed alphabet: {rep.largest_nonclosed_k}")
    lines.append(f"distinct groups in chain: {rep.distinct_count}")
    _emit(args, lines, rep.summary_dict(), started)
    return EXIT_OK


def _cmd_table1(args: argparse.Namespace, budgets: Budgets) -> int:
    started = time.perf_counter()
    rep = table1_report(budgets=budgets)
    lines = [f"reference rows ({len(rep.reference_rows)}):"]
    lines += ["  " + r.as_text() for r in rep.reference_rows]
    if rep.missing_reference:
        lines.append("missing reference rows:")
        lines += [
            f"  {n} | {k} | {g} | {c}" for n, k, g, c in rep.missing_reference
        ]
    lines.append(f"additional rows ({len(rep.extra_rows)}):")
    lines += ["  " + r.as_text() for r in rep.extra_rows]
    lines.append(f"reference match: {'yes' if rep.matches_reference else 'no'}")
    _emit(args, lines, rep.summary_dict(), started)
    return EXIT_OK if rep.matches_reference else EXIT_CHECK_FAILED


def _cmd_orbit_equiv(args: argparse.Namespace, budgets: Budgets) -> int:
    started = time.perf_counter()
    g = _load_group(args.group1, budgets)
    h = _load_group(args.group2, budgets)
    # the counts are on all of k^n, so its tuple budget is checked first
    counts = [orbit_count(x, args.k, budgets=budgets) for x in (g, h)]
    equal = orbit_equivalent(g, h, args.k, budgets=budgets)
    lines = [
        f"degree: {g.degree}",
        f"alphabet: {args.k}",
        f"orbit counts: {counts[0]} vs {counts[1]}",
        f"equivalent: {'yes' if equal else 'no'}",
    ]
    doc = {
        "degree": g.degree,
        "k": args.k,
        "orbit_counts": counts,
        "equivalent": equal,
    }
    _emit(args, lines, doc, started)
    return EXIT_OK if equal else EXIT_CHECK_FAILED


def _cmd_invariance(args: argparse.Namespace, budgets: Budgets) -> int:
    started = time.perf_counter()
    table = FunctionTable.read(args.table, budgets=budgets)
    group = invariance_group(table, budgets=budgets)
    lines = [
        f"table: {table.n} coordinates, alphabet {table.k}, colors {table.m}",
        f"invariance group order: {group.order}",
        f"generators: {_gens_text(group)}",
    ]
    doc = {
        "coordinates": table.n,
        "alphabet": table.k,
        "colors": table.m,
        "order": group.order,
        "generators": [format_perm(g) for g in group.generators],
    }
    _emit(args, lines, doc, started)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace, budgets: Budgets) -> int:
    started = time.perf_counter()
    cat = all_subgroups(args.n, budgets=budgets)
    lines = [
        f"subgroups of the degree-{cat.degree} symmetric group: "
        f"{cat.total_subgroups} in {len(cat.classes)} conjugacy classes",
        "order | class size | representative generators",
    ]
    for cls in cat.classes:
        lines.append(
            f"{cls.order:5d} | {cls.class_size:10d} | {_gens_text(cls.representative)}"
        )
    doc = {
        "degree": cat.degree,
        "total_subgroups": cat.total_subgroups,
        "class_count": len(cat.classes),
        "classes": [
            {
                "order": cls.order,
                "class_size": cls.class_size,
                "generators": [format_perm(g) for g in cls.representative.generators],
            }
            for cls in cat.classes
        ],
    }
    _emit(args, lines, doc, started)
    return EXIT_OK


# -- verify subcommand, one handler per theorem


def _verify_main_theorem(args: argparse.Namespace, budgets: Budgets) -> int:
    started = time.perf_counter()
    if args.group is not None:
        if args.k is None:
            raise UsageError("--k is required when --group is given")
        group = _load_group(args.group, budgets)
        n = args.n if args.n is not None else group.degree
        rep = verify_main(group, n, args.k, budgets=budgets)
        lines = [
            f"shape: {rep.form.kind.value}",
            f"applicable: {'yes' if rep.applicable else 'no'}",
            f"predicted non-closed: {'yes' if rep.predicted_nonclosed else 'no'}",
            f"computed closure order: {rep.computed_closure.order}",
            f"agree: {'yes' if rep.agree else 'no'}",
        ]
        _emit(args, lines, rep.summary_dict(), started)
        return EXIT_OK if rep.agree else EXIT_CHECK_FAILED

    n, k = 7, 5
    if args.n not in (None, n) or args.k not in (None, k):
        raise UsageError(f"the built-in panel is defined at degree {n}, alphabet {k}")
    expected = degree7_panel_expectations()
    lines = [f"shape test panel at degree {n}, alphabet {k}:"]
    rows = []
    ok = True
    for name, group in degree7_panel():
        rep = verify_main(group, n, k, budgets=budgets)
        kind_ok = rep.form.kind is expected[name]
        ok = ok and rep.agree and kind_ok
        rows.append(
            {
                "name": name,
                "kind": rep.form.kind.value,
                "expected_kind": expected[name].value,
                "computed_closure_order": rep.computed_closure.order,
                "agree": rep.agree and kind_ok,
            }
        )
        lines.append(
            f"  {name:15s} {rep.form.kind.value:18s} "
            f"closure order {rep.computed_closure.order:5d}  "
            f"{'agree' if rep.agree and kind_ok else 'DISAGREE'}"
        )
    lines.append(f"all panel groups agree: {'yes' if ok else 'no'}")
    _emit(args, lines, {"degree": n, "k": k, "panel": rows, "verified": ok}, started)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _verify_seress(args: argparse.Namespace, budgets: Budgets) -> int:
    started = time.perf_counter()
    rep = seress_report(args.n, budgets=budgets)
    lines = [f"orbit-equivalence classes at degree {rep.degree} (alphabet 2):"]
    lines += ["  " + " ".join(c) for c in rep.classes]
    lines.append(f"expected classes matched: {'yes' if rep.matches else 'no'}")
    _emit(args, lines, rep.summary_dict(), started)
    return EXIT_OK if rep.matches else EXIT_CHECK_FAILED


def _verify_primitive3(args: argparse.Namespace, budgets: Budgets) -> int:
    started = time.perf_counter()
    rep = primitive_3closed_report(args.n, budgets=budgets)
    lines = [f"closure over a 3-letter alphabet at degree {rep.degree}:"]
    for name, closed, order in rep.entries:
        state = "closed" if closed else f"NOT closed (closure order {order})"
        lines.append(f"  {name:12s} {state}")
    lines.append(
        "expected non-closed: "
        + (" ".join(rep.expected_nonclosed) or "(none)")
    )
    lines.append(f"matches: {'yes' if rep.matches else 'no'}")
    _emit(args, lines, rep.summary_dict(), started)
    return EXIT_OK if rep.matches else EXIT_CHECK_FAILED


def _verify_wielandt(args: argparse.Namespace, budgets: Budgets) -> int:
    if args.n is not None and not 2 <= args.n <= 6:
        raise UsageError(f"--n must be in 2..6 for the wielandt theorem, got {args.n}")
    started = time.perf_counter()
    degrees = (4, 5) if args.n is None else (args.n,)
    lines = []
    doc: dict = {"degrees": {}, "verified": True}
    ok = True
    for n in degrees:
        cat = all_subgroups(n, budgets=budgets)
        # One representative decides its class.  Both closures are defined
        # by orbits on tuples, so relabelling the points by pi maps each
        # closure of G to that of G^pi; and H <= K iff H^pi <= K^pi.  The
        # counts stay per subgroup.
        checked = failed = 0
        for cls in cat.classes:
            for k in (1, 2, 3):
                checked += cls.class_size
                if not check_wielandt_containment(cls.representative, k, budgets=budgets):
                    failed += cls.class_size
        ok = ok and failed == 0
        lines.append(
            f"degree {n}: {checked} containment checks "
            f"({cat.total_subgroups} subgroups x k in 1..3), {failed} failures"
        )
        doc["degrees"][str(n)] = {"checked": checked, "failed": failed}
        if args.timings:
            lines.append(f"  representatives checked: {len(cat.classes)}")
            doc["degrees"][str(n)]["representatives"] = len(cat.classes)
    c4 = get_group("C_4", budgets)
    w2 = wielandt_closure(c4, 2, budgets=budgets)
    g3 = galois_closure(c4, 3, budgets=budgets)
    point_ok = w2 == c4
    alpha_ok = g3 == c4
    ok = ok and point_ok and alpha_ok
    lines.append(
        f"orbit closure of C_4 on point pairs: order {w2.order} "
        f"({'equals C_4' if point_ok else 'DIFFERS from C_4'})"
    )
    lines.append(
        f"closure of C_4 over a 3-letter alphabet: order {g3.order} "
        f"({'equals C_4' if alpha_ok else 'DIFFERS from C_4'})"
    )
    lines.append(f"verified: {'yes' if ok else 'no'}")
    doc["pair_closure_of_C4_order"] = w2.order
    doc["alphabet3_closure_of_C4_order"] = g3.order
    doc["verified"] = ok
    _emit(args, lines, doc, started)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_THEOREMS = {
    "main": _verify_main_theorem,
    "seress": _verify_seress,
    "primitive3": _verify_primitive3,
    "wielandt": _verify_wielandt,
}


def _cmd_verify(args: argparse.Namespace, budgets: Budgets) -> int:
    return _THEOREMS[args.theorem](args, budgets)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output style (default text; json emits one document)",
    )
    common.add_argument(
        "--timings", action="store_true",
        help="include wall-clock times in the output (off by default, "
        "keeping runs byte-comparable)",
    )
    for kind in KINDS.values():
        common.add_argument(kind.flag, type=int, default=None, metavar="N", help=kind.help)

    parser = argparse.ArgumentParser(
        prog="permclosure",
        description="Galois closures of permutation groups over small alphabets.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "closure", parents=[common],
        help="closure of one group at one alphabet size",
    )
    p.add_argument("group", help="group file path or catalog:NAME")
    p.add_argument("-k", "--k", dest="k", type=int, required=True,
                   help="alphabet size (at least 2)")
    p.add_argument(
        "--algorithm", choices=("naive", "pruned", "kearnes"), default="pruned",
        help="naive tests one permutation per coset on all of k^n; kearnes "
        "tests them against one tuple per set partition (bounded by --candidate-budget); "
        "default pruned",
    )
    p.set_defaults(handler="_cmd_closure")

    p = sub.add_parser(
        "chain", parents=[common],
        help="closures at every alphabet size from 2 up to the degree",
    )
    p.add_argument("group", help="group file path or catalog:NAME")
    p.set_defaults(handler="_cmd_chain")

    p = sub.add_parser(
        "table1", parents=[common],
        help="recompute the degree-up-to-6 survey of nontrivial closures "
        "and compare with the embedded reference rows",
    )
    p.set_defaults(handler="_cmd_table1")

    p = sub.add_parser(
        "verify", parents=[common],
        help="run one of the built-in verification panels",
    )
    p.add_argument(
        "--theorem", choices=tuple(_THEOREMS), required=True,
        help="main: shape test vs computed closures; seress: "
        "orbit-equivalence classes of the primitive survey; primitive3: "
        "closure over 3 letters for the primitive survey; wielandt: "
        "alphabet closures sit inside point-tuple closures",
    )
    p.add_argument(
        "--n", type=int, default=None,
        help="degree (seress 3..10, primitive3 3..10, wielandt 2..6, default 4 and 5; "
        "main uses the degree-7 panel unless --group is given)",
    )
    p.add_argument("-k", "--k", dest="k", type=int, default=None, help="alphabet size (main only)")
    p.add_argument(
        "--group", default=None,
        help="main only: check one group file or catalog:NAME instead of the panel",
    )
    p.set_defaults(handler="_cmd_verify")

    p = sub.add_parser(
        "orbit-equiv", parents=[common],
        help="do two groups have the same orbits on k-letter tuples?",
    )
    p.add_argument("group1", help="group file path or catalog:NAME")
    p.add_argument("group2", help="group file path or catalog:NAME")
    p.add_argument("-k", "--k", dest="k", type=int, required=True,
                   help="alphabet size")
    p.set_defaults(handler="_cmd_orbit_equiv")

    p = sub.add_parser(
        "invariance", parents=[common],
        help="invariance group of a function table file",
    )
    p.add_argument("table", help="function table file")
    p.set_defaults(handler="_cmd_invariance")

    p = sub.add_parser(
        "enumerate", parents=[common],
        help="conjugacy classes of subgroups of a small symmetric group",
    )
    p.add_argument("--n", type=int, required=True, choices=range(1, 7),
                   help="degree (1..6)")
    p.set_defaults(handler="_cmd_enumerate")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command.  The parser is built once per process; the command
    names its handler, looked up here, so a handler replaced after that is
    the one that runs."""
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return globals()[args.handler](args, _budgets_from(args))
    except UsageError as exc:
        parser.error(str(exc))
    except BudgetExceeded as exc:
        print(f"error: {exc}; raise {KINDS[exc.budget_name].flag}", file=sys.stderr)
        return EXIT_BUDGET
    except (UnknownGroupName, CatalogValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NAME
    except (ValueError, OSError) as exc:
        # covers ParseError, DegreeMismatch, and malformed constructions
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
