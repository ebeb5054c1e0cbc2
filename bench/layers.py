"""Per-layer metrics derived from the spans, and per-case budget headroom.

Every ``*_s`` metric is a sum of span self times, so a function nested in
another of the same group is not counted twice.  The metric-to-layer table
and what each metric should move are in NOTES.md.
"""

from __future__ import annotations

from spans import Tracer

BUILD = (
    "perm.generate_group", "perm.symmetric_on", "perm.alternating_on",
    "perm.direct_product", "perm.PermGroup.from_elements",
)
CONJUGACY = ("perm.are_conjugate_in_symmetric",)
PARTITION_BUILD = ("tuples.orbit_partition", "tuples.kpow_orbit_partition")
PARTITION = PARTITION_BUILD + ("tuples.cached_orbit_partition",)
STABILIZER = ("tuples.tuple_stabilizer",)
CLOSURE_ALGORITHMS = ("closure.closure_pruned", "closure.closure_naive", "closure.closure_kearnes")
ENUMERATE = ("subgroups.all_subgroups",)
SURVEY = ("subgroups.table1_report",)
LOOKUP = (
    "catalog.get_group", "catalog.catalog_entries", "catalog.catalog_names",
    "catalog.survey_candidates", "catalog.primitive_survey_names",
)
REPORT = ("catalog.seress_report", "catalog.primitive_3closed_report")

# A call to the key that reaches none of these is a cache hit.
PROBES = {
    "tuples.cached_orbit_partition": frozenset(PARTITION_BUILD),
    "closure.galois_closure": frozenset(CLOSURE_ALGORITHMS),
}


class Counters:
    """Totals over the run and maxima over the current case, fed by observers."""

    def __init__(self, tracer: Tracer):
        self.totals = {
            "elements": 0, "tuples": 0, "stabilizer_elements": 0,
            "candidates": 0, "closure_elements": 0, "subgroups_found": 0,
        }
        self.candidates_peak = 0
        self.case: dict[str, int] = {}
        self._watch(tracer, BUILD, self._built)
        self._watch(tracer, PARTITION_BUILD, self._partitioned)
        self._watch(tracer, STABILIZER, self._stabilizer)
        self._watch(tracer, CLOSURE_ALGORITHMS, self._closure)
        self._watch(tracer, ENUMERATE, self._enumerated)

    @staticmethod
    def _watch(tracer: Tracer, names, callback) -> None:
        for name in names:
            tracer.observe(name, callback)

    def _peak(self, key: str, value: int) -> None:
        if value > self.case.get(key, 0):
            self.case[key] = value

    def _built(self, group) -> None:
        self.totals["elements"] += group.order
        self._peak("group_order", group.order)

    def _partitioned(self, part) -> None:
        self.totals["tuples"] += part.space.size
        self._peak("tuple_space", part.space.size)

    def _stabilizer(self, group) -> None:
        self.totals["stabilizer_elements"] += group.order
        self._peak("stabilizer_order", group.order)

    def _closure(self, report) -> None:
        self.totals["candidates"] += report.candidates_examined
        self.totals["closure_elements"] += report.closure.order
        self.candidates_peak = max(self.candidates_peak, report.candidates_examined)
        self._peak("candidates", report.candidates_examined)
        self._peak("group_order", report.closure.order)

    def _enumerated(self, catalog) -> None:
        self.totals["subgroups_found"] += catalog.total_subgroups

    def take_case(self) -> dict[str, int]:
        case, self.case = self.case, {}
        return case


def headroom(peaks: dict[str, int], budgets) -> dict[str, dict]:
    """Each case peak against the budget that bounds it."""
    bound_of = {
        "candidates": budgets.candidate_budget,
        "group_order": budgets.materialization_bound,
        "stabilizer_order": budgets.materialization_bound,
        "tuple_space": budgets.tuple_budget,
    }
    return {
        key: {"used": peaks[key], "budget": bound, "share": peaks[key] / bound}
        for key, bound in bound_of.items() if key in peaks
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, counters: Counters, budgets) -> dict[str, float]:
    """Every per-layer metric except those about the run as a whole."""
    layer = tracer.layer_self_s()
    t = counters.totals
    candidate_calls = tracer.calls(CLOSURE_ALGORITHMS)
    return {
        "perm.self_s": layer["perm"],
        "perm.build_s": tracer.self_s(BUILD),
        "perm.build_calls": tracer.calls(BUILD),
        "perm.elements": t["elements"],
        "perm.conjugacy_s": tracer.self_s(CONJUGACY),
        "perm.conjugacy_calls": tracer.calls(CONJUGACY),
        "tuples.self_s": layer["tuples"],
        "tuples.partition_s": tracer.self_s(PARTITION),
        "tuples.partition_calls": tracer.calls(PARTITION_BUILD),
        "tuples.tuples_partitioned": t["tuples"],
        "tuples.partition_hit_ratio": _ratio(
            tracer.hits("tuples.cached_orbit_partition"),
            tracer.calls(("tuples.cached_orbit_partition",)),
        ),
        "tuples.stabilizer_s": tracer.self_s(STABILIZER),
        "tuples.stabilizer_elements": t["stabilizer_elements"],
        "closure.self_s": layer["closure"],
        "closure.calls": candidate_calls,
        "closure.candidates_examined": t["candidates"],
        "closure.yield": _ratio(t["closure_elements"], t["candidates"]),
        "closure.hit_ratio": _ratio(
            tracer.hits("closure.galois_closure"),
            tracer.calls(("closure.galois_closure",)),
        ),
        "closure.refusals": tracer.errors(CLOSURE_ALGORITHMS, "BudgetExceeded"),
        "closure.candidate_budget_peak": counters.candidates_peak / budgets.candidate_budget,
        "subgroups.self_s": layer["subgroups"],
        "subgroups.enumerate_s": tracer.self_s(ENUMERATE),
        "subgroups.found": t["subgroups_found"],
        "subgroups.survey_s": tracer.self_s(SURVEY),
        "catalog.self_s": layer["catalog"],
        "catalog.lookup_s": tracer.self_s(LOOKUP),
        "catalog.lookup_calls": tracer.calls(LOOKUP),
        "catalog.report_s": tracer.self_s(REPORT),
        "classify.self_s": layer["classify"],
        "cli.self_s": layer["cli"],
        "trace.spans": tracer.spans,
    }
