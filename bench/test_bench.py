"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import permclosure  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from permclosure import Permutation, generate_group  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.advance(2.0)
        return "inner"

    inner_w = tracer.wrap(inner, "b.inner", "b")

    def outer():
        clock.advance(1.0)
        inner_w()
        clock.advance(3.0)
        inner_w()
        return "outer"

    outer_w = tracer.wrap(outer, "a.outer", "a")
    assert outer_w() == "outer"
    assert tracer.stats["a.outer"].self_s == pytest.approx(4.0)
    assert tracer.stats["b.inner"].self_s == pytest.approx(4.0)
    assert tracer.stats["b.inner"].calls == 2
    assert tracer.layer_self_s()["a"] == pytest.approx(4.0)
    assert tracer.spans == 3


def test_reentrant_calls_count_each_level_once():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    wrapped = {}

    def rec(n):
        clock.advance(1.0)
        if n:
            wrapped["rec"](n - 1)
        clock.advance(0.5)
        return n

    wrapped["rec"] = tracer.wrap(rec, "a.rec", "a")
    assert wrapped["rec"](3) == 3
    stats = tracer.stats["a.rec"]
    assert stats.calls == 4
    # the sum of self times is the outermost span's duration, not four nested ones
    assert stats.self_s == pytest.approx(6.0)
    assert clock.now == pytest.approx(6.0)


def test_a_raising_call_closes_its_span_and_is_counted():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def fails():
        clock.advance(1.0)
        raise KeyError("x")

    fails_w = tracer.wrap(fails, "a.fails", "a")

    def caller():
        try:
            fails_w()
        except KeyError:
            clock.advance(2.0)

    tracer.wrap(caller, "a.caller", "a")()
    assert tracer.stats["a.fails"].errors == {"KeyError": 1}
    assert tracer.stats["a.caller"].self_s == pytest.approx(2.0)
    assert tracer.errors(["a.fails"], "KeyError") == 1


def test_probe_counts_calls_that_never_reach_the_target():
    tracer = spans.Tracer(clock=FakeClock(), probes={"a.cached": frozenset({"a.build"})})
    cache = {}
    build = tracer.wrap(lambda key: key * 2, "a.build", "a")

    def cached(key):
        if key not in cache:
            cache[key] = build(key)
        return cache[key]

    cached_w = tracer.wrap(cached, "a.cached", "a")
    for key in (1, 2, 1, 1, 2):
        cached_w(key)
    assert tracer.stats["a.cached"].calls == 5
    assert tracer.hits("a.cached") == 3


def test_observers_see_each_result():
    tracer = spans.Tracer(clock=FakeClock())
    seen = []
    tracer.observe("a.f", seen.append)
    f = tracer.wrap(lambda x: x + 1, "a.f", "a")
    assert [f(1), f(5)] == [2, 6]
    assert seen == [2, 6]


# ---------------------------------------------------------------------------
# wrapping the real package


@pytest.fixture()
def installed():
    tracer = spans.Tracer(probes=layers.PROBES)
    counters = layers.Counters(tracer)
    originals = (
        permclosure.tuples.cached_orbit_partition,
        permclosure.perm.PermGroup.__dict__["from_elements"],
    )
    restore = spans.install(tracer)
    permclosure.tuples.clear_partition_cache()
    permclosure.closure.clear_closure_cache()
    yield tracer, counters
    restore()
    assert permclosure.tuples.cached_orbit_partition is originals[0]
    assert permclosure.perm.PermGroup.__dict__["from_elements"] is originals[1]


def test_wrappers_return_the_wrapped_result(installed):
    tracer, counters = installed
    gens = [Permutation(workloads.cycle_perm(5, (1, 2, 3, 4, 5)))]
    group = permclosure.generate_group(gens)
    assert group == permclosure.perm.generate_group.__wrapped__(gens)
    part = permclosure.closure.cached_orbit_partition(group, 2)
    # the same cached object through the other module's binding
    assert permclosure.tuples.cached_orbit_partition(group, 2) is part
    report = permclosure.closure_pruned(group, 2)
    assert report.closure.order == 10
    elems = permclosure.PermGroup.from_elements(group.elements)
    assert elems == group
    assert tracer.calls(["tuples.cached_orbit_partition"]) == 3
    assert tracer.calls(["tuples.orbit_partition"]) == 1
    assert tracer.hits("tuples.cached_orbit_partition") == 2
    assert tracer.calls(["perm.PermGroup.from_elements"]) == 1
    metrics = layers.metrics(tracer, counters, permclosure.default_budgets())
    assert metrics["tuples.tuples_partitioned"] == 2 ** 5
    assert metrics["closure.candidates_examined"] == report.candidates_examined
    assert metrics["perm.elements"] >= group.order * 2


def test_per_element_helpers_are_not_wrapped(installed):
    assert not hasattr(permclosure.perm.compose, "__wrapped__")
    assert hasattr(permclosure.perm.generate_group, "__wrapped__")
    assert hasattr(permclosure.cli.main, "__wrapped__")


# ---------------------------------------------------------------------------
# oracles and seeds


def _small_nested_pairs():
    groups = permclosure.all_subgroups(4).all_groups()
    return [(g, h) for g in groups for h in groups if g != h and g.is_subgroup_of(h)]


@pytest.mark.parametrize("k", [2, 3])
def test_burnside_oracle_matches_orbit_equivalence_on_small_groups(k):
    pairs = _small_nested_pairs()
    assert pairs
    verdicts = set()
    for g, h in pairs:
        burnside = workloads.orbit_count(g, k) == workloads.orbit_count(h, k)
        assert burnside == permclosure.orbit_equivalent(g, h, k)
        verdicts.add(burnside)
    assert permclosure.tuples.cached_orbit_partition(g, k).orbit_count == workloads.orbit_count(g, k)
    assert verdicts == {True, False}


def test_relabel_is_conjugation():
    rng = workloads.case_rng(7, "x")
    g = workloads.cycle_perm(6, (1, 2, 3), (4, 5))
    pi = workloads.random_relabeling(rng, 6)
    got = Permutation(workloads.relabel(g, pi))
    p, s = Permutation(g), Permutation(pi)
    assert got == s * p * s.inverse()
    assert workloads.relabel(g, list(range(1, 7))) == g


CHEAP_CLOSURES = ("C_8/k2", "D_9/k3", "D_10/k2", "PGL(2,5)/k2", "S(cube)/k3", "AGammaL(1,8)/k2")


@pytest.mark.parametrize("seed", [1, 2])
def test_two_seeds_relabel_differently_and_give_the_recorded_closures(seed):
    cases = {name: (k, gens) for name, k, gens in workloads.closure_cases()}
    for name in CHEAP_CLOSURES:
        k, gens = cases[name]
        pis = [
            workloads.pattern_relabeling(workloads.case_rng(s, name), len(gens[0]), k)
            for s in (seed, seed + 10)
        ]
        assert pis[0] != pis[1]
        examined = set()
        for pi in pis:
            group = generate_group([Permutation(workloads.relabel(g, pi)) for g in gens])
            report = permclosure.closure_pruned(group, k)
            assert workloads.check_closure(group, report, EXPECTED["closures"][name], pi) == ""
            examined.add(report.candidates_examined)
        # the relabeling keeps the pruning pattern, so the work is the same
        assert len(examined) == 1


def test_a_wrong_closure_is_caught():
    k, gens = next((k, g) for name, k, g in workloads.closure_cases() if name == "C_8/k2")
    group = generate_group([Permutation(g) for g in gens])
    report = permclosure.closure_pruned(group, k)
    want = EXPECTED["closures"]["C_8/k2"]
    identity = list(range(1, 9))
    assert workloads.check_closure(group, report, want, identity) == ""
    # right order, wrong element set: the record relabeled by another permutation
    swapped = [2, 1] + identity[2:]
    assert "lacks" in workloads.check_closure(group, report, want, swapped)
    # wrong order
    assert "closure order" in workloads.check_closure(
        group, report, dict(want, closure_order=16), identity
    )


@pytest.mark.parametrize("seed", [3, 4])
def test_two_seeds_give_the_recorded_verdicts(seed):
    cheap = [c for c in workloads.orbit_cases() if c[1].degree == 8]
    assert cheap
    for name, chain, g_name, h_name, k in cheap:
        verdicts = []
        for s in (seed, seed + 10):
            pi = workloads.random_relabeling(workloads.case_rng(s, chain.name), chain.degree)
            g, h = (
                generate_group([Permutation(workloads.relabel(x, pi)) for x in chain.groups[m][0]])
                for m in (g_name, h_name)
            )
            assert g.is_subgroup_of(h)
            verdicts.append(permclosure.orbit_equivalent(g, h, k))
        assert verdicts == [EXPECTED["orbit_equiv"][name]] * 2


def test_every_case_has_a_record():
    closures = {name for name, _k, _g in workloads.closure_cases()}
    assert closures == set(EXPECTED["closures"])
    assert {c[0] for c in workloads.orbit_cases()} == set(EXPECTED["orbit_equiv"])
    for name, record in EXPECTED["closures"].items():
        if "refused" not in record and len(record["closure_generators"][0]) <= 9:
            assert "naive" in record["cross_checked"], name
    verdicts = list(EXPECTED["orbit_equiv"].values())
    assert 0.25 < sum(verdicts) / len(verdicts) < 0.75


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""
