"""Command-line interface: output shapes, exit codes, and determinism."""

import contextlib
import io
import json
import math
import re
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from helpers import burnside_count
from permclosure import budgets, catalog, cli, subgroups, tuples
from permclosure.budgets import KINDS, default_budgets
from permclosure.cli import main


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.grp"
    path.write_text("degree: 4\n(1 2 3 4)\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_the_parser_is_built_once_and_each_command_finds_its_handler(capsys, monkeypatch):
    """Commands after the first reuse the parser, and the handler is looked
    up when the command runs, so one replaced in between is the one run."""
    assert run(capsys, "closure", "catalog:C_4", "-k", "2")[0] == 0
    parser = cli._parser()
    seen = []
    monkeypatch.setattr(cli, "_cmd_closure", lambda args, b: seen.append(args.k) or 7)
    assert run(capsys, "closure", "catalog:C_4", "-k", "3")[0] == 7
    assert seen == [3] and cli._parser() is parser
    assert run(capsys, "chain", "catalog:C_4")[0] == 0


# ---------------------------------------------------------------------------
# closure


def test_closure_text_output(capsys, c4_file):
    code, out, _ = run(capsys, "closure", c4_file, "-k", "2")
    assert code == 0
    assert "closure order: 8" in out
    assert "closed: no" in out


def test_closure_json_output(capsys):
    code, out, _ = run(capsys, "closure", "catalog:C_4", "-k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["closure_order"] == 8 and doc["closed"] is False
    assert doc["algorithm"] == "pruned"
    assert "wall_time" not in doc


def test_closure_timings_flag(capsys):
    code, out, _ = run(capsys, "closure", "catalog:C_4", "-k", "2",
                       "--format", "json", "--timings")
    assert code == 0
    assert "wall_time" in json.loads(out)


def test_closure_algorithm_choice(capsys):
    code, out, _ = run(capsys, "closure", "catalog:C_4", "-k", "2",
                       "--algorithm", "naive", "--format", "json")
    assert code == 0
    assert json.loads(out)["algorithm"] == "naive"


# ---------------------------------------------------------------------------
# error handling


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "closure", "/no/such/file.grp", "-k", "2")
    assert code == 3
    assert "error:" in err


def test_unknown_catalog_name(capsys):
    code, _, err = run(capsys, "closure", "catalog:M_10", "-k", "2")
    assert code == 5
    assert "M_10" in err


def test_alphabet_of_one_is_rejected(capsys, c4_file):
    with pytest.raises(SystemExit) as exc:
        main(["closure", c4_file, "-k", "1"])
    assert exc.value.code == 2
    assert "alphabet size" in capsys.readouterr().err


def test_budget_exhaustion_names_the_flag(capsys):
    cases = [
        (["closure", "catalog:S_6", "-k", "2", "--candidate-budget", "10"], "--candidate-budget"),
        (["orbit-equiv", "catalog:C_9", "catalog:D_9", "-k", "10"], "--tuple-budget"),
        (["closure", "catalog:S_6", "-k", "2", "--materialization-bound", "10"],
         "--materialization-bound"),
    ]
    for argv, flag in cases:
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert f"raise {flag}" in err


def test_usage_errors_exit_two(capsys, c4_file):
    for argv in (
        ["closure", c4_file],  # missing -k
        ["enumerate", "--n", "9"],
        ["orbit-equiv", c4_file, c4_file, "-k", "1"],
        ["verify", "--theorem", "main", "-k", "1"],
        ["verify", "--theorem", "main", "--n", "8"],
        ["verify", "--theorem", "main", "--group", "catalog:A_5", "-k", "3", "--n", "4"],
        ["verify", "--theorem", "seress", "--n", "2"],
        ["verify", "--theorem", "primitive3", "--n", "11"],
        ["verify", "--theorem", "seress"],
        ["verify", "--theorem", "wielandt", "--n", "7"],
        ["verify", "--theorem", "wielandt", "--n", "1"],
        ["closure", c4_file, "-k", "2", "--tuple-budget", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    # the wielandt range is the one its --n help gives
    capsys.readouterr()
    for n in ("1", "7"):
        with pytest.raises(SystemExit):
            main(["verify", "--theorem", "wielandt", "--n", n])
        assert "--n must be in 2..6" in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_each_budget_kind_has_a_flag_that_lifts_its_refusal(capsys, kind):
    flag = KINDS[kind].flag
    with pytest.raises(SystemExit):
        main(["closure", "--help"])
    assert f"{flag} N {KINDS[kind].help}" in " ".join(capsys.readouterr().out.split())
    argv = ["closure", "catalog:C_4", "-k", "2"]
    tuples.clear_partition_cache()  # a cached partition needs no tuple space
    code, _, err = run(capsys, *argv, flag, "3")
    assert code == 4
    assert f"{kind} budget exceeded" in err and f"raise {flag}" in err
    code, out, _ = run(capsys, *argv, flag, "100")
    assert code == 0 and "closure order: 8" in out


def test_catalog_is_built_under_no_environment_budget(capsys, monkeypatch):
    """A low bound in the environment, lifted by the flag: the catalog's own
    groups (up to order 1,440) are built whatever the environment says."""
    env = KINDS["materialization"].env
    monkeypatch.setenv(env, "1000")
    monkeypatch.setattr(budgets, "DEFAULT", default_budgets())
    catalog._catalog.cache_clear()
    try:
        code, out, err = run(capsys, "closure", "catalog:AGL(1,5)", "-k", "2",
                             "--materialization-bound", "100000")
        assert code == 0, err
        assert "closure order: 120" in out
    finally:
        catalog._catalog.cache_clear()


@pytest.fixture()
def environment_bound(monkeypatch):
    """Sets the environment's materialization bound as start-up reads it,
    with the cached survey naming pool cleared before and after."""
    def set_bound(value):
        env = KINDS["materialization"].env
        if value is None:
            monkeypatch.delenv(env, raising=False)
        else:
            monkeypatch.setenv(env, str(value))
        monkeypatch.setattr(budgets, "DEFAULT", default_budgets())

    catalog.survey_candidates.cache_clear()
    yield set_bound
    catalog.survey_candidates.cache_clear()


@pytest.mark.parametrize("bound, argv", [
    # classify_main's block groups: S_8 on the eight points of A_8
    (30000, ["verify", "--theorem", "main", "--group", "catalog:A_8", "-k", "7",
             "--materialization-bound", "1000000"]),
    # the survey naming pool: S_4 in the degree-4 pool
    (20, ["table1", "--materialization-bound", "100000"]),
    # the degree-7 panel: S_5 in S_5 sd S_2
    (100, ["verify", "--theorem", "main", "--materialization-bound", "1000000"]),
])
def test_fixed_groups_are_built_under_no_environment_budget(
    capsys, environment_bound, bound, argv
):
    """A low bound in the environment, lifted by the flag: the command
    builds its own groups under the flag's bound or the package defaults,
    and prints what it prints without the variable."""
    environment_bound(bound)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    environment_bound(None)
    catalog.survey_candidates.cache_clear()
    assert run(capsys, *argv, "--format", "json") == (0, out, "")


def test_environment_sets_each_budget(monkeypatch):
    for kind in KINDS.values():
        monkeypatch.setenv(kind.env, "7")
        assert getattr(default_budgets(), kind.field) == 7
        monkeypatch.setenv(kind.env, "0")
        with pytest.raises(ValueError, match=kind.env):
            default_budgets()
        monkeypatch.delenv(kind.env)
    monkeypatch.setenv("PERMCLOSURE_TUPLE_BUDGET", "ten")
    with pytest.raises(ValueError, match="PERMCLOSURE_TUPLE_BUDGET must be an integer, got 'ten'"):
        default_budgets()


def test_degree_zero_names_are_unknown(capsys):
    for name in ("S_0", "A_0"):
        code, _, err = run(capsys, "closure", f"catalog:{name}", "-k", "2")
        assert code == 5 and "degree at least 1" in err


def test_catalog_names_are_bounded_by_the_budgets(capsys, monkeypatch):
    code, out, _ = run(capsys, "closure", "catalog:C_12", "-k", "2")
    assert code == 0 and "closure order: 12" in out

    def fail(*args):
        raise AssertionError("built a group before checking the bound")

    monkeypatch.setattr(catalog, "_parametric_group", fail)
    code, _, err = run(capsys, "orbit-equiv", "catalog:A_9", "catalog:S_9", "-k", "2",
                       "--materialization-bound", "1000")
    # the need shown is the first partial product of 9!/2 past the bound
    assert code == 4
    assert "need 2520," in err and "raise --materialization-bound" in err
    code, _, err = run(capsys, "closure", "catalog:S_11", "-k", "2")
    assert code == 4
    assert f"need {math.factorial(11)}," in err and "raise --materialization-bound" in err
    # a huge degree is refused at once, without multiplying out its order
    code, _, err = run(capsys, "closure", "catalog:S_1000000", "-k", "2")
    assert code == 4 and "raise --materialization-bound" in err
    # C_n and D_n are small groups, but their 2^n words pass the tuple budget;
    # 2^100000 has too many digits to print
    code, _, err = run(capsys, "closure", "catalog:C_100000", "-k", "2")
    assert code == 4
    assert "need more than 10^4000," in err and "raise --tuple-budget" in err
    code, _, err = run(capsys, "chain", "catalog:D_30")
    assert code == 4 and f"need {2**30}," in err and "raise --tuple-budget" in err


def test_malformed_group_file(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("degree: 3\n(1 9)\n")
    code, _, err = run(capsys, "closure", str(bad), "-k", "2")
    assert code == 3
    assert "error:" in err


def test_huge_group_file_degree_is_refused_by_the_tuple_budget(capsys, tmp_path):
    """A group file's 2^n words pass the tuple budget as a catalog family's
    do; the degree is refused before a generator allocates its images."""
    huge = tmp_path / "huge.grp"
    huge.write_text("degree: 1000000000000\n(1 2)\n")
    code, _, err = run(capsys, "closure", str(huge), "-k", "2")
    assert code == 4
    assert "need more than 10^4000," in err and "raise --tuple-budget" in err
    wide = tmp_path / "wide.grp"
    wide.write_text("degree: 27\n(1 2)\n")
    code, _, err = run(capsys, "closure", str(wide), "-k", "2")
    assert code == 4 and f"need {2**27}," in err and "raise --tuple-budget" in err


_GROUP_TOKENS = ["(", ")", " ", ",", "#", "\n", "0", "1", "2", "3", "7", "9", "-1", "id",
                 "()", "x", "\u00b2", "\u0663", "degree:", "1e3", "999999999999"]


@st.composite
def group_file_texts(draw):
    """Near-misses of the group format: a header that may be missing,
    garbled or huge, then generator lines spliced from format tokens."""
    degree = draw(st.one_of(
        st.integers(-2, 7), st.integers(10**6, 10**30),
        st.text(max_size=4).map(lambda t: t.strip() or "?"),
    ))
    header = draw(st.sampled_from(["degree: {}", "degree:{}", "degree {}", "{}", ""]))
    lines = draw(st.lists(
        st.lists(st.sampled_from(_GROUP_TOKENS), max_size=12).map("".join),
        max_size=4,
    ))
    return "\n".join([header.format(degree)] + lines) + "\n"


@given(group_file_texts())
def test_malformed_group_files_exit_with_a_documented_code(tmp_path_factory, text):
    """No group file ends in a traceback: every one exits with a code from
    the README table."""
    path = tmp_path_factory.getbasetemp() / "malformed.grp"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["closure", str(path), "-k", "2"])
        except SystemExit as exc:  # usage errors leave through argparse
            code = exc.code
    assert code in (0, 1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# the other subcommands


def test_chain_output(capsys, c4_file):
    code, out, _ = run(capsys, "chain", c4_file)
    assert code == 0
    assert "k=2: closure order 8 (not closed)" in out
    assert "k=3: closure order 4 (closed)" in out


def test_orbit_equiv_exit_codes(capsys, tmp_path):
    a3 = tmp_path / "a3.grp"
    a3.write_text("degree: 3\n(1 2 3)\n")
    s3 = tmp_path / "s3.grp"
    s3.write_text("degree: 3\n(1 2 3)\n(1 2)\n")
    code, out, _ = run(capsys, "orbit-equiv", str(a3), str(s3), "-k", "2")
    assert code == 0 and "equivalent: yes" in out
    code, out, _ = run(capsys, "orbit-equiv", str(a3), str(s3), "-k", "3")
    assert code == 1 and "equivalent: no" in out


def test_orbit_equiv_counts_six_letters_over_ten_points_quickly(capsys):
    """PGL(2,9) <= PGammaL(2,9) at k = 6: the counts on 6^10 and the
    nested verdict on the 226,800-tuple balanced class all come from the
    cycle index, so nothing of 60,466,176 tuples is built.  Labelled, this
    took 41 s and 4.2 GB.  The expected counts are Burnside's, element by
    element."""
    names = ("PGL(2,9)", "PGammaL(2,9)")
    want = [burnside_count(catalog.get_group(name), 6) for name in names]
    tuples.clear_partition_cache()
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code, out, _ = run(capsys, "orbit-equiv", *(f"catalog:{name}" for name in names),
                           "-k", "6", "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - started
    assert code == 1 and json.loads(out)["orbit_counts"] == want == [87654, 49875]
    assert elapsed < 2 and peak < 16 * 2**20, (elapsed, peak)


def test_invariance_subcommand(capsys, tmp_path):
    table = tmp_path / "maj.tbl"
    rows = [
        f"{a} {b} {c} -> {2 if (a, b, c).count(2) >= 2 else 1}"
        for a in (1, 2) for b in (1, 2) for c in (1, 2)
    ]
    table.write_text("3 2 2\n" + "\n".join(rows) + "\n")
    code, out, _ = run(capsys, "invariance", str(table), "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_enumerate_lists_classes(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert "30 in 11 conjugacy classes" in out
    assert out.splitlines()[-1].strip().startswith("24 |")


@pytest.mark.parametrize("n", [4, 5])
def test_enumerate_refuses_a_bound_below_the_symmetric_group(capsys, monkeypatch, n):
    """The refusal comes before anything is built, cached degree or not."""
    bound = str(math.factorial(n))
    code, out, _ = run(capsys, "enumerate", "--n", str(n), "--materialization-bound", bound)
    assert code == 0 and out

    def fail(*args):
        raise AssertionError("built rows before checking the bound")

    monkeypatch.setattr(subgroups, "_symmetric_rows", fail)
    code, _, err = run(capsys, "enumerate", "--n", str(n),
                       "--materialization-bound", str(math.factorial(n) - 1))
    assert code == 4
    assert f"need {bound}," in err and "--materialization-bound" in err


def test_verify_theorem_choice_is_validated(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "nonsense"])
    assert exc.value.code == 2


def test_verify_pairwise_equivalence(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "seress", "--n", "5")
    assert code == 0
    assert "expected classes matched: yes" in out


def test_verify_wielandt_small(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "wielandt", "--n", "4")
    assert code == 0
    assert "90 containment checks" in out and "0 failures" in out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_verify_wielandt_counts_every_subgroup(capsys, n):
    """One representative is checked per class, and the counts weigh it
    by its class size: three checks per subgroup."""
    code, out, _ = run(capsys, "verify", "--theorem", "wielandt", "--n", str(n),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["degrees"] == {
        str(n): {"checked": 3 * subgroups.EXPECTED_TOTALS[n], "failed": 0}
    }


def test_verify_wielandt_timings_add_lines_only(capsys):
    _, plain, _ = run(capsys, "verify", "--theorem", "wielandt")
    code, timed, _ = run(capsys, "verify", "--theorem", "wielandt", "--timings")
    assert code == 0
    extra = timed.splitlines()
    assert "  representatives checked: 11" in extra
    assert "  representatives checked: 19" in extra
    assert extra[-1].startswith("wall time: ")
    assert [line for line in extra if "representatives" not in line][:-1] == plain.splitlines()
    code, out, _ = run(capsys, "verify", "--theorem", "wielandt", "--n", "6",
                       "--timings", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["wall_time"] > 0
    assert doc["degrees"]["6"]["representatives"] == subgroups.EXPECTED_CLASS_COUNTS[6]


def test_verify_main_panel_row(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "main",
                       "--group", "catalog:C_7", "--k", "5")
    assert code == 0
    assert "agree" in out


def test_verify_main_a8_derives_generators_of_large_projections(capsys):
    # the block projection of A_8 has 20160 elements; its generators are derived
    code, out, _ = run(capsys, "verify", "--theorem", "main",
                       "--group", "catalog:A_8", "-k", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["computed_closure_order"] == 40320


def test_verify_main_group_without_k(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "main", "--group", "catalog:C_7"])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism


def test_repeated_runs_are_byte_identical(capsys, c4_file):
    _, one, _ = run(capsys, "chain", c4_file, "--format", "json")
    _, two, _ = run(capsys, "chain", c4_file, "--format", "json")
    assert one == two


@pytest.mark.parametrize(
    "argv",
    [
        ["closure", "catalog:C_4", "-k", "2"],
        ["chain", "catalog:A_5"],
        ["table1"],
        ["orbit-equiv", "catalog:A_5", "catalog:S_5", "-k", "3"],
        ["invariance", "{table}"],
        ["enumerate", "--n", "4"],
        ["verify", "--theorem", "main"],
        ["verify", "--theorem", "main", "--group", "catalog:C_7", "--k", "5"],
        ["verify", "--theorem", "seress", "--n", "5"],
        ["verify", "--theorem", "primitive3", "--n", "5"],
    ],
    ids=" ".join,
)
def test_timings_add_only_the_wall_time(capsys, tmp_path, monkeypatch, argv):
    """``--timings`` adds a final wall-time line, to the millisecond, and a
    ``wall_time`` key; everything else is what the plain run prints.  The
    figure covers the whole handler: a group that takes 50 ms to load adds
    at least 50 ms to it."""
    table = tmp_path / "maj.tbl"
    table.write_text("3 2 2\ndefault 1\n2 2 1 -> 2\n2 1 2 -> 2\n1 2 2 -> 2\n2 2 2 -> 2\n")
    argv = [str(table) if a == "{table}" else a for a in argv]
    code, plain, _ = run(capsys, *argv)
    timed_code, timed, _ = run(capsys, *argv, "--timings")
    *head, last = timed.splitlines()
    assert timed_code == code and head == plain.splitlines()
    assert re.fullmatch(r"wall time: \d+\.\d{3}s", last)
    _, plain, _ = run(capsys, *argv, "--format", "json")
    _, timed, _ = run(capsys, *argv, "--format", "json", "--timings")
    timed = json.loads(timed)
    assert timed.pop("wall_time") > 0
    assert timed == json.loads(plain)
    loads = []

    def slow_load(*a):
        loads.append(a)
        time.sleep(0.05)
        return load(*a)

    load = cli._load_group
    monkeypatch.setattr(cli, "_load_group", slow_load)
    _, timed, _ = run(capsys, *argv, "--format", "json", "--timings")
    assert json.loads(timed)["wall_time"] >= 0.05 * len(loads)
    assert bool(loads) == (argv[0] in ("closure", "chain", "orbit-equiv") or "--group" in argv)
