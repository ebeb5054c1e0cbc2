"""Golden `--format json` outputs whose bytes depend on generator choice.

The class generators of ``enumerate``, the ``closure_generators`` of
``closure`` and the generators of ``invariance`` are picked greedily from a
group's elements, so a change in how groups are materialized could move
them even when every order stays right.  Each case's stdout is pinned by
its sha256 digest in ``golden_cli.json``.

To re-record after a deliberate output change::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from permclosure.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")

# the two-letter majority table from the README
MAJORITY_TABLE = "3 2 2\ndefault 1\n2 2 1 -> 2\n2 1 2 -> 2\n1 2 2 -> 2\n2 2 2 -> 2\n"

CLOSURE_GROUPS = ("C_4", "D_5", "A_5", "AGL(1,5)", "PGL(2,5)", "F_21", "AGL(1,8)", "D_8")


def _cases() -> dict[str, list[str]]:
    cases = {f"enumerate-{n}": ["enumerate", "--n", str(n)] for n in range(3, 7)}
    for name in CLOSURE_GROUPS:
        for k in (2, 3):
            for algorithm in ("pruned", "naive"):
                cases[f"closure-{name}-{k}-{algorithm}"] = [
                    "closure", f"catalog:{name}", "-k", str(k), "--algorithm", algorithm,
                ]
    # D_5 is closed; AGL(1,5) at k=2 is not, so its closure's generators
    # come from the candidates; C_7 at k=3 examines candidates over many
    # partitions
    for name, k in (("D_5", 2), ("AGL(1,5)", 2), ("C_7", 3)):
        cases[f"closure-{name}-{k}-kearnes"] = [
            "closure", f"catalog:{name}", "-k", str(k), "--algorithm", "kearnes",
        ]
    # AGL(1,8) at k=3 closes to a larger group over many partitions; its
    # candidate charge needs a raised budget
    cases["closure-AGL(1,8)-3-kearnes"] = [
        "closure", "catalog:AGL(1,8)", "-k", "3", "--algorithm", "kearnes",
        "--candidate-budget", "100000000",
    ]
    # closures whose generators are picked from a large closure's elements
    for name, k in (("A_7", 3), ("S_7", 2), ("A_9", 3)):
        cases[f"closure-{name}-{k}-pruned"] = ["closure", f"catalog:{name}", "-k", str(k)]
    cases["invariance-majority"] = ["invariance", "{table}"]
    cases["chain-A_5"] = ["chain", "catalog:A_5"]
    cases["verify-primitive3-9"] = ["verify", "--theorem", "primitive3", "--n", "9"]
    # every subgroup class of degree up to 6, named against the survey pool
    cases["table1"] = ["table1"]
    cases["verify-wielandt"] = ["verify", "--theorem", "wielandt"]
    # orbit counts read off the partitions; classify and orbit colorings
    for g, h, k in (("PSL(2,8)", "PGammaL(2,8)", 4), ("AGL(1,9)", "AGammaL(1,9)", 3), ("A_5", "S_5", 3)):
        cases[f"orbit-equiv-{g}-{h}-{k}"] = ["orbit-equiv", f"catalog:{g}", f"catalog:{h}", "-k", str(k)]
    cases["verify-main"] = ["verify", "--theorem", "main"]
    # degree 9 and 10: S_10 and A_10 rows, and the naive scan in many blocks
    cases["closure-A_10-3-pruned"] = ["closure", "catalog:A_10", "-k", "3"]
    cases["verify-seress-10"] = ["verify", "--theorem", "seress", "--n", "10"]
    cases["closure-D_9-2-naive"] = ["closure", "catalog:D_9", "-k", "2", "--algorithm", "naive"]
    return cases


CASES = _cases()

# cases whose command exits nonzero on purpose: these pairs are not orbit equivalent
EXIT_CODES = {
    "orbit-equiv-PSL(2,8)-PGammaL(2,8)-4": 1,
    "orbit-equiv-AGL(1,9)-AGammaL(1,9)-3": 1,
}


def json_digest(argv: list[str], table_path: str, expected_code: int = 0) -> str:
    """sha256 of the stdout of ``permclosure ARGV --format json``, run in-process."""
    buf = io.StringIO()
    argv = [a.replace("{table}", table_path) for a in argv] + ["--format", "json"]
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == expected_code, (argv, code)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def table_path(tmp_path) -> str:
    path = tmp_path / "majority.tbl"
    path.write_text(MAJORITY_TABLE)
    return str(path)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_output_is_unchanged(case, golden, table_path):
    assert json_digest(CASES[case], table_path, EXIT_CODES.get(case, 0)) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "majority.tbl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(MAJORITY_TABLE)
        record = {
            case: json_digest(argv, path, EXIT_CODES.get(case, 0))
            for case, argv in sorted(CASES.items())
        }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(record)} digests in {GOLDEN}", file=sys.stderr)
