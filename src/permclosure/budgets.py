"""Search bounds.

Defaults keep every built-in verification comfortably inside desk scale
while refusing absurd inputs fast.  ``KINDS`` is the one table of budget
kinds: each names the ``Budgets`` field that bounds it, the environment
variable read at import time, and the help text of its CLI flag, which is
the field name with dashes.  ``Budgets.check`` is the one place that
compares a need against its bound and raises BudgetExceeded.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BudgetExceeded, UsageError

__all__ = ["KINDS", "Budgets", "default_budgets", "resolve"]


class Kind(NamedTuple):
    field: str
    env: str
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.field.replace("_", "-")


KINDS = {
    "tuple-space": Kind(
        "tuple_budget", "PERMCLOSURE_TUPLE_BUDGET",
        "cap on tuples labelled or counted: the balanced class for the "
        "pruned closure and orbit equivalence, the injective point tuples "
        "for the Wielandt closure, all of k^n elsewhere",
    ),
    "candidate": Kind("candidate_budget", "PERMCLOSURE_CANDIDATE_BUDGET", "cap on candidates"),
    "materialization": Kind(
        "materialization_bound", "PERMCLOSURE_MATERIALIZATION_BOUND",
        "cap on group elements materialized",
    ),
}


@dataclass(frozen=True)
class Budgets:
    tuple_budget: int = 10**8
    candidate_budget: int = 10**7
    materialization_bound: int = math.factorial(10)

    def __post_init__(self):
        for kind in KINDS.values():
            value = getattr(self, kind.field)
            if not isinstance(value, int) or value < 1:
                raise UsageError(f"{kind.field} must be a positive integer, got {value!r}")

    def check(self, kind: str, needed: int) -> None:
        """Refuse, before the work starts, a need past the kind's bound."""
        allowed = getattr(self, KINDS[kind].field)
        if needed > allowed:
            raise BudgetExceeded(kind, needed, allowed)


def _env_int(name: str) -> int:
    raw = os.environ[name]
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def default_budgets() -> Budgets:
    """Budgets from the environment, falling back to the package defaults."""
    return Budgets(**{
        kind.field: _env_int(kind.env) for kind in KINDS.values() if kind.env in os.environ
    })


DEFAULT = default_budgets()


def resolve(budgets: Budgets | None) -> Budgets:
    return DEFAULT if budgets is None else budgets
