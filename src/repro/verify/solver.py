"""Solver backends: how the property library gets discharged.

The shipped backend is :class:`ExhaustiveSolver` — the reachable
``(revision, state)`` product is small and enumerable by construction, so
plain exhaustive enumeration is a complete decision procedure here.  The
interface is deliberately tiny (a name plus ``run(model, properties)``):
:func:`register_solver` adds a backend without touching the checker, as
long as it emits the same :class:`PropertyResult` rows.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Sequence, Tuple

from .counterexample import Counterexample
from .model import PolicyModel
from .properties import StaticProperty


class SolverUnavailable(RuntimeError):
    """Raised when a registered solver backend cannot run here."""


@dataclasses.dataclass
class PropertyResult:
    """One property's verdict: pass/fail plus proof-effort accounting."""

    prop_id: str
    title: str
    passed: bool
    counterexamples: Tuple[Counterexample, ...] = ()
    checks: int = 0          # decision-oracle invocations for this proof
    elapsed_ns: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "prop_id": self.prop_id,
            "title": self.title,
            "passed": self.passed,
            "counterexamples": [c.to_dict()
                                for c in self.counterexamples],
            "checks": self.checks,
            "elapsed_ns": self.elapsed_ns,
        }


class Solver:
    """A proof backend for the static property library."""

    name = "abstract"

    def run(self, model: PolicyModel,
            properties: Sequence[StaticProperty]) -> List[PropertyResult]:
        raise NotImplementedError


class ExhaustiveSolver(Solver):
    """Complete enumeration over the reachable product — the reference
    decision procedure every later backend must agree with."""

    name = "exhaustive"

    def run(self, model: PolicyModel,
            properties: Sequence[StaticProperty]) -> List[PropertyResult]:
        results: List[PropertyResult] = []
        for prop in properties:
            before = model.checks
            started = time.perf_counter_ns()
            counterexamples = tuple(prop.check(model))
            results.append(PropertyResult(
                prop_id=prop.prop_id, title=prop.title,
                passed=not counterexamples,
                counterexamples=counterexamples,
                checks=model.checks - before,
                elapsed_ns=time.perf_counter_ns() - started))
        return results


_SOLVERS: Dict[str, Callable[[], Solver]] = {
    "exhaustive": ExhaustiveSolver,
}


def register_solver(name: str, factory: Callable[[], Solver]) -> None:
    """Register (or replace) a solver backend under *name*."""
    _SOLVERS[name] = factory


def solver_names() -> List[str]:
    return sorted(_SOLVERS)


def get_solver(name: str) -> Solver:
    factory = _SOLVERS.get(name)
    if factory is None:
        raise SolverUnavailable(
            f"unknown solver {name!r}; registered: "
            f"{', '.join(solver_names())}")
    return factory()
