"""The pluggable solver interface."""

import pytest

from repro.verify import SolverUnavailable, verify_policy
from repro.verify.solver import (ExhaustiveSolver, PropertyResult, Solver,
                                 get_solver, register_solver,
                                 solver_names)


class TestRegistry:
    def test_shipped_names(self):
        names = solver_names()
        assert "exhaustive" in names

    def test_exhaustive_resolves(self):
        assert isinstance(get_solver("exhaustive"), ExhaustiveSolver)

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(SolverUnavailable) as exc:
            get_solver("z3-magic")
        assert "exhaustive" in str(exc.value)


class TestCustomBackend:
    def test_registered_backend_is_used_by_the_checker(
            self, default_policy_text):
        class VacuousSolver(Solver):
            name = "vacuous"

            def run(self, model, properties):
                return [PropertyResult(p.prop_id, p.title, True)
                        for p in properties]

        register_solver("vacuous", VacuousSolver)
        try:
            report = verify_policy(default_policy_text,
                                   solver="vacuous")
            assert report.ok
            assert all(r.checks == 0 for r in report.results)
        finally:
            import repro.verify.solver as mod
            del mod._SOLVERS["vacuous"]
        assert "vacuous" not in solver_names()


class TestExhaustiveAccounting:
    def test_checks_and_elapsed_recorded(self, default_policy_text):
        report = verify_policy(default_policy_text)
        # Every property that interrogates the decision oracle charges
        # its checks to its own row; structural ones may be zero.
        assert sum(r.checks for r in report.results) == \
            report.model_stats["checks"]
        assert all(r.elapsed_ns > 0 for r in report.results)
