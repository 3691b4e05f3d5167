"""LIBRA's core: symbolic time expressions, constraints, solver, facade.

This package is the paper's primary contribution (Sec. IV):

* :mod:`repro.training.expr` — training time as a symbolic function of the
  bandwidth vector.
* :mod:`repro.core.constraints` — the designer constraint DSL (Sec. IV-F).
* :mod:`repro.core.solver` — the constrained optimizer replacing Gurobi.
* :class:`Libra` — the framework facade of Fig. 3.
* :func:`run_group_study` — the multi-workload protocol of Fig. 17.
"""

from repro.core.constraints import (
    DEFAULT_MIN_BANDWIDTH,
    ConstraintSet,
    LinearConstraint,
)
from repro.training.expr import (
    CommTerm,
    Const,
    Expr,
    MaxExpr,
    Sum,
    VectorEvaluator,
    count_nodes,
    simplify,
    vector_evaluator,
)
from repro.core.framework import Libra
from repro.core.group import GroupStudyResult, run_group_study
from repro.core.kernel import ConstraintBlocks
from repro.core.results import DesignPoint, Scheme
from repro.core.sensitivity import audit_solution, dual_bound
from repro.core.solver import (
    CompiledProgram,
    SolverResult,
    build_constraint_blocks,
    clear_solver_caches,
    compile_expression,
    minimize_time_cost_product,
    minimize_training_time,
    perspective_program,
    traffic_totals,
)

__all__ = [
    "DEFAULT_MIN_BANDWIDTH",
    "ConstraintSet",
    "LinearConstraint",
    "CommTerm",
    "Const",
    "Expr",
    "MaxExpr",
    "Sum",
    "count_nodes",
    "simplify",
    "Libra",
    "GroupStudyResult",
    "run_group_study",
    "DesignPoint",
    "audit_solution",
    "dual_bound",
    "Scheme",
    "CompiledProgram",
    "ConstraintBlocks",
    "SolverResult",
    "VectorEvaluator",
    "build_constraint_blocks",
    "clear_solver_caches",
    "compile_expression",
    "minimize_time_cost_product",
    "minimize_training_time",
    "perspective_program",
    "traffic_totals",
    "vector_evaluator",
]
