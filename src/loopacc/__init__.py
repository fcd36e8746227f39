"""Loop acceleration for integer array programs: exact lambda closed forms via
inductive/displacing/trivial lvalue classification, recurrence solving and
quantifier elimination, discharged with a lemmas-on-demand theory solver."""

from .accel import AcceleratedTransition, accelerate, check_reachability, encode_reachability
from .arrayform import closed_form_array, displacement, last_write_instantiation, not_written_qf
from .backend import BackendSession
from .classify import LvalueClass, Monotonicity, check_a_solvable, compute_L
from .closedform import ClosedFormTable, Failure, closed_forms_all
from .expr import (
    Bin, BoolConst, Const, FiniteFn, Ite, Lam, Rel, Sel, State, Var,
    beta_reduce, eval_expr, eval_formula, free_vars, lval_set, substitute,
)
from .gen import GenConfig, gen_loop
from .lamsolve import SolveResult, solve, verify_model
from .loop import Loop, build_up, run_n, step, up_pow, validate_loop
from .oracle import OracleReport, check_loop
from .problem import ProblemFile, parse_problem
from .recurrence import build_rec, solve_rec, verify_solution
from .sexpr import parse_expr, parse_formula, to_text
from .simplify import simplify, simplify_formula

__version__ = "0.1.0"
