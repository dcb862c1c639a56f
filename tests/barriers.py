"""Lipschitz barrier problems that bracket every ladder level, for the
tests that check the bracket, and the variable substitution they use."""

from gbsdelab import pde
from gbsdelab.envelope import Modulus, ScalarGenerator
from gbsdelab.expr import Bin, Call, Expr, Neg, Num, Var, parse
from gbsdelab.gbsde import problem_growth_L


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace variables by expression trees; mapping maps names to Exprs."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Num):
        return e
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, mapping))
    if isinstance(e, Bin):
        return Bin(e.op, substitute(e.left, mapping), substitute(e.right, mapping))
    return Call(e.name, tuple(substitute(a, mapping) for a in e.args))


def barrier_problems(problem: pde.PdeProblem):
    """Lipschitz barrier problems squeezing every ladder solution.

    The generators are replaced by -L(1+|y|+|z|) + f(t,x,0,0) (lower) and
    +L(1+|y|+|z|) + f(t,x,0,0) (upper), same for g; these dominate /
    minorize every envelope level, so their solutions bracket the ladder.
    """
    L = problem_growth_L(problem)
    zero = {"y": Num(0.0), "z": Num(0.0)}
    mod = Modulus("linear", c=max(L, 1.0), growth_L=max(L, 1.0))

    def barrier(gen, sign):
        body = substitute(gen.body, zero)
        if L > 0.0:
            w = parse(f"{sign * L!r}*(1+abs(y)+abs(z))")
            body = Bin("+", w, body)
        return ScalarGenerator(body, lip_y=L, modulus_z=mod, growth_L=max(L, 1.0))

    lo, hi = (
        pde.PdeProblem(problem.coeffs, barrier(problem.f, sign), barrier(problem.g, sign),
                       problem.gparams, problem.T, L)
        for sign in (-1, +1)
    )
    return lo, hi
