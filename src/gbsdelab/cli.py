"""Batch front door: JSON configs in, CSV tables and a summary out.

Usage: gbsde run <config.json> <experiment> [--out DIR] [--seed N]
                 [--levels a,b,c]

Experiments: upper-expectation, envelope-report, ladder, solve, golden,
compare, kcheck.  Every run writes summary.json (all measured
quantities, bounds, pass/fail flags) plus experiment CSVs.  The exit
status is 0 exactly when every certified bound holds and 1 when one
fails; 2 means the run stopped on a bad config or argument, or on a
config or output path it could not read or write.  Outputs are
byte-identical across reruns with the same config and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import gbsde, gsim, pde
from .envelope import (
    ZERO_GENERATOR,
    Modulus,
    ScalarGenerator,
    envelope_gap_bound,
    envelope_of,
)
from .expr import ParseError, evaluate, free_vars, parse
from .gfunction import GParams

class ConfigError(ValueError):
    """Config validation failure; message carries a JSON pointer."""

    def __init__(self, pointer, message):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def _get(d, key, pointer, default=None, required=False):
    if key not in d:
        if required:
            raise ConfigError(f"{pointer}/{key}", "missing required field")
        return default
    return d[key]


_JSON_TYPES = {bool: "a boolean", type(None): "null", str: "a string",
               list: "an array", dict: "an object"}


def _number(value, pointer, integral=False):
    """A JSON number as a float, or as an int where integral is set (an
    integral float such as 801.0 passes); bools, null, strings, arrays and
    objects are refused, not coerced, and so are NaN, the infinities and
    ints beyond the float range, all of which Python's JSON reader accepts."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ConfigError(pointer, f"must be a number, not {got}")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, an int past the floats
        raise ConfigError(pointer, f"must be finite, not {value!r}")
    if not integral:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(pointer, f"must be an integer, not {value!r}")
    return int(value)


def _num(d, key, pointer, default=None, required=False, integral=False):
    """_number of the field d[key] (or of its default)."""
    value = _get(d, key, pointer, default, required)
    return _number(value, f"{pointer}/{key}", integral)


def _array(value, pointer):
    if not isinstance(value, list):
        raise ConfigError(pointer, "must be an array")
    return value


def _numbers(value, pointer):
    """A JSON array of numbers as a list of floats."""
    return [_number(v, f"{pointer}/{i}") for i, v in enumerate(_array(value, pointer))]


def _section(raw, key, required=False):
    """A top-level object such as /grid; absent means every default."""
    value = _get(raw, key, "", {}, required)
    if not isinstance(value, dict):
        raise ConfigError(f"/{key}", "must be an object")
    return value


def _build(pointer, cls, *args, **kwargs):
    """cls(*args, **kwargs) with its ValueError a ConfigError at pointer; the
    arguments are read first, so a field's own error keeps its pointer."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(pointer, str(e)) from None


def _expr(text, pointer):
    try:
        return parse(str(text))
    except (ParseError, ValueError) as e:
        raise ConfigError(pointer, f"bad expression: {e}") from None


def _modulus(d, pointer):
    if not isinstance(d, dict):
        raise ConfigError(pointer, "modulus must be an object")
    return _build(
        pointer, Modulus,
        kind=_get(d, "kind", pointer, required=True),
        c=_num(d, "c", pointer, 1.0),
        alpha=_num(d, "alpha", pointer, 1.0),
        growth_L=_num(d, "growth_L", pointer, 1.0),
        rs=tuple(_numbers(_get(d, "rs", pointer, []), f"{pointer}/rs")),
        values=tuple(_numbers(_get(d, "values", pointer, []), f"{pointer}/values")),
    )


def _generator(d, pointer, T=1.0, reach=8.0):
    if not isinstance(d, dict):
        raise ConfigError(pointer, "generator must be an object")
    body = _expr(_get(d, "body", pointer, required=True), f"{pointer}/body")
    mod = _modulus(_get(d, "modulus", pointer, required=True), f"{pointer}/modulus")
    gen = _build(pointer, ScalarGenerator, body, modulus_z=mod,
                 lip_y=_num(d, "lip_y", pointer, 0.0),
                 growth_L=_num(d, "growth_L", pointer, 0.0))
    found = gen.refute(np.random.default_rng(0), T, reach)  # fixed: one verdict per config
    if found:
        name, point, left, right = found
        field = {"modulus_z": "modulus", "lip_y": "lip_y"}.get(
            name, "growth_L" if d.get("growth_L") else "modulus/growth_L")
        at = ", ".join(f"{k}={v:.17g}" for k, v in point.items())
        raise ConfigError(f"{pointer}/{field}", f"the declaration is false at {at}: "
                          f"{left:.17g} exceeds its bound {right:.17g}")
    return gen


def _problem(d, gparams, reach, pointer="/problem"):
    if not isinstance(d, dict):
        raise ConfigError(pointer, "problem must be an object")
    coeffs_kwargs = {}
    for name, default in (("b", "0"), ("h", "0"), ("sigma", "1")):
        coeffs_kwargs[name] = _expr(_get(d, name, pointer, default), f"{pointer}/{name}")
    phi = _expr(_get(d, "Phi", pointer, required=True), f"{pointer}/Phi")
    coeffs = _build(
        pointer, pde.CoefficientSet,
        coeffs_kwargs["b"], coeffs_kwargs["h"], coeffs_kwargs["sigma"], phi,
        lip_const=_num(d, "lip_const", pointer, 1.0),
        growth_q=_num(d, "growth_q", pointer, 2, integral=True),
    )
    T = _num(d, "T", pointer, 1.0)  # the generators are sampled on [0, T]
    f, g = (_generator(d[k], f"{pointer}/{k}", T, reach) if k in d else ZERO_GENERATOR
            for k in ("f", "g"))
    return _build(pointer, pde.PdeProblem, coeffs, f, g, gparams, T=T)


def _levels(values, pointer):
    """Ladder levels as floats; an empty list would certify nothing."""
    levels = _numbers(values, pointer)
    if not levels:
        raise ConfigError(pointer, "need at least one level")
    return levels


class RunConfig:
    """Validated config: constructed problem objects plus the run's knobs."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("", "top-level config must be an object")
        gp_raw = _section(raw, "gparams", required=True)
        self.gparams = _build("/gparams", GParams,
                              _num(gp_raw, "sigma_low_sq", "/gparams", required=True),
                              _num(gp_raw, "sigma_high_sq", "/gparams", required=True))
        grid = _section(raw, "grid")
        x_min = _num(grid, "x_min", "/grid", -4.0)
        x_max = _num(grid, "x_max", "/grid", 4.0)
        # the generators' declarations are sampled at every x of the domain
        reach = max(8.0, abs(x_min), abs(x_max))
        self.problem = _problem(_get(raw, "problem", "", required=True), self.gparams, reach)
        self.problem2 = None
        if "problem2" in raw:
            self.problem2 = _problem(raw["problem2"], self.gparams, reach, "/problem2")
        nx = _num(grid, "nx", "/grid", 801, integral=True)
        core_fraction = _num(grid, "core_fraction", "/grid", 0.5)
        if nx < 3:
            raise ConfigError("/grid/nx", "nx must be at least 3")
        if not (x_min < x_max):
            raise ConfigError("/grid/x_min", "x_min must be below x_max")
        if not (0.0 < core_fraction <= 1.0):
            raise ConfigError("/grid/core_fraction", "core_fraction must lie in (0, 1]")
        # the nodes; each solve refines dt for the problems it steps
        self.grid = pde.SpaceTimeGrid(x_min, x_max, nx, self.problem.T, 1, core_fraction)
        if not self.grid.core_mask().any():
            raise ConfigError("/grid/core_fraction", "the core holds no node of the grid; "
                              "raise core_fraction or nx")
        ladder = _section(raw, "ladder")
        base = gbsde.level_base(gbsde.problem_growth_L(self.problem))
        self.levels = _levels(_get(
            ladder, "levels", "/ladder", [base * 2.0**k for k in range(5)]
        ), "/ladder/levels")
        self.target_gap = _num(ladder, "target_gap", "/ladder", 0.05)
        mc = _section(raw, "mc")
        self.n_paths = _num(mc, "n_paths", "/mc", 10000, integral=True)
        self.mc_dt = _num(mc, "dt", "/mc", 1e-3)
        if self.n_paths < 1:
            raise ConfigError("/mc/n_paths", "n_paths must be at least 1")
        if not self.mc_dt > 0.0:
            raise ConfigError("/mc/dt", "dt must be positive")
        self.seed = _build("/mc/seed", gsim.check_seed,
                           _num(mc, "seed", "/mc", 1234, integral=True))
        self.policies = list(_array(_get(mc, "policies", "/mc", ["low", "high"]),
                                    "/mc/policies"))
        if not self.policies:  # kcheck would certify nothing
            raise ConfigError("/mc/policies", "need at least one policy")
        for i, name in enumerate(self.policies):
            if name != "feedback":  # the control needs a solve; built later
                _make_policy(name, self.gparams, None, f"/mc/policies/{i}")
        self.x0 = _num(mc, "x0", "/mc", 0.0)
        self.reference = None
        if "reference" in raw:
            ref = _expr(raw["reference"], "/reference")
            if free_vars(ref) - {"t", "x"}:
                raise ConfigError("/reference", "reference may use t and x only")
            self.reference = ref


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("", f"config file not found: {path}") from None
    except OSError as e:  # a directory, a file without read permission
        raise ConfigError("", f"cannot read config file {path}: {e.strerror}") from None
    except ValueError as e:  # bad syntax, bytes that are not UTF-8, an int of 4,300+ digits
        raise ConfigError("", f"invalid JSON: {e}") from None
    return RunConfig(raw)


def _write_csv(path, header_cols, rows):
    with open(path, "w") as fh:
        fh.write(pde.SCHEMA)
        fh.write(",".join(header_cols) + "\n")
        for row in rows:
            fh.write(",".join(
                f"{v:.17g}" if isinstance(v, float) else str(v) for v in row
            ) + "\n")


def _write_records(path, keys, records):
    """CSV of the given keys of each summary record, in that order."""
    _write_csv(path, keys, ([r[k] for k in keys] for r in records))


def _write_summary(out_dir, summary):
    # numpy floats are floats to json; other numpy scalars go through item()
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=lambda v: v.item())
        fh.write("\n")


def _make_policy(name, gparams, feedback_ctx, pointer="/mc/policies"):
    """The policy an /mc/policies entry names: low, high, feedback, or a
    number (or numeric string) inside the variance interval."""
    if name == "feedback":
        return gsim.FeedbackPolicy(*feedback_ctx)
    if name in ("low", "high"):
        name = gparams.sigma_low_sq if name == "low" else gparams.sigma_high_sq
    elif isinstance(name, str):
        try:
            name = float(name)
        except ValueError:
            raise ConfigError(pointer, f"unknown policy {name!r}") from None
    return _build(pointer, gsim.ConstantPolicy, _number(name, pointer), gparams)


# -- experiments -------------------------------------------------------------


def _exp_upper_expectation(cfg: RunConfig, out_dir):
    payoff = cfg.problem.coeffs.Phi
    # one solve gives the PDE value and the feedback control
    feedback_ctx = gsim.heat_solution(
        payoff, cfg.gparams, cfg.problem.T, cfg.grid.x_min, cfg.grid.x_max, cfg.grid.nx
    )
    pde_val = pde.eval_u(feedback_ctx[0], 0.0, 0.0)
    policies = [_make_policy(name, cfg.gparams, feedback_ctx) for name in cfg.policies]
    terminals = gsim.terminal_states(
        policies, cfg.gparams, 0.0, cfg.problem.T, cfg.mc_dt, cfg.n_paths, cfg.seed
    )
    est = gsim.estimate_terminal(payoff, list(zip(map(str, cfg.policies), terminals)))
    checks = [{"policy": name, "mc": mean, "se": se,
               "dominated": mean <= pde_val + 3.0 * se + 5e-3}
              for name, mean, se in est.per_policy]
    _write_csv(os.path.join(out_dir, "upper_expectation.csv"),
               ["policy", "mc_mean", "mc_se", "dominated"],
               ([c["policy"], c["mc"], c["se"], c["dominated"]] for c in checks))
    return {"experiment": "upper-expectation", "pde_value": pde_val,
            "policies": checks, "passed": all(c["dominated"] for c in checks)}


def _exp_envelope_report(cfg: RunConfig, out_dir):
    f = cfg.problem.f
    L = gbsde.problem_growth_L(cfg.problem)
    zs = np.linspace(-4.0, 4.0, 401)
    level_reports = []
    for n in cfg.levels:
        lo, up = envelope_of(f, n, "lower"), envelope_of(f, n, "upper")
        fv, lov, upv = (pde._as_field(gen.eval_grid(0.0, 0.0, 0.0, zs), zs.shape)
                        for gen in (f, lo, up))
        gap = float(max(np.max(fv - lov), np.max(upv - fv)))
        bound = envelope_gap_bound(f, L, n)
        # no interpolation error where the envelope is f itself
        slack = (0.0 if lo is f else lo.interp_error_bound(zs)) + 1e-9
        level_reports.append({"level": n, "max_gap": gap, "bound": bound,
                              "pass": gap <= bound + slack})
    _write_records(os.path.join(out_dir, "envelope_report.csv"),
                   ["level", "max_gap", "bound", "pass"], level_reports)
    return {"experiment": "envelope-report", "levels": level_reports,
            "passed": all(r["pass"] for r in level_reports)}


def _exp_ladder(cfg: RunConfig, out_dir):
    lad = gbsde.approximation_ladder(cfg.problem, cfg.levels, cfg.grid)
    reports = [{"level": n, "gap": gap, "bound": bound, "pass": ok} for n, gap, bound, ok
               in zip(lad.levels, lad.gap_report, lad.bound_report, lad.passed)]
    _write_records(os.path.join(out_dir, "ladder.csv"),
                   ["level", "gap", "bound", "pass"], reports)
    return {"experiment": "ladder", "tolerance": lad.tolerance,
            "levels": reports, "passed": all(r["pass"] for r in reports)}


def _solve_exact_summary(cfg: RunConfig, out_dir):
    ex = gbsde.solve_exact(cfg.problem, cfg.grid, cfg.target_gap)
    xs = cfg.grid.xs[cfg.grid.core_mask()]
    u0 = pde.eval_u_batch(ex.solution, 0.0, xs)
    _write_csv(os.path.join(out_dir, "solution_t0.csv"), ["x", "u"],
               list(zip(xs.tolist(), u0.tolist())))
    pde.solution_to_csv(ex.solution, os.path.join(out_dir, "solution_layers.csv"))
    return ex


def _exp_solve(cfg: RunConfig, out_dir):
    ex = _solve_exact_summary(cfg, out_dir)
    return {"experiment": "solve", "level": ex.level, "gap": ex.measured_gap,
            "bound": ex.bound, "tolerance": ex.tolerance,
            "target_gap": cfg.target_gap, "passed": ex.measured_gap <= cfg.target_gap}


def _exp_golden(cfg: RunConfig, out_dir):
    if cfg.reference is None:
        raise ConfigError("/reference", "golden experiment needs a reference "
                          "expression for the exact solution")
    ex = _solve_exact_summary(cfg, out_dir)
    core = cfg.grid.core_mask()
    times, values = ex.solution.times, ex.solution.values[:, core]
    ref = evaluate(cfg.reference, {"t": times[:, None], "x": cfg.grid.xs[None, core]})
    err = float(np.max(np.abs(values - pde._as_field(ref, values.shape))))
    # solve_exact has certified the gap against its bound
    return {"experiment": "golden", "level": ex.level, "gap": ex.measured_gap,
            "bound": ex.bound, "tolerance": ex.tolerance,
            "max_core_error": err, "threshold": cfg.target_gap,
            "passed": err <= cfg.target_gap}


def _exp_compare(cfg: RunConfig, out_dir):
    if cfg.problem2 is None:
        raise ConfigError("/problem2", "compare experiment needs a second problem")
    rep = gbsde.compare(cfg.problem, cfg.problem2, cfg.grid, cfg.target_gap)
    _write_csv(os.path.join(out_dir, "compare.csv"),
               ["min_core_diff", "level1", "level2", "pass"],
               [(rep.min_core_diff, rep.level1, rep.level2, rep.passed)])
    return {"experiment": "compare", "min_core_diff": rep.min_core_diff,
            "level1": rep.level1, "level2": rep.level2, "passed": rep.passed}


def _max_uptick(K):
    """max over paths and k of K_k - min_{j<=k} K_j for time-major K, one row
    at a time; a NaN stays in both running rows, so it gives NaN."""
    low = K[0].copy()
    top = K[0] - low
    for row in K[1:]:
        np.minimum(low, row, out=low)
        np.maximum(top, row - low, out=top)
    return float(np.max(top))


def _kcheck_policy(cfg: RunConfig, sol, name, scale_tol):
    """One policy's kcheck report; its paths are freed before the next."""
    pol = _make_policy(name, cfg.gparams, (sol, cfg.problem))
    ens = gsim.simulate_paths(
        pol, cfg.gparams, 0.0, cfg.problem.T, cfg.mc_dt, cfg.n_paths, cfg.seed
    )
    gsim.euler_forward(cfg.problem.coeffs, ens, cfg.x0)
    # Y and Z are read with a central stencil, one cell inside the domain
    X, grid = ens.X.T, sol.grid
    lo, hi = grid.x_min + grid.dx, grid.x_max - grid.dx
    out = (X.min(axis=1) < lo - pde._HULL_TOL) | (X.max(axis=1) > hi + pde._HULL_TOL)
    if out.any():
        reason = (f"paths leave [{lo:g}, {hi:g}], one cell inside the domain "
                  f"[{grid.x_min:g}, {grid.x_max:g}], at t={ens.times[out.argmax()]:g}; "
                  "widen the domain")
        print(f"kcheck {name}: {reason}", file=sys.stderr)
        return {"policy": str(name), "max_K_uptick": None, "tolerance": None,
                "pass": False, "reason": reason}
    tri = gbsde.extract_triple(sol, ens, cfg.problem)
    # max|a| as max(max a, -min a), without an |a| the size of the paths
    max_y, max_z = (max(float(np.max(a)), -float(np.min(a))) for a in (tri.Y, tri.Z))
    path_scale = 1.0 + max_y + max_z
    tol = scale_tol * path_scale
    uptick = _max_uptick(tri.K.T)
    return {"policy": str(name), "max_K_uptick": uptick, "tolerance": tol,
            "pass": uptick <= tol}


def _exp_kcheck(cfg: RunConfig, out_dir):
    sol = gbsde.solve_exact(cfg.problem, cfg.grid, cfg.target_gap).solution
    scale_tol = 5.0 * (cfg.grid.dx + np.sqrt(cfg.mc_dt))
    reports = [_kcheck_policy(cfg, sol, name, scale_tol) for name in cfg.policies]
    _write_records(os.path.join(out_dir, "kcheck.csv"),
                   ["policy", "max_K_uptick", "tolerance", "pass"], reports)
    return {"experiment": "kcheck", "policies": reports,
            "passed": all(r["pass"] for r in reports)}


_EXPERIMENTS = {
    "upper-expectation": _exp_upper_expectation,
    "envelope-report": _exp_envelope_report,
    "ladder": _exp_ladder,
    "solve": _exp_solve,
    "golden": _exp_golden,
    "compare": _exp_compare,
    "kcheck": _exp_kcheck,
}


def run(cfg: RunConfig, experiment: str, out_dir: str = ".") -> int:
    if experiment not in _EXPERIMENTS:
        print(f"unknown experiment {experiment!r}; choose from "
              f"{sorted(_EXPERIMENTS)}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    summary = _EXPERIMENTS[experiment](cfg, out_dir)
    _write_summary(out_dir, summary)
    return 0 if summary["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gbsde",
        description="Numerical laboratory for scalar backward equations "
        "under volatility uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser(
        "run",
        help="run one experiment from a JSON config",
        description="Config defaults: b=h=0, sigma=1, g=0, grid [-4,4] with "
        "nx=801 and core_fraction 0.5, ladder levels {2L,...,32L} or {1,...,16} if L=0, "
        "target_gap 0.05, mc n_paths=10000 dt=1e-3 seed=1234 "
        "policies [low, high] x0=0 (read by kcheck only). upper-expectation is "
        "the worst-case expectation of Phi(B_T) from B_0=0 under b=h=0, sigma=1 "
        "and no generators, whatever the problem declares.",
    )
    runp.add_argument("config", help="path to JSON config")
    runp.add_argument("experiment", help=f"one of {sorted(_EXPERIMENTS)}")
    runp.add_argument("--out", default=".", help="output directory")
    runp.add_argument("--seed", type=int, default=None, help="override mc seed")
    runp.add_argument("--levels", default=None,
                      help="comma-separated ladder levels override")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = _build("--seed", gsim.check_seed, args.seed)
        if args.levels is not None:
            try:
                levels = [float(v) for v in args.levels.split(",")] if args.levels else []
            except ValueError:
                raise ConfigError("--levels", f"not a list of numbers: {args.levels!r}") from None
            cfg.levels = _levels(levels, "--levels")
        return run(cfg, args.experiment, args.out)
    except (ConfigError, ValueError, RuntimeError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
