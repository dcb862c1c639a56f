"""Batch front door: JSON configs in, CSV tables and a summary out.

Usage: gbsde run <config.json> <experiment> [--out DIR] [--seed N]
                 [--levels a,b,c]

Experiments: upper-expectation, envelope-report, ladder, solve, golden,
compare, kcheck.  Every run writes summary.json (all measured
quantities, bounds, pass/fail flags) plus experiment CSVs; the exit
status is 0 exactly when every certified bound holds.  Outputs are
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
    EnvelopeGenerator,
    Modulus,
    ScalarGenerator,
    envelope_gap_bound,
)
from .expr import ParseError, free_vars, parse
from .gfunction import GParams

_SCHEMA = "# g-bsde-lab schema v1\n"


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


def _expr(text, pointer):
    try:
        return parse(str(text))
    except (ParseError, ValueError) as e:
        raise ConfigError(pointer, f"bad expression: {e}") from None


def _modulus(d, pointer):
    if not isinstance(d, dict):
        raise ConfigError(pointer, "modulus must be an object")
    kind = _get(d, "kind", pointer, required=True)
    try:
        return Modulus(
            kind=kind,
            c=float(_get(d, "c", pointer, 1.0)),
            alpha=float(_get(d, "alpha", pointer, 1.0)),
            growth_L=float(_get(d, "growth_L", pointer, 1.0)),
            rs=tuple(_get(d, "rs", pointer, ())),
            values=tuple(_get(d, "values", pointer, ())),
        )
    except ValueError as e:
        raise ConfigError(pointer, str(e)) from None


_ZERO_GEN = {"body": "0", "lip_y": 0.0,
             "modulus": {"kind": "linear", "c": 1.0, "growth_L": 1.0}}


def _generator(d, pointer):
    if not isinstance(d, dict):
        raise ConfigError(pointer, "generator must be an object")
    body = _expr(_get(d, "body", pointer, required=True), f"{pointer}/body")
    mod = _modulus(_get(d, "modulus", pointer, required=True), f"{pointer}/modulus")
    try:
        return ScalarGenerator(
            body,
            lip_y=float(_get(d, "lip_y", pointer, 0.0)),
            modulus_z=mod,
            growth_L=float(_get(d, "growth_L", pointer, 0.0)),
        )
    except ValueError as e:
        raise ConfigError(pointer, str(e)) from None


def _problem(raw, gparams, pointer="/problem"):
    d = raw
    if not isinstance(d, dict):
        raise ConfigError(pointer, "problem must be an object")
    coeffs_kwargs = {}
    for name, default in (("b", "0"), ("h", "0"), ("sigma", "1")):
        coeffs_kwargs[name] = _expr(_get(d, name, pointer, default), f"{pointer}/{name}")
    phi = _expr(_get(d, "Phi", pointer, required=True), f"{pointer}/Phi")
    try:
        coeffs = pde.CoefficientSet(
            coeffs_kwargs["b"], coeffs_kwargs["h"], coeffs_kwargs["sigma"], phi,
            lip_const=float(_get(d, "lip_const", pointer, 1.0)),
            growth_q=int(_get(d, "growth_q", pointer, 2)),
        )
    except ValueError as e:
        raise ConfigError(pointer, str(e)) from None
    f = _generator(_get(d, "f", pointer, _ZERO_GEN), f"{pointer}/f")
    g = _generator(_get(d, "g", pointer, _ZERO_GEN), f"{pointer}/g")
    try:
        return pde.PdeProblem(
            coeffs, f, g, gparams,
            T=float(_get(d, "T", pointer, 1.0)),
            lip_z_bound=float(_get(d, "lip_z_bound", pointer, 0.0)),
        )
    except ValueError as e:
        raise ConfigError(pointer, str(e)) from None


class RunConfig:
    """Validated config: constructed problem objects plus raw knobs."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("", "top-level config must be an object")
        gp_raw = _get(raw, "gparams", "", required=True)
        try:
            self.gparams = GParams(
                float(_get(gp_raw, "sigma_low_sq", "/gparams", required=True)),
                float(_get(gp_raw, "sigma_high_sq", "/gparams", required=True)),
            )
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError("/gparams", str(e)) from None
        self.problem = _problem(_get(raw, "problem", "", required=True), self.gparams)
        self.problem2 = None
        if "problem2" in raw:
            self.problem2 = _problem(raw["problem2"], self.gparams, "/problem2")
        grid = _get(raw, "grid", "", {})
        self.x_min = float(_get(grid, "x_min", "/grid", -4.0))
        self.x_max = float(_get(grid, "x_max", "/grid", 4.0))
        self.nx = int(_get(grid, "nx", "/grid", 801))
        self.core_fraction = float(_get(grid, "core_fraction", "/grid", 0.5))
        if self.nx < 3:
            raise ConfigError("/grid/nx", "nx must be at least 3")
        if not (self.x_min < self.x_max):
            raise ConfigError("/grid/x_min", "x_min must be below x_max")
        ladder = _get(raw, "ladder", "", {})
        L = gbsde.problem_growth_L(self.problem)
        self.levels = [float(v) for v in _get(
            ladder, "levels", "/ladder", [2 * L, 4 * L, 8 * L, 16 * L, 32 * L]
        )]
        self.target_gap = float(_get(ladder, "target_gap", "/ladder", 0.05))
        mc = _get(raw, "mc", "", {})
        self.n_paths = int(_get(mc, "n_paths", "/mc", 10000))
        self.mc_dt = float(_get(mc, "dt", "/mc", 1e-3))
        self.seed = int(_get(mc, "seed", "/mc", 1234))
        self.policies = list(_get(mc, "policies", "/mc", ["low", "high"]))
        self.x0 = float(_get(mc, "x0", "/mc", 0.0))
        self.reference = None
        if "reference" in raw:
            ref = _expr(raw["reference"], "/reference")
            if free_vars(ref) - {"t", "x"}:
                raise ConfigError("/reference", "reference may use t and x only")
            self.reference = ref
        self.raw = raw

    def build_grid(self):
        return pde.build_grid(
            self.problem, self.x_min, self.x_max, self.nx, self.core_fraction
        )


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("", f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError("", f"invalid JSON: {e}") from None
    return RunConfig(raw)


def _write_csv(path, header_cols, rows):
    with open(path, "w") as fh:
        fh.write(_SCHEMA)
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


def _make_policy(name, cfg, feedback_ctx):
    gp = cfg.gparams
    if name == "low":
        return gsim.ConstantPolicy(gp.sigma_low_sq, gp)
    if name == "high":
        return gsim.ConstantPolicy(gp.sigma_high_sq, gp)
    if name == "feedback":
        return gsim.FeedbackPolicy(*feedback_ctx)
    try:
        return gsim.ConstantPolicy(float(name), gp)
    except (TypeError, ValueError):
        raise ConfigError("/mc/policies", f"unknown policy {name!r}") from None


# -- experiments -------------------------------------------------------------


def _exp_upper_expectation(cfg: RunConfig, out_dir):
    payoff = cfg.problem.coeffs.Phi
    # one solve gives the PDE value and the feedback control
    feedback_ctx = gsim.heat_solution(
        payoff, cfg.gparams, cfg.problem.T, cfg.x_min, cfg.x_max, cfg.nx
    )
    pde_val = pde.eval_u(feedback_ctx[0], 0.0, 0.0)
    rows = []
    checks = []
    for name in cfg.policies:
        pol = _make_policy(name, cfg, feedback_ctx)
        ens = gsim.simulate_paths(
            pol, cfg.gparams, 0.0, cfg.problem.T, cfg.mc_dt, cfg.n_paths, cfg.seed
        )
        est = gsim.upper_expectation_mc(payoff, [ens])
        ok = est.value <= pde_val + 3.0 * est.se + 5e-3
        rows.append((str(name), est.value, est.se, ok))
        checks.append({"policy": str(name), "mc": est.value, "se": est.se,
                       "dominated": ok})
    _write_csv(
        os.path.join(out_dir, "upper_expectation.csv"),
        ["policy", "mc_mean", "mc_se", "dominated"],
        rows,
    )
    passed = all(c["dominated"] for c in checks)
    return {"experiment": "upper-expectation", "pde_value": pde_val,
            "policies": checks, "passed": passed}, passed


def _exp_envelope_report(cfg: RunConfig, out_dir):
    f = cfg.problem.f
    L = gbsde.problem_growth_L(cfg.problem)
    zs = np.linspace(-4.0, 4.0, 401)
    level_reports = []
    ok_all = True
    for n in cfg.levels:
        lo = EnvelopeGenerator(f, n, "lower")
        up = EnvelopeGenerator(f, n, "upper")
        fv = np.broadcast_to(
            np.asarray(f.eval_grid(0.0, 0.0, 0.0, zs), dtype=float), zs.shape
        )
        lov = np.broadcast_to(
            np.asarray(lo.eval_grid(0.0, 0.0, 0.0, zs), dtype=float), zs.shape
        )
        upv = np.broadcast_to(
            np.asarray(up.eval_grid(0.0, 0.0, 0.0, zs), dtype=float), zs.shape
        )
        gap = float(max(np.max(fv - lov), np.max(upv - fv)))
        bound = envelope_gap_bound(f.modulus_z, L, n) if "z" in free_vars(f.body) else 0.0
        slack = lo.interp_error_bound(zs) + 1e-9
        ok = gap <= bound + slack
        ok_all = ok_all and ok
        level_reports.append({"level": n, "max_gap": gap, "bound": bound, "pass": ok})
    _write_records(os.path.join(out_dir, "envelope_report.csv"),
                   ["level", "max_gap", "bound", "pass"], level_reports)
    return {"experiment": "envelope-report", "levels": level_reports,
            "passed": ok_all}, ok_all


def _exp_ladder(cfg: RunConfig, out_dir):
    grid = cfg.build_grid()
    lad = gbsde.approximation_ladder(cfg.problem, cfg.levels, grid)
    tol = lad.tolerance
    core = grid.core_mask()
    reports = []
    ok_all = True
    for i, n in enumerate(lad.levels):
        ok = lad.gap_report[i] <= lad.bound_report[i] + 2.0 * tol
        if i > 0:
            # each side moves toward the solution: lower up, upper down,
            # within tol on the core over every stored layer
            lo = lad.lower_solutions[i].values[:, core]
            plo = lad.lower_solutions[i - 1].values[:, core]
            up = lad.upper_solutions[i].values[:, core]
            pup = lad.upper_solutions[i - 1].values[:, core]
            ok = (ok and lad.gap_report[i] <= lad.gap_report[i - 1]
                  and bool(np.all(plo <= lo + tol)) and bool(np.all(up <= pup + tol)))
        ok_all = ok_all and ok
        reports.append({"level": n, "gap": lad.gap_report[i],
                        "bound": lad.bound_report[i], "pass": ok})
    _write_records(os.path.join(out_dir, "ladder.csv"),
                   ["level", "gap", "bound", "pass"], reports)
    return {"experiment": "ladder", "tolerance": lad.tolerance,
            "levels": reports, "passed": ok_all}, ok_all


def _solve_exact_summary(cfg: RunConfig, out_dir):
    grid = cfg.build_grid()
    ex = gbsde.solve_exact(cfg.problem, grid, cfg.target_gap)
    core = grid.core_mask()
    xs = grid.xs[core]
    u0 = pde.eval_u_batch(ex.solution, 0.0, xs)
    _write_csv(os.path.join(out_dir, "solution_t0.csv"), ["x", "u"],
               list(zip(xs.tolist(), u0.tolist())))
    pde.solution_to_csv(ex.solution, os.path.join(out_dir, "solution_layers.csv"))
    return grid, ex


def _exp_solve(cfg: RunConfig, out_dir):
    grid, ex = _solve_exact_summary(cfg, out_dir)
    passed = ex.measured_gap <= cfg.target_gap
    return {"experiment": "solve", "level": ex.level, "gap": ex.measured_gap,
            "bound": ex.bound, "tolerance": ex.tolerance,
            "target_gap": cfg.target_gap, "passed": passed}, passed


def _exp_golden(cfg: RunConfig, out_dir):
    if cfg.reference is None:
        raise ConfigError("/reference", "golden experiment needs a reference "
                          "expression for the exact solution")
    grid, ex = _solve_exact_summary(cfg, out_dir)
    core = grid.core_mask()
    xs = grid.xs[core]
    err = 0.0
    from .expr import evaluate
    for i, t in enumerate(ex.solution.times):
        ref = np.broadcast_to(
            np.asarray(evaluate(cfg.reference, {"t": t, "x": xs}), dtype=float),
            xs.shape,
        )
        err = max(err, float(np.max(np.abs(ex.solution.values[i][core] - ref))))
    passed = err <= cfg.target_gap and ex.measured_gap <= ex.bound + 2 * ex.tolerance
    return {"experiment": "golden", "level": ex.level, "gap": ex.measured_gap,
            "bound": ex.bound, "tolerance": ex.tolerance,
            "max_core_error": err, "threshold": cfg.target_gap,
            "passed": passed}, passed


def _exp_compare(cfg: RunConfig, out_dir):
    if cfg.problem2 is None:
        raise ConfigError("/problem2", "compare experiment needs a second problem")
    grid = cfg.build_grid()
    rep = gbsde.compare(cfg.problem, cfg.problem2, grid, cfg.target_gap)
    _write_csv(os.path.join(out_dir, "compare.csv"),
               ["min_core_diff", "level1", "level2", "pass"],
               [(rep.min_core_diff, rep.level1, rep.level2, rep.passed)])
    return {"experiment": "compare", "min_core_diff": rep.min_core_diff,
            "level1": rep.level1, "level2": rep.level2,
            "passed": rep.passed}, rep.passed


def _exp_kcheck(cfg: RunConfig, out_dir):
    grid = cfg.build_grid()
    ex = gbsde.solve_exact(cfg.problem, grid, cfg.target_gap)
    sol = ex.solution
    scale_tol = 5.0 * (grid.dx + np.sqrt(cfg.mc_dt))
    reports = []
    ok_all = True
    feedback_ctx = (sol, cfg.problem)
    for name in cfg.policies:
        pol = _make_policy(name, cfg, feedback_ctx)
        ens = gsim.simulate_paths(
            pol, cfg.gparams, 0.0, cfg.problem.T, cfg.mc_dt, cfg.n_paths, cfg.seed
        )
        gsim.euler_forward(cfg.problem.coeffs, ens, cfg.x0)
        tri = gbsde.extract_triple(sol, ens, cfg.problem)
        path_scale = 1.0 + float(np.max(np.abs(tri.Y))) + float(np.max(np.abs(tri.Z)))
        tol = scale_tol * path_scale
        uptick = float(np.max(tri.K - np.minimum.accumulate(tri.K, axis=1)))
        ok = uptick <= tol
        ok_all = ok_all and ok
        reports.append({"policy": str(name), "max_K_uptick": uptick,
                        "tolerance": tol, "pass": ok})
    _write_records(os.path.join(out_dir, "kcheck.csv"),
                   ["policy", "max_K_uptick", "tolerance", "pass"], reports)
    return {"experiment": "kcheck", "policies": reports, "passed": ok_all}, ok_all


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
    summary, passed = _EXPERIMENTS[experiment](cfg, out_dir)
    _write_summary(out_dir, summary)
    return 0 if passed else 1


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
        "nx=801 and core_fraction 0.5, ladder levels {2L,...,32L}, "
        "target_gap 0.05, mc n_paths=10000 dt=1e-3 seed=1234 "
        "policies [low, high].",
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
            cfg.seed = args.seed
        if args.levels is not None:
            cfg.levels = [float(v) for v in args.levels.split(",")]
        return run(cfg, args.experiment, args.out)
    except (ConfigError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
