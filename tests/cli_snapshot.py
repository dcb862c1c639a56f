"""Run every CLI experiment on the benchmark's seed-1 configs and on a few
small configs of its own.

    python3 tests/cli_snapshot.py OUT_DIR

Writes each config of bench/workloads.py (seed 1, full size) to
OUT_DIR/<workload>/<config>.json, and each config of SMALL_CONFIGS to
OUT_DIR/small/<config>.json, runs every experiment of the CLI on it
into OUT_DIR/<workload>/<config>/<experiment>/, and lists the exit
codes in OUT_DIR/exit_codes.txt.  The small configs cover paths the
benchmark never runs, each run in seconds: nonzero b and h, a g in z, a
sigma in x and a start x0 != 0 under the feedback policy (drift); a
sigma in t, which samples the stability bound at 33 times and evaluates
the fields at every step (time_sigma); a problem2 on another horizon,
which compare must refuse (horizons); an f in t, y and |z|^(1/2),
whose envelopes take the direct search (direct); and lattice envelopes
of f and g under nonzero b and h, with the dissipation on at the top
ladder level (dissipation), so that every term the solver's step may
skip is on somewhere.  In drift f passes through its envelopes and g
takes the lattice; in one_side it is the other way round, so each
level keeps two distinct envelope problems that share one generator.
In laggard, problem2's f passes through at every level and its level
walk stops below problem1's on the same grid, so compare reads its
stop-level solution as the solution at problem1's level.  In crossing,
f = min(4*abs(z),1) takes the lattice at level 2 and is its own
envelope at levels 4 and 8, so ladder, solve, compare and
envelope-report each see both sides of that rule.  In resolve, both
f are |z|^(1/2) and take the lattice, and the level walks stop at
levels 2 and 1, so compare solves problem2 again at level 2: the one
config whose compare re-solves a side.
time_golden is test_11's manufactured solution with time in it
(u = exp(2(0.5-t)) exp(-x^2/2), f in t, x, y and |z|), with u as its
reference, so that golden diffs one run against an exact answer.
The heat problem on Phi = abs(x)-1 (ties) and
on Phi = x*x*x (ties_cubic), under low, high and feedback, makes
feedback decisions that the curvature table finds sure high and sure
low, and others it leaves in doubt, among them snapped ties (flat
stretches, where its error bound exceeds 1e-9).  false_modulus declares
f = -8|z| linear with c = 0.5, which every experiment refuses at load
(exit 2); it once certified u(0, 0) = -3.19 although u >= 0.

The CLI summaries sample the paths (a max uptick, a mean), so
OUT_DIR/path_digests.txt also lists the SHA-256 of every array the path
API returns: B, QV, X, Y, Z and K of the benchmark's feedback kcheck
stages (seed 1) and of each policy of the drift, time_sigma, ties and
ties_cubic configs, and terminal_states of the low, high and feedback
policies on each of these setups.  gbsdelab is imported
from the src/ next to this file and bench/workloads.py is read without
writing bytecode, so the snapshots of two checkouts compare with one
`diff -r`.  Not collected by pytest (the name does not start with test_).
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

from gbsdelab import cli, envelope, gbsde, gfunction, gsim, pde  # noqa: E402

_GPARAMS = {"sigma_low_sq": 0.5, "sigma_high_sq": 1.0}
_LINEAR_F = {"body": "-0.5*abs(z)+0.1*y", "lip_y": 0.1,
             "modulus": {"kind": "linear", "c": 0.5, "growth_L": 0.5}}
_SQRT_G = {"body": "-0.25*sqrt(abs(z))",
           "modulus": {"kind": "power", "c": 0.25, "alpha": 0.5, "growth_L": 0.25}}
_MC = {"n_paths": 400, "dt": 0.01, "seed": 11, "x0": 0.5,
       "policies": ["low", "high", "feedback"]}


def _small(problem, problem2):
    return {"gparams": _GPARAMS, "problem": problem, "problem2": problem2,
            "grid": {"x_min": -5.0, "x_max": 5.0, "nx": 81, "core_fraction": 0.5},
            "ladder": {"levels": [1.0, 2.0, 4.0], "target_gap": 0.1},
            "mc": _MC, "reference": "x*x+(1-t)"}


_DRIFT = {"Phi": "x*x", "b": "0.2*x", "h": "0.1", "sigma": "1+0.1*x*x/(1+x*x)",
          "f": _LINEAR_F, "g": _SQRT_G, "lip_z_bound": 1.0, "T": 0.5}
_TY_F = {"body": "0.2*t*y-0.5*sqrt(abs(z))", "lip_y": 0.2,
         "modulus": {"kind": "power", "c": 0.5, "alpha": 0.5, "growth_L": 0.5}}
_DIRECT = {"Phi": "x*x", "f": _TY_F, "lip_z_bound": 0.5, "T": 0.5}
_ROUGH_F = {"body": "-0.5*pow(abs(z),0.8)",
            "modulus": {"kind": "power", "c": 0.5, "alpha": 0.8, "growth_L": 0.5}}
_DISSIPATION = {"Phi": "x*x", "b": "0.2*x", "h": "0.1", "f": _ROUGH_F, "g": _SQRT_G,
                "lip_z_bound": 1.0, "T": 0.5}
_LINEAR_G = {"body": "-0.25*abs(z)",
             "modulus": {"kind": "linear", "c": 0.25, "growth_L": 0.25}}
_ONE_SIDE = {"Phi": "x*x", "f": _ROUGH_F, "g": _LINEAR_G, "lip_z_bound": 1.0, "T": 0.5}
_ROOT_F = {"body": "-sqrt(abs(z))",
           "modulus": {"kind": "power", "c": 1.0, "alpha": 0.5, "growth_L": 0.5}}
_ABS_F = {"body": "0.5*abs(z)", "modulus": {"kind": "linear", "c": 0.5, "growth_L": 0.5}}
_CAPPED_F = {"body": "min(4*abs(z),1)",
             "modulus": {"kind": "linear", "c": 4.0, "growth_L": 1.0}}
_CROSSING = {"Phi": "x*x", "f": _CAPPED_F, "T": 0.5}
_TIME_SIGMA = {"Phi": "x*x", "sigma": "1+0.5*t", "f": _LINEAR_F,
               "lip_z_bound": 0.5, "T": 0.5}
_QUARTER_ROOT_F = dict(_ROOT_F, body="-0.25*sqrt(abs(z))",
                       modulus=dict(_ROOT_F["modulus"], c=0.25))


def _time_golden():
    """test_11's case with time in it, as a config: u = exp(2(0.5-t))
    exp(-x^2/2) solves the problem with sigma(x), h = 0.2, b = 0,
    g = 0.25|z| and f = A(t,x) + 0.3y - 0.5|z|, where A is the rest of the
    equation at u (G written with max), in the same text as there."""
    u, s = "exp(2*(0.5-t))*exp(-0.5*x*x)", "(1+0.25*x*x/(1+x*x))"
    u_x, u_xx = f"(-x*{u})", f"((x*x-1)*{u})"
    a = f"({s}*{s}*{u_xx}+2*0.2*{u_x}+0.5*abs({s}*{u_x}))"
    G = f"0.5*(1.0*max({a},0)-0.5*max(-{a},0))"
    A = f"-(-2*{u})-{G}-(0)*{u_x}+0.5*abs({s}*{u_x})"
    f = {"body": f"{A}-0.3*{u}+0.3*y-0.5*abs(z)", "lip_y": 0.3,
         "modulus": {"kind": "linear", "c": 0.5, "growth_L": 0.5}}
    problem = {"Phi": "exp(-0.5*x*x)", "b": "0", "h": "0.2", "sigma": s, "f": f,
               "g": {"body": "0.25*abs(z)",
                     "modulus": {"kind": "linear", "c": 0.25, "growth_L": 0.25}}, "T": 0.5}
    return {"gparams": _GPARAMS, "problem": problem,
            "grid": {"x_min": -6.0, "x_max": 6.0, "nx": 121, "core_fraction": 0.5},
            "ladder": {"levels": [1.0, 2.0], "target_gap": 0.05}, "mc": _MC,
            "reference": u}


def _ties(phi):
    return {"gparams": _GPARAMS, "problem": {"Phi": phi, "T": 0.5},
            "problem2": {"Phi": f"{phi}+0.2", "T": 0.5},
            "grid": {"x_min": -8.0, "x_max": 8.0, "nx": 1601, "core_fraction": 0.5},
            "mc": {"n_paths": 2000, "dt": 1e-3, "seed": 5,
                   "policies": ["low", "high", "feedback"]}}


SMALL_CONFIGS = {
    "drift": _small(_DRIFT, dict(_DRIFT, Phi="x*x+0.2")),
    "time_sigma": _small(_TIME_SIGMA, dict(_TIME_SIGMA, Phi="x*x+0.2")),
    "horizons": _small(dict(_TIME_SIGMA, T=1.0),
                       dict(_TIME_SIGMA, Phi="x*x+0.2", T=0.25)),
    "direct": dict(_small(_DIRECT, dict(_DIRECT, Phi="x*x+0.2")),
                   grid={"x_min": -3.0, "x_max": 3.0, "nx": 41, "core_fraction": 0.5}),
    "dissipation": _small(_DISSIPATION, dict(_DISSIPATION, Phi="x*x+0.2")),
    "one_side": _small(_ONE_SIDE, dict(_ONE_SIDE, Phi="x*x+0.2")),
    "laggard": dict(_small({"Phi": "x*x", "f": _ROOT_F, "lip_z_bound": 1.0, "T": 0.5},
                           {"Phi": "x*x+0.2", "f": _ABS_F, "T": 0.5}),
                    ladder={"levels": [1.0, 2.0, 4.0], "target_gap": 0.02}),
    "crossing": dict(_small(_CROSSING, dict(_CROSSING, Phi="x*x+0.2",
                                            f=dict(_CAPPED_F, body="min(4*abs(z),1)+0.1"))),
                     ladder={"levels": [2.0, 4.0, 8.0], "target_gap": 0.02}),
    "resolve": dict(_small({"Phi": "x*x", "f": _ROOT_F, "lip_z_bound": 1.0, "T": 0.5},
                           {"Phi": "x*x", "f": _QUARTER_ROOT_F, "lip_z_bound": 1.0,
                            "T": 0.5}),
                    ladder={"levels": [1.0, 2.0, 4.0], "target_gap": 0.05}),
    "time_golden": _time_golden(),
    "ties": _ties("abs(x)-1"),
    "ties_cubic": _ties("x*x*x"),
    "false_modulus": {"gparams": _GPARAMS, "problem": {
        "Phi": "abs(x)", "f": {"body": "-8*abs(z)", "modulus": dict(_ABS_F["modulus"])}},
        "grid": {"x_min": -6.0, "x_max": 6.0, "nx": 41, "core_fraction": 0.5}},
}


def _workloads():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _configs():
    """(workload, config name, raw config) for every config the run covers."""
    for wname, make in _workloads().WORKLOADS.items():
        for cname, raw in make(1).configs.items():
            yield wname, cname, raw
    for cname, raw in SMALL_CONFIGS.items():
        yield "small", cname, raw


def _digest_lines(setup, run):
    """One line per array run() returns: name, shape and SHA-256 of its bytes."""
    try:
        arrays = run()
    except Exception as exc:  # a refused read is part of the snapshot too
        return [f"{setup} error {type(exc).__name__}: {exc}\n"]
    return [f"{setup} {name} {a.shape} "
            f"{hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()}\n"
            for name, a in arrays.items()]


def _path_arrays(ens, tri):
    return {"B": ens.B, "QV": ens.QV, "X": ens.X, "Y": tri.Y, "Z": tri.Z, "K": tri.K}


def _terminal_states(sol, problem, args):
    """terminal_states of low, high and feedback, drawn with simulate_paths'
    args but the policy."""
    gp = problem.gparams
    pols = [gsim.ConstantPolicy(gp.sigma_low_sq, gp),
            gsim.ConstantPolicy(gp.sigma_high_sq, gp), gsim.FeedbackPolicy(sol, problem)]
    return {"terminal_states": gsim.terminal_states(pols, *args[1:])}


def _bench_kcheck_runs():
    """(setup, run) for the kcheck stage of every benchmark workload (seed 1);
    the problem and simulate_paths args its run keeps to itself are caught
    on their way to gsim."""
    for wname, make in _workloads().WORKLOADS.items():
        for stage in make(1).stages:
            if stage.metric != "kcheck_ref":
                continue

            def run(stage=stage):
                seen = {}

                def policy(sol, problem):
                    seen["problem"] = problem
                    return gsim.FeedbackPolicy(sol, problem)

                def simulate(*args):
                    seen["args"] = args
                    return gsim.simulate_paths(*args)

                lib = SimpleNamespace(
                    pde=pde, gbsde=gbsde, envelope=envelope, GParams=gfunction.GParams,
                    gsim=SimpleNamespace(**{**vars(gsim), "FeedbackPolicy": policy,
                                            "simulate_paths": simulate}))
                sol, ens, tri = stage.run(lib, None)
                return {**_path_arrays(ens, tri),
                        **_terminal_states(sol, seen["problem"], seen["args"])}

            yield f"{wname}/kcheck", run


def _config_runs(out_dir):
    """(setup, run) for each policy of the drift, time_sigma and ties configs, read
    as CLI kcheck reads them off the level walk's solution, and for their
    terminal states."""
    for cname in ("drift", "time_sigma", "ties", "ties_cubic"):
        cfg = cli.load_config(os.path.join(out_dir, "small", f"{cname}.json"))
        sol = gbsde.solve_exact(cfg.problem, cfg.build_grid(), cfg.target_gap).solution
        args = (None, cfg.gparams, 0.0, cfg.problem.T, cfg.mc_dt, cfg.n_paths, cfg.seed)
        for name in cfg.policies:

            def run(cfg=cfg, sol=sol, name=name):
                pol = cli._make_policy(name, cfg.gparams, (sol, cfg.problem))
                ens = gsim.simulate_paths(pol, *args[1:])
                gsim.euler_forward(cfg.problem.coeffs, ens, cfg.x0)
                return _path_arrays(ens, gbsde.extract_triple(sol, ens, cfg.problem))

            yield f"small/{cname}/{name}", run
        yield f"small/{cname}", lambda sol=sol, cfg=cfg, args=args: _terminal_states(
            sol, cfg.problem, args)


def main(out_dir):
    codes = []
    for wname, cname, raw in _configs():
        base = os.path.join(out_dir, wname)
        os.makedirs(base, exist_ok=True)
        path = os.path.join(base, f"{cname}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh, indent=2, sort_keys=True)
        for exp in sorted(cli._EXPERIMENTS):
            dest = os.path.join(base, cname, exp)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(["run", path, exp, "--out", dest])
            line = f"{wname} {cname} {exp} {rc} {err.getvalue().strip()}".rstrip()
            print(line, flush=True)
            codes.append(line + "\n")
    with open(os.path.join(out_dir, "exit_codes.txt"), "w") as fh:
        fh.writelines(codes)
    digests = []
    for setup, run in (*_bench_kcheck_runs(), *_config_runs(out_dir)):
        lines = _digest_lines(setup, run)
        print(*lines, sep="", end="", flush=True)
        digests += lines
    with open(os.path.join(out_dir, "path_digests.txt"), "w") as fh:
        fh.writelines(digests)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
