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
skip is on somewhere.  gbsdelab is imported
from the src/ next to this file and bench/workloads.py is read without
writing bytecode, so the snapshots of two checkouts compare with one
`diff -r`.  Not collected by pytest (the name does not start with test_).
"""

import contextlib
import importlib.util
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.dont_write_bytecode = True

from gbsdelab import cli  # noqa: E402

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
_TIME_SIGMA = {"Phi": "x*x", "sigma": "1+0.5*t", "f": _LINEAR_F,
               "lip_z_bound": 0.5, "T": 0.5}

SMALL_CONFIGS = {
    "drift": _small(_DRIFT, dict(_DRIFT, Phi="x*x+0.2")),
    "time_sigma": _small(_TIME_SIGMA, dict(_TIME_SIGMA, Phi="x*x+0.2")),
    "horizons": _small(dict(_TIME_SIGMA, T=1.0),
                       dict(_TIME_SIGMA, Phi="x*x+0.2", T=0.25)),
    "direct": dict(_small(_DIRECT, dict(_DIRECT, Phi="x*x+0.2")),
                   grid={"x_min": -3.0, "x_max": 3.0, "nx": 41, "core_fraction": 0.5}),
    "dissipation": _small(_DISSIPATION, dict(_DISSIPATION, Phi="x*x+0.2")),
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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
