"""Benchmark of g-bsde-lab: certified solves on both envelope paths and
worst-case Monte Carlo.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the program is imported from its src/.
The run generates the workload's configs from the seed, sets up (imports
gbsdelab and loads the configs) several times, then runs whole rounds of
the workload's five stages while at least half of the next round is
expected to fit within S seconds (at least one round), checking every
output.  It prints a report and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from
a traced run.  --smoke shrinks every size for a quick self-test.
"""

from __future__ import annotations

import os

# One compute thread: set before numpy is first imported (GBSDE_THREADS
# in the CLI is applied too late to take effect).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from kernel import HostSampler, reference_kernel  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import STAGE_METRICS, WORKLOADS  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUPS = 15
# setup_s is the set-up time scaled to a host on which the reference
# kernel takes this long (its typical time on the host the bounds were
# set on), so that it measures the program rather than the host
NOMINAL_KERNEL_S = 1.0e-3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
) + tuple((m, "ref") for m in STAGE_METRICS) + (("peak_rss_mb", "MB"),)


def _fix_malloc():
    """Fix glibc's allocator thresholds for the rest of the run.

    By default glibc moves its mmap and trim thresholds as the process
    frees memory, so whether an array of a few hundred KB costs page
    faults depends on everything that ran before it in the process; that
    made the same stage take 2.3 s in one round and 5 s in another.  With
    both thresholds set (which also stops the adjustment) every round
    sees the same allocator: arrays up to 32 MB come from the heap and
    freed memory is kept for reuse.  Untraced runs, whose times are the
    gated metrics, do this; traced runs keep glibc's defaults, as a user
    of the program has them, so their page-fault counts show the
    allocation churn the fixed thresholds hide.  Returns False where
    there is no glibc mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 * 1024 * 1024)
                and mallopt(m_trim_threshold, 1 << 30))


def _purge_program():
    for name in [m for m in sys.modules if m == "gbsdelab" or m.startswith("gbsdelab.")]:
        del sys.modules[name]


def setup(config_paths):
    """Import gbsdelab afresh and load every config; returns
    (seconds, load_config seconds, lib namespace)."""
    _purge_program()
    t0 = time.perf_counter()
    cli = importlib.import_module("gbsdelab.cli")
    t1 = time.perf_counter()
    cfgs = {name: cli.load_config(path) for name, path in config_paths.items()}
    t2 = time.perf_counter()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"gbsdelab imported from {cli.__file__}, not from {SRC}")
    lib = SimpleNamespace(
        cli=cli, cfgs=cfgs,
        pde=sys.modules["gbsdelab.pde"], gsim=sys.modules["gbsdelab.gsim"],
        gbsde=sys.modules["gbsdelab.gbsde"], envelope=sys.modules["gbsdelab.envelope"],
        GParams=sys.modules["gbsdelab.gfunction"].GParams,
        captured={"approximation_ladder": [], "solve_exact": []},
    )
    return t2 - t0, t2 - t1, lib


def _capture(lib):
    """Keep the results of the ladder and level-walk calls the CLI makes,
    so the checks can read the solutions the CLI does not write out."""
    for attr, store in lib.captured.items():
        fn = getattr(lib.gbsde, attr)

        def wrapper(*args, _fn=fn, _store=store, **kwargs):
            out = _fn(*args, **kwargs)
            _store.append(out)
            return out

        setattr(lib.gbsde, attr, wrapper)


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_round(workload, lib, out_dir, tracer):
    """Run every stage `repeat` times.  Returns per-stage lists of
    (wall, kernel) pairs, per-stage lists of minor page faults, the failed
    executions and, when traced, the per-layer metrics of the round."""
    if tracer is not None:
        tracer.new_round()
    timings, faults, failures, written = {}, {}, [], 0
    for stage in workload.stages:
        stage_dir = os.path.join(out_dir, stage.metric)
        for _ in range(stage.repeat):
            shutil.rmtree(stage_dir, ignore_errors=True)
            for store in lib.captured.values():
                store.clear()
            gc.collect()
            if tracer is not None:
                tracer.new_experiment()
            output, error = None, None
            flt0 = _minor_faults()
            with HostSampler(enabled=tracer is None) as host:
                t0 = time.perf_counter()
                try:
                    output = stage.run(lib, stage_dir)
                except Exception:  # a stage that raises is a failed operation
                    error = traceback.format_exc()
                wall = time.perf_counter() - t0 - host.busy
            faults.setdefault(stage.metric, []).append(_minor_faults() - flt0)
            timings.setdefault(stage.metric, []).append((wall, host.kernel))
            if error is None:
                try:
                    fails = stage.check(lib, stage_dir, output)
                except Exception:
                    fails = ["check raised:\n" + traceback.format_exc()]
            else:
                fails = ["stage raised:\n" + error]
            if fails:
                failures.append((stage, fails))
            if os.path.isdir(stage_dir):
                written += _dir_bytes(stage_dir)
    layers = tracer.round_metrics(written) if tracer is not None else None
    return timings, faults, failures, layers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "gbsdelab")):
        print(f"error: no program source at {SRC}/gbsdelab", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    malloc_fixed = _fix_malloc() if not args.trace else False

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    out_dir = os.path.join(OUT, workload.name)
    cfg_dir = os.path.join(out_dir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    config_paths = {}
    for name, raw in workload.configs.items():
        config_paths[name] = os.path.join(cfg_dir, f"{name}.json")
        with open(config_paths[name], "w") as fh:
            json.dump(raw, fh, indent=2, sort_keys=True)

    setups = []
    try:
        for _ in range(SETUPS):
            k_before = statistics.median(reference_kernel() for _ in range(3))
            setup_s, load_s, lib = setup(config_paths)
            k_after = statistics.median(reference_kernel() for _ in range(3))
            setups.append((setup_s, load_s, 0.5 * (k_before + k_after)))
    except Exception:
        traceback.print_exc()
        return 2
    _capture(lib)
    tracer = Tracer(lib) if args.trace else None
    if tracer is not None:
        tracer.install()

    # whole rounds only: start another while at least half of it is
    # expected to fit, so the run ends as near S as whole rounds allow and
    # a round a little slower than S/k still gives k rounds
    rounds, t_start, t_round = [], time.perf_counter(), 0.0
    while not rounds or time.perf_counter() - t_start + t_round / 2 <= args.seconds:
        t0 = time.perf_counter()
        rounds.append(run_round(workload, lib, out_dir, tracer))
        t_round = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, "trace_spans.json"))
        tracer.uninstall()

    all_fails = [(st, f) for _, _, fails, _ in rounds for st, f in fails]
    known = sum(1 for st, f in all_fails if st.is_known(f))
    unknown = [(st, f) for st, f in all_fails if not st.is_known(f)]
    failed = known + len(unknown)
    attempted = len(rounds) * sum(stage.repeat for stage in workload.stages)

    med = statistics.median
    round_walls = [sum(w for runs in t.values() for w, _ in runs) for t, _, _, _ in rounds]
    kernel_s = med(k for t, _, _, _ in rounds for runs in t.values() for _, k in runs)
    print(f"# workload {workload.name}  seed {args.seed}  rounds {len(rounds)}"
          f"  smoke {args.smoke}  trace {args.trace}")
    print(f"# git {_git_sha()}  python {platform.python_version()}"
          f"  numpy {np.__version__}  nproc {os.cpu_count()}  malloc fixed {malloc_fixed}")
    print(f"# reference kernel median {kernel_s:.6f} s (not a metric)")
    print(f"# round wall median {med(round_walls):.4f} s (raw wall_s, not a metric)")
    print(f"# set-up median {med(s for s, _, _ in setups):.4f} s (raw, not a metric)")
    # minor page faults per execution: with malloc fixed, near 0 for
    # stages whose arrays fit the kept heap; traced, the user's figure
    for stage in workload.stages:
        walls = [w for t, _, _, _ in rounds for w, _ in t[stage.metric]]
        refs = [w / k for t, _, _, _ in rounds for w, k in t[stage.metric]]
        flts = [n for _, f, _, _ in rounds for n in f[stage.metric]]
        print(f"# stage {stage.metric:<12} {med(walls):9.4f} s  {med(refs):10.1f} ref"
              f"  {med(flts):9.0f} minflt  x{len(walls)}  {stage.label}")
    shown = set()
    for stage, fails in all_fails:
        if stage.label in shown:
            continue
        shown.add(stage.label)
        tag = f"known fault: {stage.known_fault}" if stage.is_known(fails) else "FAILED"
        print(f"# {tag}: {stage.label}")
        for line in fails:
            print("#   " + line.replace("\n", "\n#   "))

    if tracer is not None:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = {"cli.load_config_s": med(load for _, load, _ in setups)}
        values.update((name, med(layers[name] for _, _, _, layers in rounds))
                      for name in rounds[0][3])
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        for layer, secs in sorted(tracer.self_time.items(), key=lambda kv: -kv[1]):
            print(f"# self time {layer:<24} {secs:9.4f} s (last round)")
    else:
        values = {
            "setup_s": med(s / k for s, _, k in setups) * NOMINAL_KERNEL_S,
            "wall_ref": med(sum(w / k for runs in t.values() for w, k in runs)
                            for t, _, _, _ in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for m in STAGE_METRICS:
            values[m] = med(w / k for t, _, _, _ in rounds for w, k in t[m])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"# metric {name:<30} {m['value']:.6g} {m['unit']}")
    with open(os.path.join(out_dir, "run_detail.json"), "w") as fh:
        json.dump({"seed": args.seed, "trace": args.trace, "setup_s": setups,
                   "rounds": [t for t, _, _, _ in rounds],
                   "minor_faults": [f for _, f, _, _ in rounds]}, fh)
    print(f"# attempted {attempted}  failed {failed}  (known fault {known})")
    print(json.dumps({"correct": not unknown, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
