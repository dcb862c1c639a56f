"""Run every CLI experiment on the benchmark's seed-1 configs.

    python3 tests/cli_snapshot.py OUT_DIR

Writes each config of bench/workloads.py (seed 1, full size) to
OUT_DIR/<workload>/<config>.json, runs every experiment of the CLI on it
into OUT_DIR/<workload>/<config>/<experiment>/, and lists the exit
codes in OUT_DIR/exit_codes.txt.  gbsdelab is imported from the src/
next to this file and bench/workloads.py is read without writing
bytecode, so the snapshots of two checkouts compare with one
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


def _workloads():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def main(out_dir):
    codes = []
    for wname, make in _workloads().WORKLOADS.items():
        for cname, raw in make(1).configs.items():
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
