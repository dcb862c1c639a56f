"""Self-test of the benchmark in smoke mode (tiny sizes, the same checks).

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(root, workload, seed=7, trace=0):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = _result(_bench(ROOT, workload))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    # --seconds 0 runs exactly one round
    assert res["attempted"] == sum(st.repeat for st in WORKLOADS[workload](7).stages)
    # the only operation allowed to fail is the feedback kcheck at x0 = 2
    assert res["failed"] in ((0, 1) if workload == "worst-case-mc" else (0,))
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(res["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in res["metrics"].items():
        assert m["unit"] == units[name]
        assert m["value"] > 0.0


def test_only_the_known_messages_count_as_the_known_fault():
    stage = next(st for st in WORKLOADS["worst-case-mc"](7, smoke=True).stages
                 if st.known_fault)
    assert stage.is_known(["kcheck x0=2.0: mean K_T -0.97 (se 0.01), expected 0",
                           "kcheck x0=2.0: mean Phi(X_T) 9.1 (se 0.2) vs u(0,x0) 11"])
    assert not stage.is_known([])
    assert not stage.is_known(["stage raised:\nTraceback ..."])
    assert not stage.is_known(["check raised:\nTraceback ..."])
    assert not stage.is_known(["kcheck x0=2.0: mean K_T -0.97 (se 0.01), expected 0",
                               "check raised:\nTraceback ..."])
    others = [st for w in WORKLOADS.values() for st in w(7, smoke=True).stages
              if st is not stage and not st.known_fault]
    assert others and not any(st.is_known(["kcheck x0=0.0: mean K_T 1 (se 0.1)"])
                              for st in others)


def test_traced_counts_repeat_exactly():
    runs = [_result(_bench(ROOT, "xyz-generator", seed=s, trace=1)) for s in (3, 4)]
    assert sorted(runs[0]["metrics"]) == sorted(name for name, _, _ in PER_LAYER)
    counts = [name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")]
    for name in counts:
        if name != "cli.bytes_written":  # config constants print with seed digits
            assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name
    assert runs[0]["metrics"]["envelope.direct_points"]["value"] > 0
    assert runs[0]["metrics"]["envelope.lattice_builds"]["value"] == 0


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(str(tmp_path), "worst-case-mc")
    assert proc.returncode != 0
    assert not proc.stdout.strip().splitlines()[-1:] or \
        not proc.stdout.strip().splitlines()[-1].startswith("{")
