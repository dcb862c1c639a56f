"""Per-layer spans and counts, recorded from outside the program.

Tracer.install wraps the public functions of each gbsdelab module (and
the few private writers of the CLI) at the names their callers look up,
so a call from inside the program is seen as well as one from the
benchmark.  Every call becomes a span (layer, start, end, parent) kept
in memory; Tracer.round_metrics turns the spans of one round into the
per-layer metrics, and Tracer.dump writes the spans of the last round.
A layer's self time is its span minus the spans of its children.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter, defaultdict

PER_LAYER = (
    ("expr.evaluate_calls", "count", "lower"),
    ("expr.evaluate_s", "s", "lower"),
    ("gfunction.g_value_calls", "count", "lower"),
    ("gfunction.g_value_s", "s", "lower"),
    ("gfunction.worst_case_q_calls", "count", "lower"),
    ("gfunction.worst_case_q_s", "s", "lower"),
    ("envelope.eval_calls", "count", "lower"),
    ("envelope.eval_s", "s", "lower"),
    ("envelope.lattice_builds", "count", "lower"),
    ("envelope.lattice_build_s", "s", "lower"),
    ("envelope.direct_points", "count", "lower"),
    ("envelope.direct_s", "s", "lower"),
    ("pde.solves", "count", "lower"),
    ("pde.solve_s", "s", "lower"),
    ("pde.steps", "count", "lower"),
    ("pde.node_steps", "count", "lower"),
    ("pde.step_s", "s", "lower"),
    ("pde.node_step_ns", "ns", "lower"),
    ("pde.stable_dt_calls", "count", "lower"),
    ("pde.stable_dt_s", "s", "lower"),
    ("pde.interp_calls", "count", "lower"),
    ("pde.interp_s", "s", "lower"),
    ("pde.csv_bytes", "bytes", "lower"),
    ("pde.csv_s", "s", "lower"),
    ("gsim.path_steps", "count", "lower"),
    ("gsim.simulate_s", "s", "lower"),
    ("gsim.path_steps_per_s", "1/s", "higher"),
    ("gsim.feedback_calls", "count", "lower"),
    ("gsim.feedback_s", "s", "lower"),
    ("gsim.constant_calls", "count", "lower"),
    ("gsim.constant_s", "s", "lower"),
    ("gsim.euler_s", "s", "lower"),
    ("gsim.mc_estimate_s", "s", "lower"),
    ("gsim.pde_expectation_s", "s", "lower"),
    ("gbsde.levels_tried", "count", "lower"),
    ("gbsde.repeat_solves", "count", "lower"),
    ("gbsde.unique_solve_ratio", "ratio", "higher"),
    ("gbsde.triple_s", "s", "lower"),
    ("cli.load_config_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
)


def _targets(lib):
    """(layer, owner, attribute) for every wrapped call site."""
    pde, gsim, env, gbsde, cli = lib.pde, lib.gsim, lib.envelope, lib.gbsde, lib.cli
    return [
        # expression evaluation, at the modules that call it
        ("expr.evaluate", pde, "evaluate"),
        ("expr.evaluate", env, "evaluate"),
        ("expr.evaluate", gsim, "evaluate"),
        ("gfunction.g_value", pde, "g_value"),
        ("gfunction.worst_case_q", gsim, "worst_case_q"),
        ("envelope.eval", env.EnvelopeGenerator, "eval_grid"),
        ("envelope.direct", env, "lower_envelope"),
        ("envelope.direct", env, "upper_envelope"),
        ("pde.solve", pde, "solve"),
        ("pde.step", pde, "step_backward"),
        ("pde.stable_dt", pde, "max_stable_dt"),
        ("pde.interp", pde, "eval_u"),
        ("pde.interp", pde, "eval_u_batch"),
        ("pde.interp", pde, "grad_x_batch"),
        ("pde.interp", pde, "second_diff_batch"),
        ("pde.csv", pde, "solution_to_csv"),
        ("gsim.simulate", gsim, "simulate_paths"),
        ("gsim.feedback", gsim.FeedbackPolicy, "variance"),
        ("gsim.constant", gsim.ConstantPolicy, "variance"),
        ("gsim.euler", gsim, "euler_forward"),
        ("gsim.mc_estimate", gsim, "upper_expectation_mc"),
        ("gsim.pde_expectation", gsim, "upper_expectation_pde"),
        ("gbsde.solve_exact", gbsde, "solve_exact"),
        ("gbsde.triple", gbsde, "extract_triple"),
        ("cli.write", cli, "_write_csv"),
        ("cli.write", cli, "_write_summary"),
    ]


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans = []  # [layer, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._solved = set()  # (problem fingerprint, grid) in this experiment
        self._originals = []
        self.self_time = {}  # layer -> self seconds, of the last reduced round

    # -- recording -----------------------------------------------------------

    def _wrap(self, layer, owner, attr):
        fn = getattr(owner, attr)
        on_exit = getattr(self, "_on_" + layer.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            before = self._lattice_of(args) if layer == "envelope.eval" else None
            idx = len(spans)
            spans.append([layer, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if layer == "envelope.eval" and self._lattice_of(args) is not before:
                spans[idx][0] = "envelope.lattice_build"
            if on_exit is not None:
                on_exit(args, out)
            return out

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, fn))

    @staticmethod
    def _lattice_of(args):
        gen = args[0]
        return getattr(gen, "_lattice", None) if gen.mode == "lattice" else None

    def _on_pde_step(self, args, out):
        self.counts["pde.node_steps"] += args[3].nx

    def _on_pde_solve(self, args, out):
        key = (args[0].fingerprint(), args[1])
        if key in self._solved:
            self.counts["gbsde.repeat_solves"] += 1
        self._solved.add(key)

    def _on_pde_csv(self, args, out):
        self.counts["pde.csv_bytes"] += os.path.getsize(args[1])

    def _on_gsim_simulate(self, args, out):
        self.counts["gsim.path_steps"] += out.n_paths * out.n_steps

    def _on_gbsde_solve_exact(self, args, out):
        L = self.lib.gbsde.problem_growth_L(args[0])
        base = 2.0 * L if L > 0.0 else 1.0
        self.counts["gbsde.levels_tried"] += round(math.log2(out.level / base)) + 1

    def install(self):
        for layer, owner, attr in _targets(self.lib):
            self._wrap(layer, owner, attr)

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def new_experiment(self):
        """Repeat solves are counted within one experiment (one stage)."""
        self._solved.clear()

    def new_round(self):
        self.spans.clear()
        self.counts.clear()
        self._solved.clear()

    # -- reduction -----------------------------------------------------------

    def round_metrics(self, bytes_written):
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        child = defaultdict(float)
        for layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (layer, t0, t1, parent) in enumerate(self.spans):
            calls[layer] += 1
            total[layer] += t1 - t0
            self_s[layer] += t1 - t0 - child[i]
        c = self.counts
        lattice = "envelope.lattice_build"
        # lattice builds happen inside a step; they have their own metrics
        step_s = total["pde.step"] - total[lattice]
        m = {
            "expr.evaluate_calls": calls["expr.evaluate"],
            "expr.evaluate_s": total["expr.evaluate"],
            "gfunction.g_value_calls": calls["gfunction.g_value"],
            "gfunction.g_value_s": total["gfunction.g_value"],
            "gfunction.worst_case_q_calls": calls["gfunction.worst_case_q"],
            "gfunction.worst_case_q_s": total["gfunction.worst_case_q"],
            "envelope.eval_calls": calls["envelope.eval"] + calls[lattice],
            "envelope.eval_s": total["envelope.eval"] + total[lattice],
            "envelope.lattice_builds": calls[lattice],
            "envelope.lattice_build_s": total[lattice],
            "envelope.direct_points": calls["envelope.direct"],
            "envelope.direct_s": total["envelope.direct"],
            "pde.solves": calls["pde.solve"],
            "pde.solve_s": total["pde.solve"],
            "pde.steps": calls["pde.step"],
            "pde.node_steps": c["pde.node_steps"],
            "pde.step_s": step_s,
            "pde.node_step_ns": 1e9 * step_s / max(c["pde.node_steps"], 1),
            "pde.stable_dt_calls": calls["pde.stable_dt"],
            "pde.stable_dt_s": total["pde.stable_dt"],
            "pde.interp_calls": calls["pde.interp"],
            "pde.interp_s": total["pde.interp"],
            "pde.csv_bytes": c["pde.csv_bytes"],
            "pde.csv_s": total["pde.csv"],
            "gsim.path_steps": c["gsim.path_steps"],
            "gsim.simulate_s": total["gsim.simulate"],
            "gsim.path_steps_per_s": c["gsim.path_steps"] / max(total["gsim.simulate"], 1e-12),
            "gsim.feedback_calls": calls["gsim.feedback"],
            "gsim.feedback_s": total["gsim.feedback"],
            "gsim.constant_calls": calls["gsim.constant"],
            "gsim.constant_s": total["gsim.constant"],
            "gsim.euler_s": total["gsim.euler"],
            "gsim.mc_estimate_s": total["gsim.mc_estimate"],
            "gsim.pde_expectation_s": total["gsim.pde_expectation"],
            "gbsde.levels_tried": c["gbsde.levels_tried"],
            "gbsde.repeat_solves": c["gbsde.repeat_solves"],
            "gbsde.unique_solve_ratio": (
                (calls["pde.solve"] - c["gbsde.repeat_solves"]) / max(calls["pde.solve"], 1)),
            "gbsde.triple_s": total["gbsde.triple"],
            "cli.write_s": total["cli.write"] + total["pde.csv"],
            "cli.bytes_written": bytes_written,
        }
        self.self_time = dict(self_s)
        return m

    def dump(self, path):
        """Write the spans of the current round (layer, start, end, parent)."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start_s", "end_s", "parent"],
                       "spans": [[s[0], s[1] - t_base, s[2] - t_base, s[3]]
                                 for s in self.spans]}, fh)
