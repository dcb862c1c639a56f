"""The benchmark's hooks into the program.

bench/tracing.py wraps module functions by name, and bench/run.py
captures gbsde.approximation_ladder and gbsde.solve_exact.  These tests
load bench/tracing.py (read only, no bytecode written), build the `lib`
namespace the way bench/run.py's setup does, and fail when a wrapped
name has been renamed or deleted, when a wrapper misses calls made from
inside the program (a solve_exact, and a feedback path loop), or when
uninstall leaves a wrapper behind.  They also run the one stage of
bench/workloads.py that calls the path API directly rather than through
the CLI.
"""

import importlib.util
import os
import sys
from types import SimpleNamespace

import pytest

from gbsdelab import cli, envelope, gbsde, gsim, pde
from gbsdelab.envelope import Modulus, ScalarGenerator
from gbsdelab.expr import parse
from gbsdelab.gfunction import GParams

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GP = GParams(0.5, 1.0)


def _load_bench(name):
    """bench/<name>.py as a module, read only: no bytecode is written.  It
    sits in sys.modules while it runs, where dataclasses look it up."""
    path = os.path.join(ROOT, "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load_bench("tracing")


@pytest.fixture
def lib():
    return SimpleNamespace(
        cli=cli, cfgs={}, pde=pde, gsim=gsim, gbsde=gbsde, envelope=envelope,
        GParams=GParams,
        captured={"approximation_ladder": [], "solve_exact": []},
    )


def test_every_wrapped_name_exists(tracing, lib):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _, owner, attr in tracing._targets(lib)
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_captured_names_exist(lib):
    for attr in lib.captured:
        assert callable(getattr(gbsde, attr, None)), attr


def test_install_sees_inner_calls_and_uninstall_restores(tracing, lib):
    targets = tracing._targets(lib)
    originals = [getattr(owner, attr) for _, owner, attr in targets]
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        for (_, owner, attr), fn in zip(targets, originals):
            assert getattr(owner, attr).__wrapped__ is fn, attr
        # a lattice-envelope problem: solve_exact -> pde.solve -> steps ->
        # envelope lattice, all called from inside the program
        f = ScalarGenerator.from_text(
            "-sqrt(abs(z))", 0.0, Modulus("power", c=1.0, alpha=0.5, growth_L=0.5))
        coeffs = pde.CoefficientSet.from_text("0", "0", "1", "x*x")
        problem = pde.PdeProblem(coeffs, f, f, GP, 0.25, 1.0)
        grid = pde.build_grid(problem, -2.0, 2.0, 21)
        ex = gbsde.solve_exact(problem, grid, 10.0)
        pde.eval_u(ex.solution, 0.0, 0.0)
        m = tracer.round_metrics(0)
    finally:
        tracer.uninstall()
    for (_, owner, attr), fn in zip(targets, originals):
        assert getattr(owner, attr) is fn, attr
    assert m["gbsde.levels_tried"] == 1
    assert m["pde.solves"] == 2
    assert m["pde.steps"] == 2 * ex.solution.grid.nt
    assert m["pde.node_steps"] == m["pde.steps"] * grid.nx
    assert m["envelope.lattice_builds"] >= 2
    assert m["pde.interp_calls"] >= 1
    assert m["gbsde.repeat_solves"] == 0


def test_traced_lipschitz_level_solves_once(tracing, lib):
    # f Lipschitz in z: both envelopes pass it through, so each level the
    # walk tries makes one pde.solve of nt steps, where a lattice level
    # (above) makes two
    f = ScalarGenerator.from_text(
        "-0.5*abs(z)", 0.0, Modulus("linear", c=0.5, growth_L=0.5))
    coeffs = pde.CoefficientSet.from_text("0", "0", "1", "x*x")
    problem = pde.PdeProblem(coeffs, f, envelope.ZERO_GENERATOR, GP, 0.25, 0.5)
    grid = pde.build_grid(problem, -2.0, 2.0, 21)
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        ex = gbsde.solve_exact(problem, grid, 10.0)
        m = tracer.round_metrics(0)
    finally:
        tracer.uninstall()
    assert m["gbsde.levels_tried"] == 1
    assert m["pde.solves"] == 1
    assert m["pde.steps"] == ex.solution.grid.nt
    assert m["gbsde.repeat_solves"] == 0


def test_traced_ladder_steps_the_stack_once_per_time_step(tracing, lib):
    # approximation_ladder steps its 2K envelope problems together through
    # pde.solve_stack, never through the wrapped pde.solve
    f = ScalarGenerator.from_text(
        "-sqrt(abs(z))", 0.0, Modulus("power", c=1.0, alpha=0.5, growth_L=0.5))
    coeffs = pde.CoefficientSet.from_text("0", "0", "1", "x*x")
    problem = pde.PdeProblem(coeffs, f, f, GP, 0.25, 1.0)
    grid = pde.build_grid(problem, -2.0, 2.0, 21)
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        lad = gbsde.approximation_ladder(problem, [1.0, 2.0], grid)
        m = tracer.round_metrics(0)
    finally:
        tracer.uninstall()
    assert m["pde.steps"] == lad.lower_solutions[0].grid.nt
    assert m["envelope.lattice_builds"] >= 4


def test_traced_direct_solve_records_the_search(tracing, lib):
    # a generator in x and z takes the direct search, which the tracer sees
    # only through the module names envelope.lower_envelope/upper_envelope
    f = ScalarGenerator.from_text(
        "-(1+0.5*abs(x)/(1+abs(x)))*sqrt(abs(z))", 0.0,
        Modulus("power", c=1.5, alpha=0.5, growth_L=1.5))
    coeffs = pde.CoefficientSet.from_text("0", "0", "1", "x*x")
    problem = pde.PdeProblem(coeffs, f, envelope.ZERO_GENERATOR, GP, 0.25, 1.5)
    grid = pde.build_grid(problem, -2.0, 2.0, 11)
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        gbsde.solve_exact(problem, grid, 10.0)
        m = tracer.round_metrics(0)
    finally:
        tracer.uninstall()
    assert envelope.EnvelopeGenerator(f, 3.0, "lower").mode == "direct"
    assert m["envelope.direct_points"] > 0
    assert m["envelope.direct_s"] > 0.0


def test_path_loop_hooks(tracing, lib):
    # a feedback run: simulate_paths -> euler_forward -> extract_triple
    targets = tracing._targets(lib)
    originals = [getattr(owner, attr) for _, owner, attr in targets]
    sol, problem = gsim.heat_solution(parse("x*x*x"), GP, 0.25, -4.0, 4.0, 41)
    n_paths, n_steps = 30, 5
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        ens = gsim.simulate_paths(gsim.FeedbackPolicy(sol, problem), GP,
                                  0.0, 0.25, 0.05, n_paths, 3)
        gsim.euler_forward(problem.coeffs, ens, 0.5)
        gbsde.extract_triple(sol, ens, problem)
        m = tracer.round_metrics(0)
    finally:
        tracer.uninstall()
    for (_, owner, attr), fn in zip(targets, originals):
        assert getattr(owner, attr) is fn, attr
    assert m["gsim.feedback_calls"] == n_steps
    assert m["gsim.path_steps"] == n_paths * n_steps
    assert m["gsim.euler_s"] > 0.0
    assert m["gbsde.triple_s"] > 0.0


def test_stacked_terminal_states_hooks(tracing, lib):
    # the benchmark's mc stage: terminal_states steps low, high and feedback
    # together, and the wrapped variance of each policy runs once per step
    sol, problem = gsim.heat_solution(parse("x*x*x"), GP, 0.25, -4.0, 4.0, 41)
    policies = [gsim.ConstantPolicy(GP.sigma_low_sq, GP),
                gsim.ConstantPolicy(GP.sigma_high_sq, GP), gsim.FeedbackPolicy(sol, problem)]
    n_paths, n_steps = 30, 5
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        gsim.terminal_states(policies, GP, 0.0, 0.25, 0.05, n_paths, 3)
        m = tracer.round_metrics(0)
    finally:
        tracer.uninstall()
    assert m["gsim.feedback_calls"] == n_steps
    assert m["gsim.constant_calls"] == 2 * n_steps


def test_every_workload_config_loads():
    # the typed config readers take every config the benchmark writes
    workloads = _load_bench("workloads")
    for make in workloads.WORKLOADS.values():
        for smoke in (False, True):
            for raw in make(1, smoke=smoke).configs.values():
                cfg = cli.RunConfig(raw)
                assert all(type(v) is int for v in (cfg.grid.nx, cfg.n_paths, cfg.seed))


def test_kcheck_stage_passes_on_the_path_api(lib, tmp_path):
    # the kcheck stage reads ens.X[:, -1] and tri.K[:, -1] off the path API
    # itself; at x0 = 0 the feedback control is right, so no check fails
    workloads = _load_bench("workloads")
    stage = workloads._kcheck_stage("kcheck_ref", "x*x", lambda x: x * x, 0.0, 41, 50, 0.05, 3)
    output = stage.run(lib, str(tmp_path))
    assert stage.check(lib, str(tmp_path), output) == []
