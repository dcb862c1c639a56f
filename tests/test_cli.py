import json
import os

import numpy as np
import pytest

from gbsdelab import cli, gsim
from gbsdelab.cli import ConfigError, RunConfig, load_config, main
from gbsdelab.envelope import ZERO_GENERATOR
from gbsdelab.expr import evaluate, parse


def base_config(**overrides):
    cfg = {
        "gparams": {"sigma_low_sq": 0.5, "sigma_high_sq": 1.0},
        "problem": {
            "Phi": "x*x",
            "f": {
                "body": "-0.5*abs(z)",
                "modulus": {"kind": "linear", "c": 0.5, "growth_L": 0.5},
            },
            "lip_z_bound": 0.5,
        },
        "grid": {"x_min": -4.0, "x_max": 4.0, "nx": 101, "core_fraction": 0.5},
        "ladder": {"levels": [1.0, 2.0], "target_gap": 0.5},
        "mc": {"n_paths": 200, "dt": 0.01, "seed": 7, "policies": ["low", "high"]},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadConfig:
    def test_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg.gparams.sigma_high_sq == 1.0
        assert cfg.nx == 101
        assert cfg.levels == [1.0, 2.0]
        assert cfg.seed == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_missing_gparams_pointer(self):
        with pytest.raises(ConfigError, match="/gparams"):
            RunConfig({"problem": {"Phi": "x"}})

    def test_missing_sigma_high_pointer(self):
        with pytest.raises(ConfigError, match="/gparams/sigma_high_sq"):
            RunConfig({"gparams": {"sigma_low_sq": 0.5}, "problem": {"Phi": "x"}})

    def test_bad_interval(self):
        raw = base_config(gparams={"sigma_low_sq": 2.0, "sigma_high_sq": 1.0})
        with pytest.raises(ConfigError, match="/gparams"):
            RunConfig(raw)

    def test_missing_phi_pointer(self):
        raw = base_config(problem={"b": "0"})
        with pytest.raises(ConfigError, match="/problem/Phi"):
            RunConfig(raw)

    def test_bad_expression_pointer(self):
        raw = base_config()
        raw["problem"]["Phi"] = "x +"
        with pytest.raises(ConfigError, match="/problem/Phi"):
            RunConfig(raw)

    def test_bad_modulus_kind(self):
        raw = base_config()
        raw["problem"]["f"]["modulus"]["kind"] = "exotic"
        with pytest.raises(ConfigError, match="/problem/f/modulus"):
            RunConfig(raw)

    def test_small_nx_rejected(self):
        raw = base_config(grid={"nx": 2})
        with pytest.raises(ConfigError, match="/grid/nx"):
            RunConfig(raw)

    def test_inverted_domain_rejected(self):
        raw = base_config(grid={"x_min": 4.0, "x_max": -4.0})
        with pytest.raises(ConfigError, match="/grid/x_min"):
            RunConfig(raw)

    @pytest.mark.parametrize("section, key, value", [
        ("ladder", "levels", []),  # would pass ladder and envelope-report vacuously
        ("grid", "core_fraction", 0.0),
        ("grid", "core_fraction", 1.5),
        ("grid", "core_fraction", float("nan")),
        ("mc", "dt", 0.0),
        ("mc", "dt", -0.01),
        ("mc", "dt", float("inf")),
        ("mc", "dt", float("nan")),
        ("mc", "n_paths", 0),
    ])
    def test_out_of_range_value_rejected_with_pointer(self, section, key, value):
        raw = base_config()
        raw[section][key] = value
        with pytest.raises(ConfigError, match=f"/{section}/{key}"):
            RunConfig(raw)

    def test_reference_vars_restricted(self):
        raw = base_config(reference="x*x + y")
        with pytest.raises(ConfigError, match="/reference"):
            RunConfig(raw)

    def test_default_levels_scale_with_growth(self):
        raw = base_config()
        del raw["ladder"]
        cfg = RunConfig(raw)
        # L = 0.5 here, so the default ladder starts at 2L = 1
        assert cfg.levels == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_default_levels_without_a_generator(self):
        # L = 0 (no f or g): the ladder starts at 1, where solve_exact does
        raw = base_config(problem={"Phi": "x*x"})
        del raw["ladder"]
        assert RunConfig(raw).levels == [1.0, 2.0, 4.0, 8.0, 16.0]

    @pytest.mark.parametrize("L", [0.3, 1.0 / 3.0, 7.1, 1e-300])
    def test_default_levels_are_2L_to_32L(self, L):
        # f = -L|z| meets a growth_L of L, which the load checks
        raw = base_config()
        raw["problem"]["f"] = {"body": f"-{L!r}*abs(z)",
                               "modulus": {"kind": "linear", "c": L, "growth_L": L}}
        del raw["ladder"]
        assert RunConfig(raw).levels == [2 * L, 4 * L, 8 * L, 16 * L, 32 * L]

    def test_problem2_parsed(self):
        raw = base_config(problem2=base_config()["problem"])
        cfg = RunConfig(raw)
        assert cfg.problem2 is not None

    def test_default_generators_are_the_zero_generator(self):
        # a missing f or g is the generator the CLI parsed from
        # {"body": "0", "lip_y": 0.0, linear modulus c = growth_L = 1},
        # field for field, and the heat solve uses the same one
        cfg = RunConfig(base_config(problem={"Phi": "x*x"}))
        written = {"body": "0", "lip_y": 0.0,
                   "modulus": {"kind": "linear", "c": 1.0, "growth_L": 1.0}}
        assert cli._generator(written, "/problem/f") == ZERO_GENERATOR
        assert cfg.problem.f == cfg.problem.g == ZERO_GENERATOR
        _, heat = gsim.heat_solution(parse("x*x"), cfg.gparams, 0.1, -2.0, 2.0, 21)
        assert heat.f == heat.g == ZERO_GENERATOR


class TestConfigTypes:
    """Numbers, integers and arrays are read as such: nothing is coerced
    with a bare float(), int() or list()."""

    @pytest.mark.parametrize("section, key, value, pointer, message", [
        ("ladder", "levels", "48", "/ladder/levels", "must be an array"),
        ("mc", "n_paths", 2.9, "/mc/n_paths", "must be an integer, not 2.9"),
        ("mc", "policies", "low", "/mc/policies", "must be an array"),
        ("grid", "nx", True, "/grid/nx", "must be a number, not a boolean"),
        ("ladder", "levels", [{}], "/ladder/levels/0", "must be a number, not an object"),
        ("grid", "nx", None, "/grid/nx", "must be a number, not null"),
    ])
    def test_rejected_with_pointer_and_exit_2(self, tmp_path, capsys, section, key,
                                              value, pointer, message):
        raw = base_config()
        raw[section][key] = value
        with pytest.raises(ConfigError) as err:
            RunConfig(raw)
        assert err.value.pointer == pointer and message in str(err.value)
        path = write_config(tmp_path, raw)
        assert main(["run", path, "solve", "--out", str(tmp_path / "out")]) == 2
        assert f"error: {pointer}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, pointer", [
        (("mc", "seed"), 1.5, "/mc/seed"),
        (("problem", "growth_q"), 2.5, "/problem/growth_q"),
        (("grid", "x_min"), "-4", "/grid/x_min"),
        (("mc", "dt"), [0.01], "/mc/dt"),
        (("mc", "x0"), {"v": 0}, "/mc/x0"),
        (("gparams", "sigma_low_sq"), None, "/gparams/sigma_low_sq"),
        (("problem", "f", "modulus", "c"), "0.5", "/problem/f/modulus/c"),
        (("problem", "f", "modulus", "rs"), "01", "/problem/f/modulus/rs"),
        (("mc", "policies", 1), True, "/mc/policies/1"),
    ])
    def test_other_fields_typed(self, path, value, pointer):
        raw = base_config()
        node = raw
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        with pytest.raises(ConfigError) as err:
            RunConfig(raw)
        assert err.value.pointer == pointer

    @pytest.mark.parametrize("section", ["gparams", "grid", "ladder", "mc"])
    def test_section_must_be_an_object(self, section):
        with pytest.raises(ConfigError, match=f"/{section}: must be an object"):
            RunConfig(base_config(**{section: [1]}))

    def test_integral_values_load_as_ints(self):
        raw = base_config()
        raw["grid"]["nx"] = 101.0
        raw["mc"].update(n_paths=200.0, seed=7.0, policies=["low", 0.75])
        cfg = RunConfig(raw)
        assert (cfg.nx, cfg.n_paths, cfg.seed) == (101, 200, 7)
        assert all(type(v) is int for v in (cfg.nx, cfg.n_paths, cfg.seed))
        assert cfg.policies == ["low", 0.75]


def rough_config():
    """A small config whose f = -sqrt|z| takes the lattice envelope at every
    level."""
    return base_config(
        problem={"Phi": "x*x", "T": 0.25, "lip_z_bound": 1.0,
                 "f": {"body": "-sqrt(abs(z))", "modulus": {
                     "kind": "power", "c": 1.0, "alpha": 0.5, "growth_L": 0.5}}},
        grid={"x_min": -3.0, "x_max": 3.0, "nx": 41},
        ladder={"levels": [4.0, 8.0], "target_gap": 0.05})


class TestNonFinite:
    """NaN, the infinities and ints beyond the float range, which Python's
    JSON reader accepts, are refused at their pointer.  Unrefused, a NaN
    modulus made solve pass on a NaN bound, an infinite T overflowed in
    refine_grid, and a NaN lip_z_bound was taken silently."""

    @pytest.mark.parametrize("path, value", [
        (("problem", "f", "modulus", "growth_L"), float("nan")),
        (("problem", "f", "modulus", "c"), float("nan")),
        (("problem", "T"), float("inf")),
        (("problem", "f", "lip_y"), float("nan")),
        (("grid", "x_max"), float("inf")),
        (("problem", "lip_z_bound"), float("nan")),
        # ints that float() overflowed: a traceback and exit 1
        (("problem", "T"), 10**400),
        (("grid", "nx"), 10**400),
    ], ids=["growth_L", "c", "T", "lip_y", "x_max", "lip_z_bound", "T_int", "nx_int"])
    @pytest.mark.parametrize("experiment", ["solve", "ladder"])
    def test_refused_with_pointer_and_exit_2(self, tmp_path, capsys, path, value,
                                             experiment):
        raw = rough_config()
        node = raw
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, raw), experiment, "--out", str(out)]) == 2
        pointer = "".join(f"/{k}" for k in path)
        assert f"error: {pointer}: must be finite, not {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_levels_override(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, rough_config())
        assert main(["run", path, "ladder", "--out", str(out), "--levels", "4,nan"]) == 2
        assert "error: --levels/1: must be finite, not nan" in capsys.readouterr().err
        assert not out.exists()


class TestSeedRange:
    """A seed is an integer in [0, 2^63), gsim's rule, checked at load for
    /mc/seed and for --seed.  Past 2^63 numpy read the Philox key as a
    float: 2^64 - 1 wrote seed 0's estimates, 2^63 + 1 and 2^63 + 2 wrote
    one another's, and 10^25 ended in an OverflowError (exit 1)."""

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 1, 2**64 - 1, 10**25])
    def test_config_seed_refused(self, tmp_path, capsys, seed):
        raw = base_config()
        raw["mc"]["seed"] = seed
        with pytest.raises(ConfigError) as err:
            RunConfig(raw)
        assert err.value.pointer == "/mc/seed"
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, raw), "upper-expectation",
                     "--out", str(out)]) == 2
        assert "error: /mc/seed: seed must be an integer in [0, 2^63)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**63), str(10**25)])
    def test_override_refused(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, base_config()), "upper-expectation",
                     "--out", str(out), "--seed", seed]) == 2
        assert "error: --seed: seed must be an integer in [0, 2^63)" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        raw = base_config()
        raw["mc"]["seed"] = 2**63 - 1
        assert RunConfig(raw).seed == 2**63 - 1
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, raw), "upper-expectation", "--out", out]) == 0


class TestPolicies:
    """Policy entries are checked at load, each at its own pointer."""

    @pytest.mark.parametrize("policies", [
        ["low", "high", "feedback"], [0.5, 1, 0.75], ["0.7", "1.0"], [0.5 - 1e-13],
    ])
    def test_accepted(self, policies):
        raw = base_config()
        raw["mc"]["policies"] = policies
        assert RunConfig(raw).policies == policies

    @pytest.mark.parametrize("value, message", [
        (2.0, "variance 2.0 outside [0.5, 1.0]"),
        ("2.0", "variance 2.0 outside [0.5, 1.0]"),
        (0.25, "variance 0.25 outside [0.5, 1.0]"),
        ("medium", "unknown policy 'medium'"),
        ("Low", "unknown policy 'Low'"),
        (None, "must be a number, not null"),
    ])
    def test_rejected_at_load_with_pointer(self, tmp_path, capsys, value, message):
        raw = base_config()
        raw["mc"]["policies"] = ["low", value]
        with pytest.raises(ConfigError) as err:
            RunConfig(raw)
        assert err.value.pointer == "/mc/policies/1"
        assert str(err.value) == f"/mc/policies/1: {message}"
        out = tmp_path / "out"
        path = write_config(tmp_path, raw)
        assert main(["run", path, "upper-expectation", "--out", str(out)]) == 2
        assert f"error: /mc/policies/1: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestMainErrors:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.json"), "solve"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config file"),  # a directory: a traceback and exit 1
        (b'{"gparams": "\xff"}', "invalid JSON"),  # not UTF-8
        (b'{"grid": {"nx": ' + b"1" * 5001 + b"}}", "invalid JSON"),  # past 4,300 digits
    ], ids=["directory", "not_utf8", "long_int"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["run", str(path), "solve", "--out", str(tmp_path / "out")]) == 2
        assert f"error: : {message}" in capsys.readouterr().err

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert main(["run", write_config(tmp_path, base_config()), "solve", "--out", str(out)]) == 2
        assert "error: [Errno 17] File exists" in capsys.readouterr().err

    def test_unknown_experiment_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = main(["run", path, "frobnicate"])
        assert rc == 2

    def test_golden_without_reference_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = main(["run", path, "golden", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "/reference" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["ladder", "envelope-report"])
    def test_empty_levels_exit_2(self, tmp_path, capsys, experiment):
        path = write_config(tmp_path, base_config(ladder={"levels": []}))
        out = tmp_path / "out"
        assert main(["run", path, experiment, "--out", str(out)]) == 2
        assert "/ladder/levels" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_levels_override_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["run", path, "ladder", "--out", str(out), "--levels", ""]) == 2
        assert "--levels" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_levels_override_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["run", path, "ladder", "--out", str(out), "--levels", "a,b"]) == 2
        assert "--levels: not a list of numbers: 'a,b'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path, message", [
        (("problem", "f", "modulus"), "modulus must be an object"),
        (("problem", "f"), "generator must be an object"),
        (("problem",), "problem must be an object"),
        ((), "top-level config must be an object"),
    ])
    def test_non_object_exits_2_with_pointer(self, tmp_path, capsys, path, message):
        raw = base_config()
        if path:
            node = raw
            for k in path[:-1]:
                node = node[k]
            node[path[-1]] = [1]
        else:
            raw = [raw]
        pointer = "".join(f"/{k}" for k in path)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, raw), "solve", "--out", str(out)]) == 2
        assert f"error: {pointer}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_lipschitz_f_without_lip_z_bound_exits_2(self, tmp_path, capsys):
        raw = base_config()
        del raw["problem"]["lip_z_bound"]
        raw["problem"]["f"] = {"body": "-sqrt(abs(z))",
                               "modulus": {"kind": "power", "c": 1.0, "alpha": 0.5}}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, raw), "solve", "--out", str(out)]) == 2
        assert "error: lip_z_bound must be positive" in capsys.readouterr().err

    def test_zero_mc_dt_exits_2(self, tmp_path, capsys):
        raw = base_config()
        raw["mc"]["dt"] = 0
        path = write_config(tmp_path, raw)
        rc = main(["run", path, "upper-expectation", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "/mc/dt" in capsys.readouterr().err


_LINEAR_HALF = {"kind": "linear", "c": 0.5, "growth_L": 0.5}


class TestFalseDeclarations:
    """A generator declaration that a sample refutes stops the load, exit 2,
    with the field's pointer and the witness point."""

    def test_false_modulus_exits_2(self, tmp_path, capsys):
        # Phi = |x| and f = -8|z| declared linear with c = 0.5: solve
        # certified u(0, 0) = -3.19 with "passed": true, though u >= 0
        raw = base_config(grid={"x_min": -6.0, "x_max": 6.0, "nx": 41})
        raw["problem"] = {"Phi": "abs(x)", "f": {"body": "-8*abs(z)", "modulus": _LINEAR_HALF}}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, raw), "solve", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /problem/f/modulus: the declaration is false at t=")
        assert ", z2=" in err and "exceeds its bound" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, gen, pointer", [
        ("f", {"body": "-0.5*abs(z)+y", "lip_y": 0.5, "modulus": _LINEAR_HALF},
         "/problem/f/lip_y"),
        ("f", {"body": "-pow(abs(z),0.5)",
               "modulus": {"kind": "power", "c": 0.5, "alpha": 0.5, "growth_L": 1.0}},
         "/problem/f/modulus"),
        ("f", {"body": "2*abs(z)", "modulus": {"kind": "linear", "c": 2.0, "growth_L": 2.0},
               "growth_L": 0.5}, "/problem/f/growth_L"),
        ("g", {"body": "0.25*abs(z)+3",
               "modulus": {"kind": "linear", "c": 0.25, "growth_L": 0.1}},
         "/problem/g/modulus/growth_L"),
    ], ids=["lip_y", "power_modulus", "growth_L", "modulus_growth_L"])
    def test_refuted_with_pointer(self, key, gen, pointer):
        raw = base_config()
        raw["problem"][key] = gen
        with pytest.raises(ConfigError, match="the declaration is false at t=") as err:
            RunConfig(raw)
        assert err.value.pointer == pointer

    @pytest.mark.parametrize("body, T, pointer", [
        # c = 1 holds up to t = 0.5 only, which is all of [0, T]
        ("-(1+8*max(t-0.5,0))*abs(z)", 0.5, None),
        # c = 1 fails after t = 1 only, which [0, T] reaches
        ("-(1+8*max(t-1,0))*abs(z)", 2.0, "/problem/f/modulus"),
    ], ids=["true_on_the_horizon", "false_past_t_1"])
    def test_sampled_on_the_horizon(self, body, T, pointer):
        raw = base_config()
        raw["problem"]["T"] = T
        raw["problem"]["f"] = {"body": body, "modulus": {"kind": "linear", "c": 1.0,
                                                         "growth_L": 1.0}}
        if pointer is None:
            assert RunConfig(raw).problem.T == T
            return
        with pytest.raises(ConfigError, match="the declaration is false at t=") as err:
            RunConfig(raw)
        assert err.value.pointer == pointer
        assert float(str(err.value).split("t=")[1].split(",")[0]) > 1.0

    @pytest.mark.parametrize("gen", [
        {"body": "-0.5*y-abs(z)", "lip_y": 0.5,
         "modulus": {"kind": "linear", "c": 1.0, "growth_L": 1.0}},
        # sqrt(r) = 0.5 (1 + r) at r = 1
        {"body": "-sqrt(abs(z))", "modulus": {"kind": "power", "c": 1.0, "alpha": 0.5,
                                              "growth_L": 0.5}},
        # true where f is defined, which is not at every sample: nothing to
        # refute, as a domain error stops the sampling
        {"body": "0.1*sqrt(x+3)*abs(z)", "modulus": _LINEAR_HALF},
    ], ids=["lip_y_equality", "growth_equality", "domain"])
    def test_true_or_untestable_declarations_load(self, gen):
        raw = base_config()
        raw["problem"]["f"] = gen
        RunConfig(raw)


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


class TestExperiments:
    def test_solve(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert main(["run", path, "solve", "--out", out]) == 0
        s = read_summary(out)
        assert s["experiment"] == "solve"
        assert s["passed"] is True
        assert s["gap"] <= s["target_gap"]
        t0 = open(os.path.join(out, "solution_t0.csv")).readline()
        assert t0 == "# g-bsde-lab schema v1\n"
        assert os.path.exists(os.path.join(out, "solution_layers.csv"))

    def test_ladder(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert main(["run", path, "ladder", "--out", out]) == 0
        s = read_summary(out)
        assert [lv["level"] for lv in s["levels"]] == [1.0, 2.0]
        assert all(lv["pass"] for lv in s["levels"])

    @pytest.mark.parametrize("nx, code", [(601, 1), (801, 0)])
    def test_ladder_fails_when_a_side_moves_the_wrong_way(self, tmp_path, nx, code):
        # x^6/6 solves this problem exactly; at nx=601 the scheme's
        # dissipation is on at level 32, whose upper solution rises above
        # level 16's on the core by more than the tolerance
        cfg = {
            "gparams": {"sigma_low_sq": 0.5, "sigma_high_sq": 1.0},
            "problem": {
                "Phi": "x*x*x*x*x*x/6",
                "f": {"body": "-2.5*pow(abs(z),0.8)",
                      "modulus": {"kind": "power", "c": 2.5, "alpha": 0.8,
                                  "growth_L": 2.5}},
                "lip_z_bound": 2.5,
            },
            "grid": {"x_min": -6.0, "x_max": 6.0, "nx": nx, "core_fraction": 0.25},
            "ladder": {"levels": [4.0, 8.0, 16.0, 32.0], "target_gap": 0.05},
        }
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "ladder", "--out", out]) == code
        s = read_summary(out)
        assert [lv["pass"] for lv in s["levels"]] == [True, True, True, code == 0]
        assert all(lv["gap"] <= lv["bound"] + 2 * s["tolerance"] for lv in s["levels"])

    def test_ladder_levels_override(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert main(["run", path, "ladder", "--out", out, "--levels", "2,4"]) == 0
        s = read_summary(out)
        assert [lv["level"] for lv in s["levels"]] == [2.0, 4.0]

    def test_default_levels_without_a_generator(self, tmp_path):
        # a heat problem (L = 0) used to get five zero levels: ladder
        # exited 2 and envelope-report passed on rows of level 0
        raw = base_config(problem={"Phi": "x*x"})
        del raw["ladder"]
        path = write_config(tmp_path, raw)
        for experiment in ("ladder", "envelope-report"):
            out = str(tmp_path / experiment)
            assert main(["run", path, experiment, "--out", out]) == 0
            s = read_summary(out)
            assert [lv["level"] for lv in s["levels"]] == [1.0, 2.0, 4.0, 8.0, 16.0]
            gaps = [lv["gap" if experiment == "ladder" else "max_gap"] for lv in s["levels"]]
            assert gaps == [0.0] * 5

    def test_envelope_report(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert main(["run", path, "envelope-report", "--out", out]) == 0
        s = read_summary(out)
        assert s["passed"] is True
        assert len(s["levels"]) == 2

    def test_upper_expectation(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert main(["run", path, "upper-expectation", "--out", out]) == 0
        s = read_summary(out)
        # worst case of E[(B_T)^2] over the interval is sigma_high_sq * T
        assert s["pde_value"] == pytest.approx(1.0, abs=0.05)
        assert {p["policy"] for p in s["policies"]} == {"low", "high"}

    def test_upper_expectation_matches_per_policy_ensembles(self, tmp_path):
        # the estimates from shared-noise terminal states equal, bit for bit,
        # one simulate_paths ensemble per policy read by upper_expectation_mc
        raw = base_config()
        raw["mc"]["policies"] = ["low", "high", "feedback"]
        path = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["run", path, "upper-expectation", "--out", out]) == 0
        s = read_summary(out)
        cfg = load_config(path)
        payoff = cfg.problem.coeffs.Phi
        ctx = gsim.heat_solution(payoff, cfg.gparams, cfg.problem.T,
                                 cfg.x_min, cfg.x_max, cfg.nx)
        gp = cfg.gparams
        policies = [gsim.ConstantPolicy(gp.sigma_low_sq, gp),
                    gsim.ConstantPolicy(gp.sigma_high_sq, gp), gsim.FeedbackPolicy(*ctx)]
        assert [p["policy"] for p in s["policies"]] == raw["mc"]["policies"]
        for got, policy in zip(s["policies"], policies):
            ens = gsim.simulate_paths(policy, gp, 0.0, cfg.problem.T, cfg.mc_dt,
                                      cfg.n_paths, cfg.seed)
            est = gsim.upper_expectation_mc(payoff, [ens])
            assert (got["mc"], got["se"]) == (est.value, est.se)

    def test_upper_expectation_needs_a_policy(self, tmp_path, capsys):
        raw = base_config()
        raw["mc"]["policies"] = []
        path = write_config(tmp_path, raw)
        assert main(["run", path, "upper-expectation", "--out", str(tmp_path / "out")]) == 2
        assert "at least one policy" in capsys.readouterr().err

    def test_compare(self, tmp_path):
        raw = base_config()
        raw["problem2"] = {
            "Phi": "x*x",
            "f": {
                "body": "0.25-0.5*abs(z)",
                "modulus": {"kind": "linear", "c": 0.5, "growth_L": 0.5},
            },
            "lip_z_bound": 0.5,
        }
        path = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["run", path, "compare", "--out", out]) == 0
        s = read_summary(out)
        assert s["passed"] is True
        assert s["min_core_diff"] >= -1e-6

    def test_compare_needs_a_shared_horizon(self, tmp_path, capsys):
        # problem2 on [0, 0.5] used to be solved on problem's [0, 1] grid
        # and reported PASS
        raw = base_config()
        raw["problem2"] = dict(raw["problem"], Phi="x*x+0.1", T=0.5)
        path = write_config(tmp_path, raw)
        assert main(["run", path, "compare", "--out", str(tmp_path / "out")]) == 2
        assert "problems must share T" in capsys.readouterr().err

    def test_compare_needs_problem2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = main(["run", path, "compare", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "/problem2" in capsys.readouterr().err

    def test_kcheck(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert main(["run", path, "kcheck", "--out", out]) == 0
        s = read_summary(out)
        assert all(p["pass"] for p in s["policies"])

    def test_kcheck_paths_leaving_the_domain_fail_the_check(self, tmp_path, capsys):
        # paths of variance >= 0.5 over T = 1 leave [-0.9, 0.9]; the stencil
        # read used to refuse them with a ValueError and exit 2
        raw = base_config(grid={"x_min": -1.0, "x_max": 1.0, "nx": 21,
                                "core_fraction": 0.5})
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, raw), "kcheck", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "paths leave [-0.9, 0.9], one cell inside the domain [-1, 1], at t=" in err
        s = read_summary(out)
        assert [p["policy"] for p in s["policies"]] == ["low", "high"]
        assert s["passed"] is False
        for p in s["policies"]:
            assert p["pass"] is False and p["reason"] in err

    def test_kcheck_uptick_bits_and_nan(self):
        # the running-row uptick is the accumulate form bit for bit, and a
        # NaN gives NaN, which fails the check's uptick <= tol
        rng = np.random.default_rng(3)
        K = np.cumsum(rng.standard_normal((60, 40)), axis=0)  # time-major
        K[0] = 0.0
        want = float(np.max(K.T - np.minimum.accumulate(K.T, axis=1)))
        assert cli._max_uptick(K) == want
        K[20, 7] = np.nan
        assert np.isnan(cli._max_uptick(K))

    def test_golden(self, tmp_path):
        raw = base_config()
        raw["problem"] = {"Phi": "x*x"}
        raw["grid"] = {"x_min": -6.0, "x_max": 6.0, "nx": 151,
                       "core_fraction": 1.0 / 3.0}
        raw["ladder"] = {"target_gap": 0.05}
        raw["reference"] = "x*x + 1.0*(1-t)"
        path = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["run", path, "golden", "--out", out]) == 0
        s = read_summary(out)
        assert s["max_core_error"] <= s["threshold"]
        # the reported error is the largest over a per-layer loop, bit for bit
        cfg = load_config(path)
        core = cfg.build_grid().core_mask()
        with open(os.path.join(out, "solution_layers.csv")) as fh:
            lines = fh.readlines()[1:]
        xs = np.array([float(v) for v in lines[0].split(",")[1:]])[core]
        err = 0.0
        for line in lines[1:]:
            t, *layer = map(float, line.split(","))
            ref = evaluate(cfg.reference, {"t": t, "x": xs})
            err = max(err, float(np.max(np.abs(np.array(layer)[core] - ref))))
        assert len(lines) > 2
        assert s["max_core_error"] == err


@pytest.mark.parametrize("experiment", sorted(cli._EXPERIMENTS))
def test_exit_status_is_summary_passed(tmp_path, experiment):
    # run takes the exit status from the summary alone; golden's reference
    # is wrong for this problem, so both outcomes occur
    raw = base_config(problem2=dict(base_config()["problem"], Phi="x*x+0.1"),
                      reference="x*x+(1-t)")
    raw["grid"]["nx"] = 41
    raw["mc"]["policies"] = ["low", "high", "feedback"]
    out = str(tmp_path / "out")
    rc = main(["run", write_config(tmp_path, raw), experiment, "--out", out])
    passed = read_summary(out)["passed"]
    assert type(passed) is bool
    assert rc == (0 if passed else 1)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, base_config())
        outs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for out in outs:
            assert main(["run", path, "upper-expectation", "--out", out]) == 0
        for name in ("summary.json", "upper_expectation.csv"):
            b0 = open(os.path.join(outs[0], name), "rb").read()
            b1 = open(os.path.join(outs[1], name), "rb").read()
            assert b0 == b1

    def test_seed_override_changes_estimates(self, tmp_path):
        path = write_config(tmp_path, base_config())
        outs = [str(tmp_path / "a"), str(tmp_path / "b")]
        assert main(["run", path, "upper-expectation", "--out", outs[0]]) == 0
        assert main(["run", path, "upper-expectation", "--out", outs[1],
                     "--seed", "8"]) == 0
        s0, s1 = read_summary(outs[0]), read_summary(outs[1])
        assert s0["policies"][0]["mc"] != s1["policies"][0]["mc"]
