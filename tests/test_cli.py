import json
import os

import pytest

from gbsdelab.cli import ConfigError, RunConfig, load_config, main


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

    def test_problem2_parsed(self):
        raw = base_config(problem2=base_config()["problem"])
        cfg = RunConfig(raw)
        assert cfg.problem2 is not None


class TestMainErrors:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.json"), "solve"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_experiment_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = main(["run", path, "frobnicate"])
        assert rc == 2

    def test_golden_without_reference_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = main(["run", path, "golden", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "/reference" in capsys.readouterr().err


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
