import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsdelab import envelope
from gbsdelab.envelope import (
    EnvelopeGenerator,
    Modulus,
    ScalarGenerator,
    envelope_gap_bound,
    envelope_grid_error,
    envelope_of,
    lower_envelope,
    modulus_eval,
    search_radius,
    upper_envelope,
)

SQRT = ScalarGenerator.from_text(
    "sqrt(abs(z))", 0.0, Modulus("power", c=1.0, alpha=0.5, growth_L=0.5)
)
ABS = ScalarGenerator.from_text(
    "abs(z)", 0.0, Modulus("linear", c=1.0, growth_L=1.0)
)
POWER = ScalarGenerator.from_text(
    "-2.5*pow(abs(z),0.8)", 0.0, Modulus("power", c=2.5, alpha=0.8, growth_L=2.5)
)
XYZ = ScalarGenerator.from_text(
    "-0.5*y-(1+0.5*abs(x)/(1+abs(x)))*pow(abs(z),0.5)", 0.5,
    Modulus("power", c=1.5, alpha=0.5, growth_L=1.5),
)


class TestModulus:
    def test_power_at_zero(self):
        assert modulus_eval(Modulus("power", c=2.5, alpha=0.8), 0.0) == 0.0

    def test_power_at_one(self):
        assert modulus_eval(Modulus("power", c=2.5, alpha=0.8), 1.0) == 2.5

    def test_linear(self):
        assert modulus_eval(Modulus("linear", c=3.0), 2.0) == 6.0

    def test_negative_argument(self):
        with pytest.raises(ValueError):
            modulus_eval(Modulus("linear", c=1.0), -0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Modulus("cubic")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            Modulus("power", alpha=1.5)

    def test_tabulated(self):
        m = Modulus("tabulated", rs=(0.0, 1.0, 2.0), values=(0.0, 1.0, 1.5))
        assert modulus_eval(m, 0.0) == 0.0
        assert modulus_eval(m, 0.5) == 0.5
        assert modulus_eval(m, 3.0) == 2.0  # last slope continues

    def test_tabulated_must_start_at_origin(self):
        with pytest.raises(ValueError):
            Modulus("tabulated", rs=(0.5, 1.0), values=(0.1, 1.0))

    def test_tabulated_monotone(self):
        with pytest.raises(ValueError):
            Modulus("tabulated", rs=(0.0, 1.0, 2.0), values=(0.0, 1.0, 0.5))

    @pytest.mark.parametrize("rs, values", [((0.0, 1.0, 2.0), (0.0, 1.0)), ((0.0,), (0.0,))],
                             ids=["mismatched", "one_point"])
    def test_tabulated_needs_matching_rs_values(self, rs, values):
        with pytest.raises(ValueError, match="matching rs/values"):
            Modulus("tabulated", rs=rs, values=values)

    @pytest.mark.parametrize("L", [0.0, -1.0, np.nan])
    def test_growth_must_be_positive(self, L):
        with pytest.raises(ValueError, match="growth_L must be positive"):
            Modulus("linear", c=1.0, growth_L=L)

    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_power_subadditive(self, r, s):
        m = Modulus("power", c=2.5, alpha=0.8)
        assert modulus_eval(m, r + s) <= modulus_eval(m, r) + modulus_eval(m, s) + 1e-9


class TestSearchRadius:
    def test_center(self):
        assert search_radius(1.0, 3.0, 0.0, 0.0) == 1.0

    def test_offset(self):
        assert search_radius(1.0, 2.0, 0.0, 1.0) == 4.0

    def test_level_too_small(self):
        with pytest.raises(ValueError):
            search_radius(1.0, 1.0, 0.0, 0.0)

    def test_certifies_localization(self):
        # no point outside the radius can beat the candidate q=z
        L, n, z = 0.5, 1.0, 0.25
        r = search_radius(L, n, 0.0, z)
        qs = np.concatenate([
            np.linspace(z - 3 * r, z - r, 200), np.linspace(z + r, z + 3 * r, 200)
        ])
        outside = np.sqrt(np.abs(qs)) + n * np.abs(z - qs)
        at_z = np.sqrt(abs(z))
        assert np.all(outside >= at_z - 1e-12)


class TestEnvelopeValues:
    def test_lipschitz_passthrough_lower(self):
        assert lower_envelope(ABS, 2.0, 0, 0, 0, 0.7) == pytest.approx(0.7, abs=1e-9)

    def test_lipschitz_passthrough_upper(self):
        assert upper_envelope(ABS, 2.0, 0, 0, 0, 0.7) == pytest.approx(0.7, abs=1e-9)

    def test_sqrt_lower_near_zero(self):
        assert lower_envelope(SQRT, 1.0, 0, 0, 0, 0.01) == pytest.approx(0.01, abs=1e-6)

    def test_sqrt_lower_at_one(self):
        assert lower_envelope(SQRT, 1.0, 0, 0, 0, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_sqrt_upper_at_zero(self):
        # maximizer of sqrt(q) - q sits at q = 1/4
        assert upper_envelope(SQRT, 1.0, 0, 0, 0, 0.0) == pytest.approx(0.25, abs=1e-6)

    def test_negated_symmetry(self):
        gen = ScalarGenerator.from_text(
            "-sqrt(abs(z))", 0.0, Modulus("power", c=1.0, alpha=0.5, growth_L=0.5)
        )
        assert upper_envelope(gen, 1.0, 0, 0, 0, 0.01) == pytest.approx(-0.01, abs=1e-6)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            lower_envelope(SQRT, 1.0, 0, 0, 0, 0.5, step=0.0)

    def test_brute_force_oracle(self):
        # independent oracle: very fine uniform scan over a wide window
        rng = np.random.default_rng(3)
        for gen, f in ((SQRT, lambda q: np.sqrt(np.abs(q))),
                       (POWER, lambda q: -2.5 * np.abs(q) ** 0.8)):
            n = 4.0 * gen.growth_L
            for z in rng.uniform(-2, 2, 5):
                qs = np.linspace(z - 6, z + 6, 2_000_001)
                truth = float(np.min(f(qs) + n * np.abs(z - qs)))
                got = lower_envelope(gen, n, 0, 0, 0, z)
                err = envelope_grid_error(gen, n, 1e-3)
                assert truth - 1e-9 <= got <= truth + err


class TestGapBound:
    # the bound reads growth_L from its argument, never from the generator
    def test_linear(self):
        assert envelope_gap_bound(ABS, 1.0, 3.0) == 1.0

    def test_power(self):
        assert envelope_gap_bound(POWER, 1.0, 5.0) == pytest.approx(2.5 * 0.5**0.8)

    def test_vanishes_as_n_grows(self):
        vals = [envelope_gap_bound(POWER, 1.0, n) for n in (2, 4, 8, 1e6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    def test_requires_n_above_l(self):
        with pytest.raises(ValueError):
            envelope_gap_bound(ABS, 1.0, 1.0)

    def test_zero_for_a_body_free_of_z(self):
        # such a body is its own envelope at every level, n <= L included
        gen = ScalarGenerator.from_text("x+sqrt(abs(y))", 1.0, Modulus("power", alpha=0.5))
        for n in (0.5, 1.0, 3.0):
            assert envelope_gap_bound(gen, 1.0, n) == 0.0


def _panel(rng, size):
    return (rng.uniform(0, 1, size), rng.uniform(-2, 2, size),
            rng.uniform(-2, 2, size), rng.uniform(-3, 3, size))


class TestEnvelopeLaws:
    """Sandwich, monotonicity in n, Lipschitz bounds, gap bound."""

    GENS = (SQRT, ABS, POWER)

    def test_sandwich(self):
        rng = np.random.default_rng(11)
        for gen in self.GENS:
            L = gen.growth_L
            t, x, y, z = _panel(rng, 50)
            for n in (2 * L, 4 * L, 8 * L):
                err = envelope_grid_error(gen, n, 1e-3)
                for ti, xi, yi, zi in zip(t, x, y, z):
                    phi0 = gen.eval_grid(ti, xi, yi, 0.0)
                    fz = gen.eval_grid(ti, xi, yi, zi)
                    lo = lower_envelope(gen, n, ti, xi, yi, zi)
                    up = upper_envelope(gen, n, ti, xi, yi, zi)
                    lin = L * (1 + abs(yi) + abs(zi))
                    assert -lin + phi0 - err <= lo <= fz + 1e-9
                    assert fz - 1e-9 <= up <= lin + phi0 + err

    def test_monotone_in_n(self):
        rng = np.random.default_rng(12)
        for gen in self.GENS:
            L = gen.growth_L
            _, _, _, z = _panel(rng, 30)
            for zi in z:
                los = [lower_envelope(gen, n, 0, 0, 0, zi)
                       for n in (2 * L, 4 * L, 8 * L)]
                ups = [upper_envelope(gen, n, 0, 0, 0, zi)
                       for n in (2 * L, 4 * L, 8 * L)]
                err = envelope_grid_error(gen, 8 * L, 1e-3)
                assert los[0] <= los[1] + err and los[1] <= los[2] + err
                assert ups[2] <= ups[1] + err and ups[1] <= ups[0] + err

    def test_lipschitz_in_z(self):
        rng = np.random.default_rng(13)
        for gen in self.GENS:
            L = gen.growth_L
            n = 4 * L
            err = 2 * envelope_grid_error(gen, n, 1e-3)
            z1 = rng.uniform(-3, 3, 30)
            z2 = z1 + rng.uniform(-0.5, 0.5, 30)
            for a, b in zip(z1, z2):
                d = abs(lower_envelope(gen, n, 0, 0, 0, a)
                        - lower_envelope(gen, n, 0, 0, 0, b))
                assert d <= n * abs(a - b) + err

    def test_lipschitz_in_y(self):
        gen = ScalarGenerator.from_text(
            "0.5*y+sqrt(abs(z))", 0.5,
            Modulus("power", c=1.0, alpha=0.5, growth_L=1.0),
        )
        rng = np.random.default_rng(14)
        n = 4.0
        err = 2 * envelope_grid_error(gen, n, 1e-3)
        for _ in range(30):
            y1, y2 = rng.uniform(-2, 2, 2)
            z = rng.uniform(-2, 2)
            d = abs(lower_envelope(gen, n, 0, 0, y1, z)
                    - lower_envelope(gen, n, 0, 0, y2, z))
            assert d <= gen.growth_L * abs(y1 - y2) + err

    def test_gap_bound(self):
        rng = np.random.default_rng(15)
        for gen in self.GENS:
            L = gen.growth_L
            for n in (2 * L, 4 * L, 8 * L):
                bound = envelope_gap_bound(gen, L, n)
                err = envelope_grid_error(gen, n, 1e-3)
                for z in rng.uniform(-3, 3, 30):
                    fz = gen.eval_grid(0, 0, 0, z)
                    lo = lower_envelope(gen, n, 0, 0, 0, z)
                    up = upper_envelope(gen, n, 0, 0, 0, z)
                    assert -1e-9 <= fz - lo <= bound + err
                    assert -1e-9 <= up - fz <= bound + err


class TestEnvelopeGenerator:
    def test_mode_passthrough_z_free(self):
        # a body free of z is its own envelope at every level n >= 0
        gen = ScalarGenerator.from_text("x+y", 1.0, Modulus("linear", c=1.0))
        assert gen.lip_z == 0.0
        for side in ("lower", "upper"):
            assert envelope_of(gen, 4.0, side) is gen

    def test_mode_passthrough_lipschitz(self):
        # abs(z) is 1-Lipschitz in z: its own envelope from level 1 on
        for side in ("lower", "upper"):
            assert envelope_of(ABS, 2.0, side) is ABS
        assert envelope_of(ABS, 1.0 + 1e-9, "lower") is ABS

    @pytest.mark.parametrize("gen, n, mode", [(ABS, 2.0, None), (POWER, 8.0, "lattice"),
                                              (XYZ, 8.0, "direct")], ids=["abs", "power", "xyz"])
    def test_envelope_of_checks_level_and_side_on_both_branches(self, gen, n, mode):
        # ABS passes through (mode None); the side and level checks hold either way
        with pytest.raises(ValueError, match="side must be"):
            envelope_of(gen, n, "middle")
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="level n must be finite"):
                envelope_of(gen, bad, "lower")
        with pytest.raises(ValueError, match="must exceed the growth constant"):
            envelope_of(gen, gen.growth_L, "upper")
        env = envelope_of(gen, n, "upper")
        assert env is gen if mode is None else env.mode == mode

    def test_constructed_envelope_is_n_lipschitz(self):
        # EnvelopeGenerator itself never passes through: on a generator
        # already n-Lipschitz it still takes the lattice, at lip_z = n
        eg = EnvelopeGenerator(ABS, 2.0, "lower")
        assert eg.mode == "lattice" and eg.lip_z == 2.0
        assert eg.eval_grid(0, 0, 0, -0.7) == pytest.approx(0.7, abs=1e-6)

    def test_mode_lattice_matches_direct(self):
        for side in ("lower", "upper"):
            eg = EnvelopeGenerator(POWER, 8.0, side)
            assert eg.mode == "lattice"
            env = lower_envelope if side == "lower" else upper_envelope
            zs = np.array([-2.0, -0.3, 0.0, 0.01, 1.5, 3.7])
            got = eg.eval_grid(0, 0, 0, zs)
            want = [env(POWER, 8.0, 0, 0, 0, z) for z in zs]
            tol = eg.interp_error_bound(zs) + envelope_grid_error(POWER, 8.0, 1e-3)
            assert np.max(np.abs(got - want)) <= tol

    def test_lattice_extends_range(self):
        eg = EnvelopeGenerator(POWER, 8.0, "lower")
        v = eg.eval_grid(0, 0, 0, 50.0)
        assert np.isfinite(v)
        assert eg._z_max == 64.0 and eg._lattice[-1] >= 50.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_z_leaves_lattice_intact(self, bad):
        eg = EnvelopeGenerator(POWER, 8.0, "lower")
        zs = np.array([0.5, 1.0])
        before = eg.eval_grid(0, 0, 0, zs)
        with pytest.raises(ValueError, match="non-finite z"):
            eg.eval_grid(0, 0, 0, bad)
        after = eg.eval_grid(0, 0, 0, zs)
        assert np.array_equal(after.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("points", [np.array([]), np.zeros((2, 0))], ids=["1d", "2d"])
    def test_interp_error_bound_without_points(self, points):
        eg = EnvelopeGenerator(POWER, 8.0, "lower")
        eg.eval_grid(0, 0, 0, 0.5)
        assert eg.interp_error_bound(points) == 8.0 * EnvelopeGenerator._Z_RES

    def test_interp_error_bound_is_zero_in_direct_mode(self):
        # a direct envelope searches at each point and interpolates nothing;
        # CLI envelope-report takes this bound as its slack
        eg = EnvelopeGenerator(XYZ, 8.0, "lower")
        zs = np.array([0.3, 5.0])
        eg.eval_grid(0.0, 0.5, 0.2, zs)
        assert eg.mode == "direct" and eg.interp_error_bound(zs) == 0.0

    def test_mode_direct(self):
        gen = ScalarGenerator.from_text(
            "x+sqrt(abs(z))", 0.0, Modulus("power", c=1.0, alpha=0.5, growth_L=1.0)
        )
        eg = EnvelopeGenerator(gen, 4.0, "lower")
        assert eg.mode == "direct"
        got = eg.eval_grid(0.0, 1.5, 0.0, 0.01)
        want = lower_envelope(gen, 4.0, 0.0, 1.5, 0.0, 0.01)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, np.array([0.5, np.inf])],
                             ids=["inf", "-inf", "nan", "array"])
    def test_direct_names_non_finite_z(self, bad):
        gen = ScalarGenerator.from_text(
            "x+sqrt(abs(z))", 0.0, Modulus("power", c=1.0, alpha=0.5, growth_L=1.0)
        )
        eg = EnvelopeGenerator(gen, 4.0, "lower")
        assert eg.mode == "direct"
        with pytest.raises(ValueError, match="non-finite z"):
            eg.eval_grid(0.0, 1.5, 0.0, bad)

    def test_level_must_exceed_growth(self):
        with pytest.raises(ValueError):
            EnvelopeGenerator(POWER, 2.0, "lower")

    @pytest.mark.parametrize("n", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("body", ["1", "x+y", "-sqrt(abs(z))"])
    def test_level_must_be_finite(self, body, n):
        # NaN gave NaN values; inf on -sqrt(abs(z)) built a NaN lattice
        gen = ScalarGenerator.from_text(
            body, 0.0, Modulus("power", c=1.0, alpha=0.5, growth_L=0.5))
        with pytest.raises(ValueError, match="level n must be finite"):
            EnvelopeGenerator(gen, n, "lower")

    @pytest.mark.parametrize("body", ["1", "x+y"])
    def test_z_free_level_must_be_nonnegative(self, body):
        # "1" at n = -1 took the lattice and gave [-15.06, -18.06]
        gen = ScalarGenerator.from_text(body, 0.0, Modulus("linear", c=1.0))
        for make in (envelope_of, EnvelopeGenerator):
            with pytest.raises(ValueError, match="must be nonnegative"):
                make(gen, -1.0, "lower")
        assert envelope_of(gen, 0.0, "upper") is gen

    def test_bad_side(self):
        with pytest.raises(ValueError):
            EnvelopeGenerator(POWER, 8.0, "middle")

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_direct_empty_input(self, shape):
        eg = EnvelopeGenerator(XYZ, 4.0, "lower")
        assert eg.mode == "direct"
        out = eg.eval_grid(0.0, 1.5, np.zeros(shape), np.zeros(shape))
        assert isinstance(out, np.ndarray) and out.shape == shape

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, np.array([0.5, np.inf])],
                             ids=["inf", "-inf", "nan", "array"])
    def test_direct_names_non_finite_y(self, bad):
        for side in ("lower", "upper"):
            eg = EnvelopeGenerator(XYZ, 4.0, side)
            with pytest.raises(ValueError, match="non-finite y"):
                eg.eval_grid(0.0, 1.5, bad, 0.01)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_search_names_non_finite_y(self, bad):
        for env in (lower_envelope, upper_envelope):
            with pytest.raises(ValueError, match="non-finite y"):
                env(XYZ, 4.0, 0.0, 1.5, bad, 0.01)


def _linspace_search(gen, n, t, x, y, z, step, sign):
    """The direct search on np.linspace with q = 0 appended, as an oracle
    for the q-grid built in place."""
    radius = search_radius(gen.growth_L, n, y, z)
    if step is None:
        step = min(1e-3, radius / 1000.0)
    npts = int(np.ceil(2.0 * radius / step)) + 1
    if npts % 2 == 0:
        npts += 1
    qs = np.linspace(z - radius, z + radius, npts)
    if abs(z) <= radius:
        qs = np.append(qs, 0.0)
    vals = sign * gen.eval_grid(t, x, y, qs) + n * np.abs(z - qs)
    return sign * float(np.min(vals))


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


class TestGridSearchBits:
    """The in-place q-grid gives the linspace search's bits."""

    @settings(max_examples=80, deadline=None)
    @given(gen=st.sampled_from([XYZ, SQRT, POWER]), n=st.floats(4.0, 64.0),
           t=st.floats(0.0, 1.0), x=st.floats(-3.0, 3.0), y=st.floats(-2.0, 2.0),
           z=st.one_of(st.floats(-0.2, 0.2), st.floats(-40.0, 40.0)),
           cells=st.one_of(st.none(), st.floats(2.0, 3000.0)))
    def test_matches_linspace_search(self, gen, n, t, x, y, z, cells):
        # cells sets an explicit step 2r/cells; its ceiling is odd about
        # half the time, which bumps an even point count to odd
        radius = search_radius(gen.growth_L, n, y, z)
        step = None if cells is None else 2.0 * radius / cells
        for env, sign in ((lower_envelope, 1.0), (upper_envelope, -1.0)):
            got = env(gen, n, t, x, y, z, step=step)
            want = _linspace_search(gen, n, t, x, y, z, step, sign)
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("n, z, cells", [
        (4.0, 0.01, None),   # |z| <= r: q = 0 joins the grid
        (64.0, 30.0, None),  # |z| > r: no q = 0
        (8.0, 0.3, 2.5),     # ceil(2.5) + 1 = 4 points, bumped to 5
        (8.0, 0.3, 3.5),     # ceil(3.5) + 1 = 5 points, odd already
    ])
    def test_branches(self, n, z, cells):
        radius = search_radius(XYZ.growth_L, n, 0.7, z)
        step = None if cells is None else 2.0 * radius / cells
        for env, sign in ((lower_envelope, 1.0), (upper_envelope, -1.0)):
            got = env(XYZ, n, 0.4, -1.2, 0.7, z, step=step)
            want = _linspace_search(XYZ, n, 0.4, -1.2, 0.7, z, step, sign)
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("z, L", [(2.0**-1020, 5e-324), (2.0**-1018, 2e-323)])
    def test_denormal_spacing(self, z, L):
        # a tiny growth_L and a step of one denormal unit give a denormal
        # radius whose spacing 2r/(npts - 1) rounds to 0, where np.linspace
        # multiplies k/(npts - 1) by 2r instead; the coarse pass sees every
        # point of this grid
        seen = []

        class Recording(ScalarGenerator):
            def eval_grid(self, t, x, y, z, zabs=None):
                seen.append(np.array(z, dtype=float))
                return super().eval_grid(t, x, y, z)

        gen = Recording(ABS.body, 0.0, Modulus("linear", c=1.0, growth_L=L))
        radius, step = search_radius(L, 1.0, 0.0, z), 5e-324
        npts = int(np.ceil(2.0 * radius / step)) + 1 | 1
        start, stop = z - radius, z + radius
        assert 0.0 < stop - start and (stop - start) / (npts - 1) == 0.0
        lower_envelope(gen, 1.0, 0.0, 0.0, 0.0, z, step=step)
        want = np.linspace(start, stop, npts)
        assert np.array_equal(_bits(seen[0].ravel()[:npts]), _bits(want))

    def test_eval_grid_2d(self):
        rng = np.random.default_rng(21)
        t, x, y, z = (a.reshape(3, 4) for a in _panel(rng, 12))
        for side, sign in (("lower", 1.0), ("upper", -1.0)):
            got = EnvelopeGenerator(XYZ, 8.0, side).eval_grid(t[0, 0], x, y, z)
            want = [_linspace_search(XYZ, 8.0, t[0, 0], *p, None, sign)
                    for p in zip(x.flat, y.flat, z.flat)]
            assert got.shape == (3, 4)
            assert np.array_equal(_bits(got).ravel(), _bits(want))


# a body in t and y whose z part is Lipschitz and saturates, under a
# tabulated modulus that bounds it: min(2.5r, 1 + 0.5r, 1.5)
TY = ScalarGenerator.from_text(
    "0.3*exp(-t)*y-2*min(abs(z),0.5)+0.5*min(abs(z-1),1)", 0.3,
    Modulus("tabulated", rs=(0.0, 0.5, 1.0, 2.0), values=(0.0, 1.25, 1.5, 1.5),
            growth_L=1.5),
)
# a true but loose modulus: nothing is pruned, so every row scans in full
LOOSE = ScalarGenerator.from_text(
    "sqrt(abs(z))", 0.0, Modulus("power", c=1000.0, alpha=0.5, growth_L=0.5)
)

_POINT = st.tuples(
    st.floats(0.0, 1.0), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0),
    st.one_of(st.just(0.0), st.floats(-0.2, 0.2), st.floats(-40.0, 40.0)),
)


def _assert_row_bits(gen, n, row, step):
    t, x, y, z = (np.array(v) for v in zip(*row))
    for env, sign in ((lower_envelope, 1.0), (upper_envelope, -1.0)):
        got = env(gen, n, t, x, y, z, step=step)
        want = [_linspace_search(gen, n, *p, step, sign) for p in row]
        assert got.shape == (len(row),)
        assert np.array_equal(_bits(got), _bits(want))


class TestPrunedSearchBits:
    """One pruned search per row gives each point the full scan's bits."""

    @settings(max_examples=60, deadline=None)
    @given(gen=st.sampled_from([SQRT, ABS, POWER, XYZ, TY]), ratio=st.floats(1.5, 1e6),
           row=st.lists(_POINT, min_size=1, max_size=8),
           step=st.one_of(st.none(), st.floats(1e-3, 1.0)))
    def test_rows_match_linspace_search(self, gen, ratio, row, step):
        # n = 1.5L gives radii up to about 170 (full scans past _CHUNK
        # points); a large ratio gives tiny radii, where q = 0 mostly leaves
        # the grid and an explicit step leaves three points
        _assert_row_bits(gen, ratio * gen.growth_L, row, step)

    @pytest.mark.parametrize("gen", [XYZ, TY, LOOSE], ids=["XYZ", "TY", "LOOSE"])
    def test_fine_pass_in_many_chunks(self, gen, monkeypatch):
        # 64-point chunks split the kept cells of this row many times over;
        # under LOOSE no cell is pruned and the row scans about 26,000 points
        monkeypatch.setattr(envelope, "_CHUNK", 64)
        rng = np.random.default_rng(22)
        row = list(zip(*_panel(rng, 6)))
        _assert_row_bits(gen, 4.0 * gen.growth_L, row, None)

    def test_narrow_dip_off_z(self):
        # a dip (peak) 0.002 wide, 3e-3 to 9e-3 from z: often no coarse
        # point sees it, and it beats q = z by less than phi allows but by
        # more than n*h, so a bound without phi would skip it
        gen = ScalarGenerator.from_text(
            "sqrt(max(0,0.001-abs(z+0.305)))-sqrt(max(0,0.001-abs(z-0.305)))", 0.0,
            Modulus("power", c=2.0, alpha=0.5, growth_L=0.5))
        zs = np.linspace(0.296, 0.302, 20)
        _assert_row_bits(gen, 4.0, [(0.0, 0.0, 0.0, z) for z in np.r_[zs, -zs]], None)

    def test_tiny_radius_and_three_points(self):
        # r = 2L(1 + |y| + |z|)/(n - L) from 3e-9 to 2.1e-8, q = 0 in range
        # for the first two; a step of 4e-9 gives 3, 5 and 13 points
        row = [(0.2, 0.5, 0.0, 0.0), (0.2, 0.5, 1.0, 1e-10), (0.2, 0.5, -1.0, 5.0)]
        n = 1e9
        for step in (None, 4e-9):
            _assert_row_bits(XYZ, n, row, step)


class TestFalseModulus:
    """Exactness rests on the declared modulus; under a false one the
    pruned search may skip a dip, which only removes candidates."""

    # a dip at 0.3037 and a peak at -0.4021, each 5e-3 wide, declared
    # nearly flat
    SPIKES = ScalarGenerator.from_text(
        "max(0,1-400*abs(z+0.4021))-max(0,1-400*abs(z-0.3037))", 0.0,
        Modulus("power", c=0.01, alpha=1.0, growth_L=1.0),
    )

    def test_pruning_only_removes_candidates(self):
        gen, n = self.SPIKES, 4.0
        missed = 0
        for z in np.linspace(-1.0, 1.0, 81):
            lo = lower_envelope(gen, n, 0.0, 0.0, 0.0, z)
            up = upper_envelope(gen, n, 0.0, 0.0, 0.0, z)
            lo_full = _linspace_search(gen, n, 0.0, 0.0, 0.0, z, None, 1.0)
            up_full = _linspace_search(gen, n, 0.0, 0.0, 0.0, z, None, -1.0)
            assert lo >= lo_full and up <= up_full
            missed += (lo > lo_full) + (up < up_full)
        assert missed > 0  # the false modulus did make the search skip a spike


def _brute_lattice(eg):
    """The O(N^2) lattice envelope min_j f_j + n|z_i - z_j| (max for upper)."""
    lat = eg._lattice
    sign = 1.0 if eg.side == "lower" else -1.0
    f = sign * np.asarray(eg.gen.eval_grid(0.0, 0.0, 0.0, lat), dtype=float)
    out = np.empty_like(lat)
    for lo in range(0, lat.size, 256):
        zc = lat[lo : lo + 256, None]
        out[lo : lo + 256] = np.min(f[None, :] + eg.n * np.abs(zc - lat[None, :]), axis=1)
    return sign * out


class TestLatticeTransform:
    """The two-sweep build equals the brute-force inf/sup-convolution."""

    CASES = [pytest.param(gen, n, id=f"{name}-{n:g}")
             for name, gen, levels in (("POWER", POWER, (4.0, 8.0, 32.0)),
                                       ("SQRT", SQRT, (1.0, 4.0)))
             for n in levels]

    @pytest.mark.parametrize("reach", [16.0, 16384.0])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("gen, n", CASES)
    def test_matches_brute_force(self, gen, n, side, reach):
        # a lookup at |z| = 16384 doubles the first reach of 16 ten times
        eg = EnvelopeGenerator(gen, n, side)
        eg.eval_grid(0.0, 0.0, 0.0, reach)
        lat, got = eg._lattice, eg._values
        assert eg._z_max == reach and lat[-1] >= reach and np.all(np.diff(lat) > 0)
        want = _brute_lattice(eg)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
        # the envelope stays on its side of f at every lattice point
        f = gen.eval_grid(0.0, 0.0, 0.0, lat)
        slack = 1e-12 * (1.0 + np.abs(f))
        if side == "lower":
            assert np.all(got <= f + slack)
        else:
            assert np.all(got >= f - slack)


class TestScalarGenerator:
    def test_unknown_variable_rejected(self):
        # "w" cannot even be parsed; build the tree directly
        from gbsdelab.expr import Var
        with pytest.raises(ValueError):
            ScalarGenerator(Var("w"), 0.0, Modulus("linear", c=1.0))

    def test_growth_default_from_modulus(self):
        assert POWER.growth_L == 2.5

    def test_check_growth(self):
        rng = np.random.default_rng(0)
        assert POWER.check_growth(rng)
        liar = ScalarGenerator.from_text(
            "10*z", 0.0, Modulus("linear", c=10.0, growth_L=0.1), growth_L=0.1
        )
        assert not liar.check_growth(rng)
        # its modulus is refuted first, which must not hide its growth
        assert not ScalarGenerator.from_text("10*z", 0.0, Modulus(
            "linear", c=1.0, growth_L=0.1)).check_growth(np.random.default_rng(0))

    def test_phi0(self):
        gen = ScalarGenerator.from_text("x+abs(z)", 0.0, Modulus("linear", c=1.0))
        assert gen.phi0(0.0, 3.0) == 3.0
