"""Lipschitz regularization of uniformly continuous generators.

The raw inf-convolution  inf_q { f(t,x,y,q) + n|z-q| }  and its sup
counterpart turn a generator that is merely uniformly continuous in z
into an n-Lipschitz one, at a cost bounded by the modulus of continuity
evaluated at 2L/(n-L) (envelope_gap_bound).  EnvelopeGenerator evaluates
them by a lattice or by a certified grid search (_grid_search).
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .expr import EvalError, Expr, evaluate, free_vars, parse


@dataclass(frozen=True)
class Modulus:
    """Modulus of continuity: nondecreasing, subadditive, phi(0)=0.

    kind "power": phi(r) = c * r**alpha with 0 < alpha <= 1.
    kind "linear": phi(r) = c * r.
    kind "tabulated": monotone piecewise-linear interpolation of (rs, values).
    growth_L bounds both phi(r) <= L(1+r) and the generator's linear growth.
    """

    kind: str
    c: float = 1.0
    alpha: float = 1.0
    growth_L: float = 1.0
    rs: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("power", "linear", "tabulated"):
            raise ValueError(f"unknown modulus kind {self.kind!r}")
        if not (0.0 <= self.c < math.inf and math.isfinite(self.alpha)):
            raise ValueError(f"modulus needs a finite c >= 0 and a finite alpha, "
                             f"got c={self.c}, alpha={self.alpha}")
        if self.kind == "power" and not (0.0 < self.alpha <= 1.0):
            raise ValueError("power modulus needs 0 < alpha <= 1")
        if self.kind == "tabulated":
            rs = np.asarray(self.rs, dtype=float)
            vals = np.asarray(self.values, dtype=float)
            if rs.size < 2 or rs.size != vals.size:
                raise ValueError("tabulated modulus needs matching rs/values")
            if not (np.all(np.isfinite(rs)) and np.all(np.isfinite(vals))):
                raise ValueError("tabulated modulus needs finite rs/values")
            if rs[0] != 0.0 or vals[0] != 0.0:
                raise ValueError("tabulated modulus must start at (0, 0)")
            if np.any(np.diff(rs) <= 0) or np.any(np.diff(vals) < 0):
                raise ValueError("tabulated modulus must be nondecreasing")
        if not self.growth_L > 0:
            raise ValueError("growth_L must be positive")


def modulus_eval(m: Modulus, r):
    """phi(r); rejects negative r."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("modulus argument must be nonnegative")
    if m.kind == "power":
        out = m.c * r**m.alpha
    elif m.kind == "linear":
        out = m.c * r
    else:
        rs = np.asarray(m.rs, dtype=float)
        vals = np.asarray(m.values, dtype=float)
        # beyond the table, continue with the last slope
        slope = (vals[-1] - vals[-2]) / (rs[-1] - rs[-2])
        out = np.where(
            r <= rs[-1], np.interp(r, rs, vals), vals[-1] + slope * (r - rs[-1])
        )
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScalarGenerator:
    """Generator f(t,x,y,z): Lipschitz in y, modulus-continuous in z, as its
    user-declared lip_y, modulus_z and growth_L state (refute samples them)."""

    body: Expr
    lip_y: float
    modulus_z: Modulus
    growth_L: float = 0.0

    def __post_init__(self):
        if self.growth_L == 0.0:
            object.__setattr__(self, "growth_L", self.modulus_z.growth_L)
        extra = free_vars(self.body) - {"t", "x", "y", "z"}
        if extra:
            raise ValueError(f"generator references unknown variables {sorted(extra)}")

    @staticmethod
    def from_text(body, lip_y, modulus_z, growth_L=0.0):
        return ScalarGenerator(parse(body), lip_y, modulus_z, growth_L)

    def eval_grid(self, t, x, y, z, zabs=None):
        """f at the broadcast points; zabs, max|z| over them when the caller
        has it, is for EnvelopeGenerator.eval_grid and unused here."""
        return evaluate(self.body, {"t": t, "x": x, "y": y, "z": z})

    @property
    def lip_z(self):
        """z-Lipschitz constant known by construction: 0 for a body free of
        z, c for a linear modulus, None otherwise (the modulus alone gives
        no Lipschitz constant)."""
        if "z" not in free_vars(self.body):
            return 0.0
        if self.modulus_z.kind == "linear":
            return float(self.modulus_z.c)
        return None

    def refute(self, rng, T=1.0, reach=8.0):
        """A sampled counterexample to the declarations, or None.

        At 256 samples of t in [0, T], x in [-reach, reach] and y, y2, z,
        z2 in [-8, 8] it tests, in this order, |f(y, z) - f(y, z2)| <=
        phi(|z - z2|) (modulus_z), |f(y, z) - f(y2, z)| <= lip_y |y - y2|
        (lip_y) and |f(y, z)| <= growth_L (1 + |y| + |z|) + |f(0, 0)|
        (growth_L), each with a rounding slack of 1e-9 of the values
        compared: -0.5*y meets lip_y 0.5 with equality.  Returns
        (declaration, point, left, right) at the first sample that breaks
        one.  Only a sample where f is defined at all four points, and
        finite at those compared, can.
        """
        n, span = 256, 8.0
        t = T * rng.uniform(0.0, 1.0, n)
        x, y, z, y2, z2 = rng.uniform(-span, span, (5, n))
        x = x * (reach / span)  # the same bits when reach is span
        zero = np.zeros(n)
        ys, zs = np.stack((y, y, y2, zero)), np.stack((z, z2, z, zero))
        f = np.full((4, n), np.nan)  # f at (y, z), (y, z2), (y2, z), (0, 0)
        with np.errstate(all="ignore"):
            try:
                f[:] = self.eval_grid(t, x, ys, zs)
            except EvalError:  # each sample alone; NaN where f is undefined
                for i in range(n):
                    with suppress(EvalError):
                        f[:, i] = self.eval_grid(t[i], x[i], ys[:, i], zs[:, i])
            fv, fz, fy, f0 = f
            tests = (
                ("modulus_z", np.abs(fv - fz),
                 modulus_eval(self.modulus_z, np.abs(z - z2)), fz, {"z2": z2}),
                ("lip_y", np.abs(fv - fy), self.lip_y * np.abs(y - y2), fy, {"y2": y2}),
                ("growth_L", np.abs(fv), self.growth_L * (1.0 + np.abs(y) + np.abs(z))
                 + np.abs(f0), f0, {}))
        for name, left, right, other, more in tests:
            bad = left > right + 1e-9 * (right + np.abs(fv) + np.abs(other))
            if bad.any():
                i = int(np.argmax(bad))
                at = dict(t=t, x=x, y=y, z=z, **more)
                point = {k: float(v[i]) for k, v in at.items()}
                return name, point, float(left[i]), float(right[i])
        return None


ZERO_GENERATOR = ScalarGenerator(parse("0"), 0.0, Modulus("linear", c=1.0, growth_L=1.0))


def search_radius(L: float, n: float, y, z):
    """Certified localization radius 2L(1+|y|+|z|)/(n-L) for the minimizer.

    Any q beating the candidate q=z in f(t,x,y,q)+n|z-q| must satisfy
    n|q-z| <= f(z)-f(q) <= 2L(1+|y|+|z|) + L|q-z|, hence the bound.
    """
    if n <= L:
        raise ValueError(f"envelope level n={n} must exceed the growth constant L={L}")
    return 2.0 * L * (1.0 + np.abs(y) + np.abs(z)) / (n - L)


_COARSE = 256  # coarse cells per point
_CHUNK = 1 << 15  # most fine q-points handed to the generator in one call
_SLACK = 1e-9  # rounding allowance of the pruning test, relative to |f| and n|z-q|


def _grid_search(gen: ScalarGenerator, n, t, x, y, z, step, sign):
    """sign * grid minimum of q -> sign*f(t,x,y,q) + n|z-q| over the
    certified interval, at every point of the broadcast t, x, y, z; sign
    -1 gives the upper envelope exactly, since negation is exact.

    Each point's grid is np.linspace(z - r, z + r, npts) bit for bit, plus
    q = 0 when |z| <= r (0 often hosts the kink of |z|-type generators).
    A coarse pass evaluates _COARSE + 1 of its points.  Inside a cell every
    point lies within h of an end, where f moves by at most phi(h), so a
    cell whose ends both exceed the best value so far by more than
    phi(h) + n*h cannot hold the grid minimum (Piyavskii 1972, Shubert
    1972); only the other cells are scanned, in chunks of _CHUNK points.
    This and lower_envelope's bound rest on the declared modulus: where f
    moves by more than phi between two grid points, a skipped dip leaves a
    value above the full scan's grid minimum, never below.
    """
    t, x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (t, x, y, z)))
    shape = z.shape
    t, x, y, z = (v.ravel() for v in (t, x, y, z))
    _finite_abs_max(y, "y")
    _finite_abs_max(z)
    radius = search_radius(gen.growth_L, n, y, z)
    if step is None:
        step = np.minimum(1e-3, radius / 1000.0)
    if np.any(step <= 0):
        raise ValueError("step must be positive")
    npts = np.ceil(2.0 * radius / step).astype(np.int64) + 1
    npts |= 1  # an even count takes one more point, so z stays the midpoint
    last = npts - 1
    start, stop = z - radius, z + radius
    delta = stop - start
    spacing = delta / last
    tiny = spacing == 0

    def at(k, p):
        """np.linspace(start, stop, npts)[k] of the points p, for k < last."""
        q = k * spacing[p]
        if tiny.any():  # a denormal radius: np.linspace divides first
            q = np.where(tiny[p], k / last[p] * delta[p], q)
        q += start[p]
        return q

    def scan(p, q):
        return sign * gen.eval_grid(t[p], x[p], y[p], q) + n * np.abs(z[p] - q)

    # coarse pass: columns 0.._COARSE are grid indices, the last one q = 0
    col = (slice(None), None)
    cols = np.minimum(np.arange(_COARSE + 2) * -(-last[col] // _COARSE), last[col])
    qc = np.where(cols == last[col], stop[col], at(cols, col))
    qc[:, -1] = np.where(np.abs(z) <= radius, 0.0, start)
    vc = scan(col, qc)
    best = vc.min(axis=1)
    # h: half the widest cell plus 4 ulps of q; the slack: rounding of values
    h = 0.5 * (qc[:, 1:-1] - qc[:, :-2]).max(axis=1, initial=0.0)
    h += 4.0 * np.spacing(np.abs(z) + radius)
    reach = modulus_eval(gen.modulus_z, h) + n * h
    reach += _SLACK * (1.0 + np.abs(best) + n * radius + reach)
    inner = cols[:, 1:-1] - cols[:, :-2] - 1
    keep = (inner > 0) & (np.minimum(vc[:, :-2], vc[:, 1:-1]) - reach[col] <= best[col])
    # fine pass over the interiors of the kept cells
    pt, cell = np.nonzero(keep)
    first, count = cols[pt, cell] + 1, inner[pt, cell]
    ends = np.cumsum(count)
    cuts = np.flatnonzero(np.diff(ends // _CHUNK)) + 1
    for c in np.split(np.arange(pt.size), cuts) if pt.size else ():
        m = count[c]
        offsets = np.cumsum(m) - m
        p = np.repeat(pt[c], m)
        k = np.arange(offsets[-1] + m[-1]) + np.repeat(first[c] - offsets, m)
        np.minimum.at(best, pt[c], np.minimum.reduceat(scan(p, at(k, p)), offsets))
    out = (sign * best).reshape(shape)
    return float(out[()]) if out.ndim == 0 else out


def lower_envelope(gen: ScalarGenerator, n, t, x, y, z, step=None):
    """Grid minimum of q -> f(t,x,y,q) + n|z-q| over the certified interval,
    at every point of the broadcast t, x, y, z (a float for scalars): the
    true infimum plus at most phi(step) + n*step (see _grid_search)."""
    return _grid_search(gen, n, t, x, y, z, step, 1.0)


def upper_envelope(gen: ScalarGenerator, n, t, x, y, z, step=None):
    """Grid maximum of q -> f(t,x,y,q) - n|z-q|; mirror of lower_envelope."""
    return _grid_search(gen, n, t, x, y, z, step, -1.0)


def envelope_grid_error(gen: ScalarGenerator, n, step) -> float:
    """Worst-case gap between the grid extremum and the true envelope."""
    return float(modulus_eval(gen.modulus_z, step) + n * step)


def envelope_gap_bound(gen: ScalarGenerator, L: float, n: float) -> float:
    """Pointwise bound phi(2L/(n-L)) for gen minus its envelope; 0 if z-free."""
    if "z" not in free_vars(gen.body):
        return 0.0
    if n <= L:
        raise ValueError(f"envelope level n={n} must exceed L={L}")
    return float(modulus_eval(gen.modulus_z, 2.0 * L / (n - L)))


def _finite(vabs, name="z") -> float:
    """vabs, a max |v| over points, as a float; raises ValueError when it
    is not finite, before any lattice or search is built from it."""
    vabs = float(vabs)
    if not math.isfinite(vabs):
        raise ValueError(f"envelope evaluated at non-finite {name} ({vabs})")
    return vabs


def _finite_abs_max(v, name="z") -> float:
    """max |v| over the points (0 for none), checked by _finite."""
    return _finite(np.max(np.abs(v)) if np.size(v) else 0.0, name)


def _check_level(gen: ScalarGenerator, n: float, side: str):
    """Raise unless side is 'lower' or 'upper' and the level n is finite
    and exceeds gen's growth constant; a body free of z, which the
    convolution leaves untouched, needs only n >= 0."""
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    if not math.isfinite(n):
        raise ValueError(f"envelope level n must be finite, got {n}")
    if "z" not in free_vars(gen.body):
        if n < 0.0:
            raise ValueError(f"envelope level n={n} of a z-free body must be nonnegative")
    elif n <= gen.growth_L:
        raise ValueError(f"envelope level n={n} must exceed the growth constant "
                         f"L={gen.growth_L}")


def envelope_of(gen: ScalarGenerator, n: float, side: str):
    """gen's level-n side-envelope as the PDE step evaluates it: gen itself
    where its lip_z is known and at most n (an n-Lipschitz generator is
    its own inf- and sup-convolution), its EnvelopeGenerator otherwise.
    n and side are checked on both branches."""
    if gen.lip_z is not None and gen.lip_z <= n:
        _check_level(gen, n, side)
        return gen
    return EnvelopeGenerator(gen, n, side)


class EnvelopeGenerator:
    """Lipschitz envelope of a generator at level n (envelope_of), in one of
    two evaluation modes, chosen automatically:
      * lattice - the body depends on z only; values are precomputed on a
        symmetric log-spaced z-lattice as the exact inf-convolution over the
        lattice points and linearly interpolated (error <= n * local
        spacing).  On the sorted lattice that inf-convolution is the L1
        distance transform of the samples, built in O(N) by one forward and
        one backward prefix-minimum sweep (Felzenszwalb & Huttenlocher,
        Distance Transforms of Sampled Functions, ToC 2012).
      * direct - any body with t, x or y in it; one _grid_search per call,
        over all its points: about 400 generator values per point on the
        benchmark's xyz generator, against one interpolation per point
        for a lattice lookup.
    point_cost, a floor on the generator values a point costs (the coarse
    pass of a search, 0 for a lookup), weighs rows in pde.solve_stack.
    """

    _Z_RES = 1e-8  # innermost lattice resolution, resolves kinks near z=0
    _RATIO = 1.005  # relative lattice spacing away from zero
    _Z_MAX = 16.0  # first lattice reach, doubled until it covers |z|

    def __init__(self, gen: ScalarGenerator, n: float, side: str):
        _check_level(gen, n, side)
        self.gen = gen
        self.n = self.lip_z = float(n)
        self.side = side
        self.lip_y = gen.lip_y
        self.mode = "lattice" if free_vars(gen.body) <= {"z"} else "direct"
        self.point_cost = 0 if self.mode == "lattice" else _COARSE + 2
        self.reset()

    def reset(self):
        """Drop the lattice; the next lookup builds it afresh from _Z_MAX."""
        self._lattice = self._values = None
        self._z_max = self._Z_MAX

    # -- lattice construction ------------------------------------------------

    def _build_lattice(self):
        pos = [self._Z_RES]
        while pos[-1] < self._z_max:
            pos.append(pos[-1] * self._RATIO)
        pos = np.asarray(pos)
        lattice = np.concatenate([-pos[::-1], [0.0], pos])
        f_lat = np.asarray(
            self.gen.eval_grid(0.0, 0.0, 0.0, lattice), dtype=float
        )
        # upper = -lower envelope of -f; the lower one is the L1 distance
        # transform min_j f_j + n|z_i - z_j|, split at j = i into two sweeps
        sign = 1.0 if self.side == "lower" else -1.0
        g = sign * f_lat
        nz = self.n * lattice
        left = nz + np.minimum.accumulate(g - nz)
        right = -nz + np.minimum.accumulate((g + nz)[::-1])[::-1]
        values = sign * np.minimum(left, right)
        self._lattice = lattice
        self._values = values

    def _ensure_range(self, zabs):
        """Build the lattice, doubling z_max until it covers zabs = max|z|."""
        if self._lattice is None or zabs > self._z_max:
            while zabs > self._z_max:
                self._z_max *= 2.0
            self._build_lattice()

    # -- evaluation ----------------------------------------------------------

    def eval_grid(self, t, x, y, z, zabs=None):
        """The envelope at the broadcast points.  zabs, when given, is
        max|z| over them; a lattice then checks it instead of reducing z."""
        if self.mode == "lattice":
            z = np.asarray(z, dtype=float)
            self._ensure_range(_finite_abs_max(z) if zabs is None else _finite(zabs))
            out = np.interp(z, self._lattice, self._values)
            return float(out) if out.ndim == 0 else out
        # the direct search goes through the module names, so wrappers see it
        env = lower_envelope if self.side == "lower" else upper_envelope
        return env(self.gen, self.n, t, x, y, z)

    def interp_error_bound(self, z) -> float:
        """Bound on the lattice interpolation error near |z| (0 in direct
        mode); n * _Z_RES, the innermost bound, for no points."""
        if self.mode != "lattice" or self._lattice is None:
            return 0.0
        spacing = max(self._Z_RES, _finite_abs_max(z) * (self._RATIO - 1.0))
        return self.n * spacing
