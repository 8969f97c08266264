"""Built-in benchmark problems with closed-form optimal solutions.

Each problem prescribes its geometry, its coefficients, the exact state y
and the pre-clamp control z = -p/a per subdomain, with hand-coded
gradients and Laplacians (products of elementary factors, so every
derivative is spelled out explicitly and cross-checked by finite
differences in the test suite).  ``ManufacturedProblem`` derives the rest
of the optimal triple and the data that make it optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .assembly import RefineSpec
from .interface_geometry import ElementClass, LevelSet, circle_interface, line_interface
from .mesh import ConfigurationError

__all__ = ["PiecewiseField", "ManufacturedProblem", "build_example",
           "flux_jump"]


class PiecewiseField:
    """A pair of per-subdomain closures (scalar- or vector-valued)."""

    def __init__(self, f1, f2):
        self._f = (f1, f2)

    def side(self, m):
        return self._f[m - 1]


def flux_jump(grad_field, levelset, alpha1, alpha2):
    """[alpha dn v] = alpha1 dn v1 - alpha2 dn v2 with the normal pointing
    out of subdomain 1 (the level-set gradient direction)."""

    def g(x, y):
        gx1, gy1 = grad_field.side(1)(x, y)
        gx2, gy2 = grad_field.side(2)(x, y)
        px, py = levelset.grad(x, y)
        norm = np.sqrt(px ** 2 + py ** 2)
        nx, ny = px / norm, py / norm
        return alpha1 * (gx1 * nx + gy1 * ny) - alpha2 * (gx2 * nx + gy2 * ny)

    return g


class _per_side:
    """A derived field: the method ``rule(problem, m, x, y)`` read as the
    PiecewiseField whose side-m closure is ``rule(problem, m, ., .)``."""

    def __init__(self, rule):
        self.rule = rule
        self.__doc__ = rule.__doc__

    def __get__(self, problem, owner=None):
        if problem is None:
            return self
        return PiecewiseField(partial(self.rule, problem, 1),
                              partial(self.rule, problem, 2))

    def __set__(self, problem, value):
        # read-only: a stored field would not follow a or the box
        raise AttributeError(f"{self.rule.__name__} is derived")


@dataclass
class ManufacturedProblem:
    """Benchmark data: geometry, coefficients, the exact state y and the
    pre-clamp control z = -p/a.  The rest of the exact optimal triple and
    the source, target and interface flux data are derived from the
    current ``a`` and ``bounds``, so an override of either still describes
    an optimum (Hinze's projection u = clamp(-p/a))."""

    name: str
    domain: tuple
    levelset: LevelSet
    alpha1: float
    alpha2: float
    a: float
    lambda_coef: float            # penalty scale: lambda = lambda_coef / h
    bounds: tuple | None
    y: PiecewiseField
    grad_y: PiecewiseField
    lap_y: PiecewiseField
    z: PiecewiseField             # the pre-clamp control -p/a
    grad_z: PiecewiseField
    lap_z: PiecewiseField
    relative_errors: bool

    def _alpha(self, m):
        return self.alpha1 if m == 1 else self.alpha2

    @_per_side
    def u(self, m, x, y):
        """u = clamp(z)."""
        z = self.z.side(m)(x, y)
        return z if self.bounds is None else np.clip(z, *self.bounds)

    @_per_side
    def grad_u(self, m, x, y):
        """grad z off the active set, zero on it."""
        gx, gy = self.grad_z.side(m)(x, y)
        if self.bounds is None:
            return gx, gy
        z = self.z.side(m)(x, y)
        free = (z > self.bounds[0]) & (z < self.bounds[1])
        return np.where(free, gx, 0.0), np.where(free, gy, 0.0)

    @_per_side
    def p(self, m, x, y):
        """p = -a z."""
        return -self.a * self.z.side(m)(x, y)

    @_per_side
    def grad_p(self, m, x, y):
        gx, gy = self.grad_z.side(m)(x, y)
        return -self.a * gx, -self.a * gy

    @_per_side
    def f(self, m, x, y):
        """f = -alpha lap(y) - u."""
        return -self._alpha(m) * self.lap_y.side(m)(x, y) - self.u.side(m)(x, y)

    @_per_side
    def y_d(self, m, x, y):
        """y_d = y + alpha lap(p) = y - a alpha lap(z)."""
        return self.y.side(m)(x, y) \
            - self.a * self._alpha(m) * self.lap_z.side(m)(x, y)

    @property
    def g(self):
        """The state's interface flux jump [alpha dn y]."""
        return flux_jump(self.grad_y, self.levelset, self.alpha1, self.alpha2)

    @property
    def g_adj(self):
        """The co-state's interface flux jump [alpha dn p]."""
        return flux_jump(self.grad_p, self.levelset, self.alpha1, self.alpha2)

    def clamp_status(self, z):
        """-1 / 0 / +1 for below-box / inside / above-box values."""
        if self.bounds is None:
            return np.zeros_like(np.asarray(z))
        lo, hi = self.bounds
        return np.where(z <= lo, -1, np.where(z >= hi, 1, 0))

    def load_refine(self, mesh, cut_info):
        """Adaptive-quadrature spec for loads whose integrand kinks along
        the exact active-set boundary (box-constrained problems only)."""
        if self.bounds is None:
            return None

        def status_side(side, x, y):
            return self.clamp_status(self.z.side(side)(x, y))

        # the status once per vertex (not at 3T points), gathered per element
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        mask = np.zeros(mesh.num_triangles, dtype=bool)
        for side, other in ((1, ElementClass.INTERIOR_2),
                            (2, ElementClass.INTERIOR_1)):
            st = status_side(side, x, y)[mesh.triangles]
            mask |= (st.max(axis=1) != st.min(axis=1)) \
                & (cut_info.classes != int(other))

        def pred(tc, side):
            # vertices, edge midpoints and centroid of each (C, 3, 2) triangle
            pts = np.concatenate([tc, 0.5 * (tc + np.roll(tc, 1, axis=1)),
                                  tc.mean(axis=1, keepdims=True)], axis=1)
            st = status_side(side, pts[..., 0], pts[..., 1])
            return st.max(axis=1) != st.min(axis=1)

        return RefineSpec(mask=mask, pred=pred)


# ---------------------------------------------------------------------------
# example 1: straight interface, strong coefficient contrast, no bounds
# ---------------------------------------------------------------------------

def _example_line():
    k = -np.sqrt(3.0) / 3.0
    b = (6.0 + np.sqrt(6.0) - 2.0 * np.sqrt(3.0)) / 6.0
    alpha1, alpha2 = 1.0, 100.0
    gl2 = k * k + 1.0                       # |grad ell|^2

    ell = lambda x, y: y - k * x - b

    def q(x, y):
        return (x * x - x) * (y * y - y) * np.sin(x * y)

    def q_grad(x, y):
        A, B, S = x * x - x, y * y - y, np.sin(x * y)
        C = np.cos(x * y)
        return ((2 * x - 1) * B * S + A * B * y * C,
                A * (2 * y - 1) * S + A * B * x * C)

    def q_lap(x, y):
        A, B, S = x * x - x, y * y - y, np.sin(x * y)
        C = np.cos(x * y)
        qxx = 2 * B * S + 2 * (2 * x - 1) * B * y * C - A * B * y * y * S
        qyy = 2 * A * S + 2 * A * (2 * y - 1) * x * C - A * B * x * x * S
        return qxx + qyy

    # z = c * ell * q with c = 1 in subdomain 1 and c = 100 in subdomain 2
    def z_side(c):
        return lambda x, y: c * ell(x, y) * q(x, y)

    def grad_z_side(c):
        def grad(x, y):
            qx, qy = q_grad(x, y)
            qq, ee = q(x, y), ell(x, y)
            return (c * (-k * qq + ee * qx), c * (qq + ee * qy))
        return grad

    def lap_z_side(c):
        def lap(x, y):
            qx, qy = q_grad(x, y)
            return c * (2.0 * (-k * qx + qy) + ell(x, y) * q_lap(x, y))
        return lap

    # w = ell * cos(xy); y1 = w/200 + ell^3, y2 = w/2
    def w_grad(x, y):
        C, S, ee = np.cos(x * y), np.sin(x * y), ell(x, y)
        return (-k * C + ee * (-y * S), C + ee * (-x * S))

    def w_lap(x, y):
        C, S, ee = np.cos(x * y), np.sin(x * y), ell(x, y)
        return 2.0 * (-k * (-y * S) + (-x * S)) + ee * (-(y * y + x * x) * C)

    def y1(x, y):
        ee = ell(x, y)
        # products: numpy's ee ** 3 takes a slow pow path on negative bases
        return ee * np.cos(x * y) / 200.0 + ee * ee * ee

    y2 = lambda x, y: ell(x, y) * np.cos(x * y) / 2.0

    def grad_y1(x, y):
        wx, wy = w_grad(x, y)
        s = 3.0 * ell(x, y) ** 2
        return (wx / 200.0 + s * (-k), wy / 200.0 + s)

    def grad_y2(x, y):
        wx, wy = w_grad(x, y)
        return (wx / 2.0, wy / 2.0)

    lap_y1 = lambda x, y: w_lap(x, y) / 200.0 + 6.0 * ell(x, y) * gl2
    lap_y2 = lambda x, y: w_lap(x, y) / 2.0

    both = lambda make: PiecewiseField(make(1.0), make(100.0))
    return ManufacturedProblem(
        name="example1", domain=(0.0, 1.0, 0.0, 1.0),
        levelset=line_interface(k, b), alpha1=alpha1, alpha2=alpha2, a=0.01,
        lambda_coef=1000.0, bounds=None, y=PiecewiseField(y1, y2),
        grad_y=PiecewiseField(grad_y1, grad_y2),
        lap_y=PiecewiseField(lap_y1, lap_y2), z=both(z_side),
        grad_z=both(grad_z_side), lap_z=both(lap_z_side),
        relative_errors=True)


# ---------------------------------------------------------------------------
# examples 2 and 3: circular interface about the origin in [-1, 1]^2
# ---------------------------------------------------------------------------

def _example_circle(name, r, alpha2, a, lambda_coef, bounds, sine,
                    relative_errors):
    """alpha1 = 1.  The state is y = rho^3/alpha per side plus the constant
    outside that makes it continuous across the circle, and, with
    ``sine``, minus 10 (rho^2 - r^2) sin(xy) inside.  The pre-clamp
    control is z = 5 W/alpha with the quartic bubble
    W = (rho^2 - r^2)(x^2 - 1)(y^2 - 1)."""
    alpha1 = 1.0
    r2 = r * r
    shift = (1.0 / alpha1 - 1.0 / alpha2) * r ** 3

    def y_side(al, c):
        return lambda x, y: (x * x + y * y) ** 1.5 / al + c

    def grad_y_side(al):
        def grad(x, y):
            s = 3.0 * np.sqrt(x * x + y * y) / al
            return (s * x, s * y)
        return grad

    def lap_y_side(al):
        return lambda x, y: 9.0 * np.sqrt(x * x + y * y) / al

    ys = [y_side(alpha1, 0.0), y_side(alpha2, shift)]
    grads = [grad_y_side(alpha1), grad_y_side(alpha2)]
    laps = [lap_y_side(alpha1), lap_y_side(alpha2)]
    if sine:
        y1r, grad_y1r, lap_y1r = ys[0], grads[0], laps[0]

        def y1(x, y):
            G = x * x + y * y - r2
            return y1r(x, y) - 10.0 * G * np.sin(x * y)

        def grad_y1(x, y):
            gx, gy = grad_y1r(x, y)
            G = x * x + y * y - r2
            S, C = np.sin(x * y), np.cos(x * y)
            return (gx - 10.0 * (2.0 * x * S + G * y * C),
                    gy - 10.0 * (2.0 * y * S + G * x * C))

        def lap_y1(x, y):
            G = x * x + y * y - r2
            S, C = np.sin(x * y), np.cos(x * y)
            return lap_y1r(x, y) - 10.0 * (4.0 * S + 8.0 * x * y * C
                                           - G * (x * x + y * y) * S)

        ys[0], grads[0], laps[0] = y1, grad_y1, lap_y1

    def W(x, y):
        return (x * x + y * y - r2) * (x * x - 1.0) * (y * y - 1.0)

    def W_grad(x, y):
        G = x * x + y * y - r2
        E, F = x * x - 1.0, y * y - 1.0
        return (2.0 * x * F * (E + G), 2.0 * y * E * (F + G))

    def W_lap(x, y):
        G = x * x + y * y - r2
        E, F = x * x - 1.0, y * y - 1.0
        return (2.0 * F * (E + G) + 8.0 * x * x * F
                + 2.0 * E * (F + G) + 8.0 * y * y * E)

    def z_side(al):
        return lambda x, y: 5.0 * W(x, y) / al

    def grad_z_side(al):
        def grad(x, y):
            wx, wy = W_grad(x, y)
            return (5.0 * wx / al, 5.0 * wy / al)
        return grad

    def lap_z_side(al):
        return lambda x, y: 5.0 * W_lap(x, y) / al

    both = lambda make: PiecewiseField(make(alpha1), make(alpha2))
    return ManufacturedProblem(
        name=name, domain=(-1.0, 1.0, -1.0, 1.0), levelset=circle_interface(r),
        alpha1=alpha1, alpha2=alpha2, a=a, lambda_coef=lambda_coef,
        bounds=bounds, y=PiecewiseField(*ys), grad_y=PiecewiseField(*grads),
        lap_y=PiecewiseField(*laps), z=both(z_side), grad_z=both(grad_z_side),
        lap_z=both(lap_z_side), relative_errors=relative_errors)


def build_example(example_id):
    """One of the three built-in benchmark problems."""
    builders = {
        1: _example_line,
        2: partial(_example_circle, "example2", r=np.sqrt(3.0) / 4.0,
                   alpha2=1000.0, a=1.0, lambda_coef=5000.0,
                   bounds=(-0.5, 0.5), sine=True, relative_errors=True),
        3: partial(_example_circle, "example3", r=0.5, alpha2=10.0, a=0.01,
                   lambda_coef=10000.0, bounds=None, sine=False,
                   relative_errors=False),
    }
    try:
        return builders[int(example_id)]()
    except (KeyError, TypeError, ValueError):
        raise ConfigurationError(f"unknown example id {example_id!r}") from None
