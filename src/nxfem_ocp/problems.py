"""Built-in benchmark problems with closed-form optimal solutions.

Each problem prescribes its geometry, its coefficients and one jet per
subdomain: a function of points that returns the exact state y and the
pre-clamp control z = -p/a with their gradients, and their Laplacians when
asked (a ``Jet``).  A jet computes each factor its quantities share once
per point (example 1's sin(xy), cos(xy), the line's offset and the
polynomial factors; the circles' rho and bubble factors), so a pass that
needs several fields evaluates it once.  The derivatives are spelled out
by hand and cross-checked by finite differences in the test suite.
``ManufacturedProblem`` derives the rest of the optimal triple and the
data that make it optimal; every field is a ``PiecewiseField`` view that
reads its values off the jet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .interface_geometry import (LevelSet, box_status, circle_interface,
                                 line_interface)
from .mesh import ConfigurationError

__all__ = ["Jet", "PiecewiseField", "ManufacturedProblem", "build_example",
           "flux_jump"]


class Jet(NamedTuple):
    """One side's exact data at points: the state y and the pre-clamp
    control z, their gradients as (x, y) pairs, and their Laplacians
    (None unless asked)."""

    y: np.ndarray
    grad_y: tuple
    z: np.ndarray
    grad_z: tuple
    lap_y: np.ndarray | None = None
    lap_z: np.ndarray | None = None


class PiecewiseField:
    """A pair of per-subdomain closures (scalar- or vector-valued).  A view
    of a problem's jets also reads its values off side m's jet j evaluated
    already, as ``read(m, j)``; its ``jet`` is the PiecewiseField of the
    jets (None for a plain field)."""

    jet = None

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


class _view:
    """A field of the problem: ``rule(problem, m, j)`` reads it off side
    m's jet j, and the attribute is the PiecewiseField view whose side-m
    closure evaluates that jet (with Laplacians where ``lap``) and reads
    it."""

    def __init__(self, rule, lap=False):
        self.rule, self.lap = rule, lap
        self.__doc__ = rule.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, problem, owner=None):
        if problem is None:
            return self
        jet, read = problem.jet, partial(self.rule, problem)
        field = PiecewiseField(
            *(lambda x, y, m=m: read(m, jet.side(m)(x, y, self.lap))
              for m in (1, 2)))
        field.jet, field.read = jet, read
        return field

    def __set__(self, problem, value):
        # read-only: a stored field would not follow the jet, a or the box
        raise AttributeError(f"{self.name} is derived")


@dataclass
class ManufacturedProblem:
    """Benchmark data: geometry, coefficients and the jets of the exact
    state y and the pre-clamp control z = -p/a (``jet.side(m)(x, y,
    lap=False)`` gives a ``Jet``).  The rest of the exact optimal triple
    and the source, target and interface flux data are derived from the
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
    jet: PiecewiseField
    relative_errors: bool

    def _alpha(self, m):
        return self.alpha1 if m == 1 else self.alpha2

    y = _view(lambda self, m, j: j.y)
    grad_y = _view(lambda self, m, j: j.grad_y)
    z = _view(lambda self, m, j: j.z)

    @_view
    def u(self, m, j):
        """u = clamp(z)."""
        return j.z if self.bounds is None else np.clip(j.z, *self.bounds)

    @_view
    def grad_u(self, m, j):
        """grad z off the active set, zero on it."""
        if self.bounds is None:
            return j.grad_z
        free = box_status(j.z, *self.bounds) == 0
        return tuple(np.where(free, g, 0.0) for g in j.grad_z)

    @_view
    def p(self, m, j):
        """p = -a z."""
        return -self.a * j.z

    @_view
    def grad_p(self, m, j):
        return tuple(-self.a * g for g in j.grad_z)

    @partial(_view, lap=True)
    def f(self, m, j):
        """f = -alpha lap(y) - u."""
        return -self._alpha(m) * j.lap_y - self.u.read(m, j)

    @partial(_view, lap=True)
    def y_d(self, m, j):
        """y_d = y + alpha lap(p) = y - a alpha lap(z)."""
        return j.y - self.a * self._alpha(m) * j.lap_z

    @property
    def g(self):
        """The state's interface flux jump [alpha dn y]."""
        return flux_jump(self.grad_y, self.levelset, self.alpha1, self.alpha2)

    @property
    def g_adj(self):
        """The co-state's interface flux jump [alpha dn p]."""
        return flux_jump(self.grad_p, self.levelset, self.alpha1, self.alpha2)

    def kink_rule(self, mesh):
        """The one predicate of the cells that the kink of clamp(z) crosses
        (None without bounds): ``split(cells, side)`` flags the cells of a
        CellTable of one side where the status of z (below, inside or above
        the box) differs among a cell's vertices, edge midpoints and
        centroid.  Only the cells of elements whose own vertices see the
        status change are sampled."""
        if self.bounds is None:
            return None

        def status(side, pts):
            return box_status(self.z.side(side)(pts[..., 0], pts[..., 1]),
                              *self.bounds)

        # the status once per vertex (not at 3T points), gathered per element
        changes = {side: np.ptp(status(side, mesh.vertices)[mesh.triangles],
                                axis=1) > 0 for side in (1, 2)}

        def split(cells, side):
            flags = changes[side][cells.parent]
            tc = cells.coords[flags]
            pts = np.concatenate([tc, 0.5 * (tc + np.roll(tc, 1, axis=1)),
                                  tc.mean(axis=1, keepdims=True)], axis=1)
            flags[flags] = np.ptp(status(side, pts), axis=1) > 0
            return flags

        return split


# ---------------------------------------------------------------------------
# example 1: straight interface, strong coefficient contrast, no bounds
# ---------------------------------------------------------------------------

def _example_line():
    """z = c ell q per side, c = 1 in subdomain 1 and 100 in subdomain 2,
    with the line's offset ell = y - kx - b and q = (x^2 - x)(y^2 - y)
    sin(xy); y = w/200 + ell^3 in subdomain 1 and w/2 in subdomain 2, with
    w = ell cos(xy)."""
    k = -np.sqrt(3.0) / 3.0
    b = (6.0 + np.sqrt(6.0) - 2.0 * np.sqrt(3.0)) / 6.0
    gl2 = k * k + 1.0                       # |grad ell|^2

    def jet(c, d, cubic, x, y, lap=False):
        S, C = np.sin(x * y), np.cos(x * y)
        A, B, ee = x * x - x, y * y - y, y - k * x - b
        q = A * B * S
        qx = (2 * x - 1) * B * S + A * B * y * C
        qy = A * (2 * y - 1) * S + A * B * x * C
        wx, wy = -k * C + ee * (-y * S), C + ee * (-x * S)
        yv, gy = ee * C / d, (wx / d, wy / d)
        if cubic:
            # products: numpy's ee ** 3 takes a slow pow path on negative bases
            s = 3.0 * ee ** 2
            yv, gy = yv + ee * ee * ee, (gy[0] + s * (-k), gy[1] + s)
        z, gz = c * ee * q, (c * (-k * q + ee * qx), c * (q + ee * qy))
        if not lap:
            return Jet(yv, gy, z, gz)
        qxx = 2 * B * S + 2 * (2 * x - 1) * B * y * C - A * B * y * y * S
        qyy = 2 * A * S + 2 * A * (2 * y - 1) * x * C - A * B * x * x * S
        w_lap = 2.0 * (-k * (-y * S) + (-x * S)) \
            + ee * (-(y * y + x * x) * C)
        ly = w_lap / d + 6.0 * ee * gl2 if cubic else w_lap / d
        return Jet(yv, gy, z, gz, ly,
                   c * (2.0 * (-k * qx + qy) + ee * (qxx + qyy)))

    return ManufacturedProblem(
        name="example1", domain=(0.0, 1.0, 0.0, 1.0),
        levelset=line_interface(k, b), alpha1=1.0, alpha2=100.0, a=0.01,
        lambda_coef=1000.0, bounds=None,
        jet=PiecewiseField(partial(jet, 1.0, 200.0, True),
                           partial(jet, 100.0, 2.0, False)),
        relative_errors=True)


# ---------------------------------------------------------------------------
# examples 2 and 3: circular interface about the origin in [-1, 1]^2
# ---------------------------------------------------------------------------

def _example_circle(name, r, alpha2, a, lambda_coef, bounds, sine,
                    relative_errors):
    """alpha1 = 1.  The state is y = rho^3/alpha per side plus the constant
    outside that makes it continuous across the circle, and, with
    ``sine``, minus 10 G sin(xy) inside, G = rho^2 - r^2.  The pre-clamp
    control is z = 5 W/alpha with the quartic bubble W = G E F,
    E = x^2 - 1, F = y^2 - 1."""
    alpha1 = 1.0
    r2 = r * r
    shift = (1.0 / alpha1 - 1.0 / alpha2) * r ** 3

    def jet(al, c, sine, x, y, lap=False):
        R2 = x * x + y * y
        rho = np.sqrt(R2)
        G, E, F = R2 - r2, x * x - 1.0, y * y - 1.0
        s = 3.0 * rho / al
        # rho^3 as R2 ** 1.5: R2 * rho rounds apart and moves example 3's
        # errors by ~1e-12
        yv, gy = R2 ** 1.5 / al + c, (s * x, s * y)
        wx, wy = 2.0 * x * F * (E + G), 2.0 * y * E * (F + G)
        z, gz = 5.0 * (G * E * F) / al, (5.0 * wx / al, 5.0 * wy / al)
        if sine:
            S, C = np.sin(x * y), np.cos(x * y)
            yv = yv - 10.0 * G * S
            gy = (gy[0] - 10.0 * (2.0 * x * S + G * y * C),
                  gy[1] - 10.0 * (2.0 * y * S + G * x * C))
        if not lap:
            return Jet(yv, gy, z, gz)
        ly = 9.0 * rho / al
        if sine:
            ly = ly - 10.0 * (4.0 * S + 8.0 * x * y * C - G * R2 * S)
        w_lap = (2.0 * F * (E + G) + 8.0 * x * x * F
                 + 2.0 * E * (F + G) + 8.0 * y * y * E)
        return Jet(yv, gy, z, gz, ly, 5.0 * w_lap / al)

    return ManufacturedProblem(
        name=name, domain=(-1.0, 1.0, -1.0, 1.0), levelset=circle_interface(r),
        alpha1=alpha1, alpha2=alpha2, a=a, lambda_coef=lambda_coef,
        bounds=bounds,
        jet=PiecewiseField(partial(jet, alpha1, 0.0, sine),
                           partial(jet, alpha2, shift, False)),
        relative_errors=relative_errors)


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
