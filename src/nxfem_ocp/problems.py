"""Built-in benchmark problems with closed-form optimal solutions.

Each problem prescribes analytic state and co-state fields per subdomain;
the source, target and interface flux data are derived from them by
hand-coded differentiation (products of elementary factors, so every
derivative is spelled out explicitly and cross-checked by finite
differences in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import NitscheParams, RefineSpec
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

    def __call__(self, x, y, side):
        return self._f[side - 1](x, y)


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


@dataclass
class ManufacturedProblem:
    """Benchmark data: geometry, coefficients and exact optimal triple."""

    name: str
    domain: tuple
    levelset: LevelSet
    alpha1: float
    alpha2: float
    a: float
    lambda_coef: float            # penalty scale: lambda = lambda_coef / h
    bounds: tuple | None
    y: PiecewiseField
    p: PiecewiseField
    u: PiecewiseField
    grad_y: PiecewiseField
    grad_p: PiecewiseField
    grad_u: PiecewiseField
    f: PiecewiseField
    y_d: PiecewiseField
    g: callable
    g_adj: callable | None
    control_arg: PiecewiseField   # the pre-clamp control field -p/a
    relative_errors: bool

    def nitsche_params(self):
        """Penalty parameters reproducing lambda = lambda_coef / h."""
        return NitscheParams(self.lambda_coef / max(self.alpha1, self.alpha2))

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
            return self.clamp_status(self.control_arg.side(side)(x, y))

        coords = mesh.vertices[mesh.triangles]        # (T, 3, 2)
        mask = np.zeros(mesh.num_triangles, dtype=bool)
        for side, other in ((1, ElementClass.INTERIOR_2),
                            (2, ElementClass.INTERIOR_1)):
            st = status_side(side, coords[..., 0], coords[..., 1])
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

def _example_segment():
    k = -np.sqrt(3.0) / 3.0
    b = (6.0 + np.sqrt(6.0) - 2.0 * np.sqrt(3.0)) / 6.0
    alpha1, alpha2 = 1.0, 100.0
    a = 0.01
    levelset = line_interface(k, b)
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

    def u_side(c):
        return lambda x, y: c * ell(x, y) * q(x, y)

    def grad_u_side(c):
        def grad(x, y):
            qx, qy = q_grad(x, y)
            qq, ee = q(x, y), ell(x, y)
            return (c * (-k * qq + ee * qx), c * (qq + ee * qy))
        return grad

    def lap_u_side(c):
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

    c1, c2 = 1.0, 100.0
    u = PiecewiseField(u_side(c1), u_side(c2))
    grad_u = PiecewiseField(grad_u_side(c1), grad_u_side(c2))

    def p_side(c):
        us = u_side(c)
        return lambda x, y: -a * us(x, y)

    def grad_p_side(c):
        gu = grad_u_side(c)

        def grad(x, y):
            gx, gy = gu(x, y)
            return (-a * gx, -a * gy)
        return grad

    p = PiecewiseField(p_side(c1), p_side(c2))
    grad_p = PiecewiseField(grad_p_side(c1), grad_p_side(c2))

    def f_side(al, lap_y, us):
        return lambda x, y: -al * lap_y(x, y) - us(x, y)

    # y_d = y + alpha * lap(p), with lap p = -a * lap u
    def y_d_side(al, ys, lap_u):
        return lambda x, y: ys(x, y) - a * al * lap_u(x, y)

    f = PiecewiseField(f_side(alpha1, lap_y1, u_side(c1)),
                       f_side(alpha2, lap_y2, u_side(c2)))
    y_d = PiecewiseField(y_d_side(alpha1, y1, lap_u_side(c1)),
                         y_d_side(alpha2, y2, lap_u_side(c2)))
    grad_y = PiecewiseField(grad_y1, grad_y2)
    return ManufacturedProblem(
        name="example1", domain=(0.0, 1.0, 0.0, 1.0), levelset=levelset,
        alpha1=alpha1, alpha2=alpha2, a=a, lambda_coef=1000.0, bounds=None,
        y=PiecewiseField(y1, y2), p=p, u=u,
        grad_y=grad_y, grad_p=grad_p, grad_u=grad_u,
        f=f, y_d=y_d,
        g=flux_jump(grad_y, levelset, alpha1, alpha2),
        g_adj=flux_jump(grad_p, levelset, alpha1, alpha2),
        control_arg=u, relative_errors=True)


# ---------------------------------------------------------------------------
# examples 2 and 3 share the circle geometry and the quartic bubble
# ---------------------------------------------------------------------------

def _bubble(r2):
    """W = (x^2+y^2-r^2)(x^2-1)(y^2-1) with gradient and Laplacian."""

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

    return W, W_grad, W_lap


def _radial_state(alpha1, alpha2, r):
    """y = rho^{3/2}/alpha per side (+ matching constant outside)."""
    shift = (1.0 / alpha1 - 1.0 / alpha2) * r ** 3

    def y1(x, y):
        return (x * x + y * y) ** 1.5 / alpha1

    def y2(x, y):
        return (x * x + y * y) ** 1.5 / alpha2 + shift

    def grad_side(alpha):
        def grad(x, y):
            s = 3.0 * np.sqrt(x * x + y * y) / alpha
            return (s * x, s * y)
        return grad

    def lap_side(alpha):
        return lambda x, y: 9.0 * np.sqrt(x * x + y * y) / alpha

    return (y1, y2), (grad_side(alpha1), grad_side(alpha2)), \
        (lap_side(alpha1), lap_side(alpha2))


def _example_circle_constrained():
    r = np.sqrt(3.0) / 4.0
    alpha1, alpha2 = 1.0, 1000.0
    a = 1.0
    bounds = (-0.5, 0.5)
    levelset = circle_interface(r)
    W, W_grad, W_lap = _bubble(r * r)

    def phi_side(al):
        return lambda x, y: 5.0 * W(x, y) / al

    def u_side(al):
        ps = phi_side(al)
        return lambda x, y: np.clip(ps(x, y), bounds[0], bounds[1])

    def grad_u_side(al):
        def grad(x, y):
            z = 5.0 * W(x, y) / al
            active = (z > bounds[0]) & (z < bounds[1])
            wx, wy = W_grad(x, y)
            return (np.where(active, 5.0 * wx / al, 0.0),
                    np.where(active, 5.0 * wy / al, 0.0))
        return grad

    def p_side(al):
        return lambda x, y: -5.0 * a * W(x, y) / al

    def grad_p_side(al):
        def grad(x, y):
            wx, wy = W_grad(x, y)
            return (-5.0 * a * wx / al, -5.0 * a * wy / al)
        return grad

    phi = PiecewiseField(phi_side(alpha1), phi_side(alpha2))
    u = PiecewiseField(u_side(alpha1), u_side(alpha2))
    p = PiecewiseField(p_side(alpha1), p_side(alpha2))

    (y1r, y2r), (gy1r, gy2r), (ly1r, ly2r) = _radial_state(alpha1, alpha2, r)

    def y1(x, y):
        G = x * x + y * y - r * r
        return y1r(x, y) - 10.0 * G * np.sin(x * y)

    def grad_y1(x, y):
        gx, gy = gy1r(x, y)
        G = x * x + y * y - r * r
        S, C = np.sin(x * y), np.cos(x * y)
        return (gx - 10.0 * (2.0 * x * S + G * y * C),
                gy - 10.0 * (2.0 * y * S + G * x * C))

    def lap_y1(x, y):
        G = x * x + y * y - r * r
        S, C = np.sin(x * y), np.cos(x * y)
        return ly1r(x, y) - 10.0 * (4.0 * S + 8.0 * x * y * C
                                    - G * (x * x + y * y) * S)

    def f_side(al, lap_y, us):
        return lambda x, y: -al * lap_y(x, y) - us(x, y)

    # alpha * lap(p) = -5 a lap(W) on both sides
    def y_d_side(ys):
        return lambda x, y: ys(x, y) - 5.0 * a * W_lap(x, y)

    f = PiecewiseField(f_side(alpha1, lap_y1, u.side(1)),
                       f_side(alpha2, ly2r, u.side(2)))
    y_d = PiecewiseField(y_d_side(y1), y_d_side(y2r))
    grad_y = PiecewiseField(grad_y1, gy2r)
    grad_p = PiecewiseField(grad_p_side(alpha1), grad_p_side(alpha2))
    return ManufacturedProblem(
        name="example2", domain=(-1.0, 1.0, -1.0, 1.0), levelset=levelset,
        alpha1=alpha1, alpha2=alpha2, a=a, lambda_coef=5000.0, bounds=bounds,
        y=PiecewiseField(y1, y2r), p=p, u=u,
        grad_y=grad_y, grad_p=grad_p,
        grad_u=PiecewiseField(grad_u_side(alpha1), grad_u_side(alpha2)),
        f=f, y_d=y_d,
        g=flux_jump(grad_y, levelset, alpha1, alpha2),
        g_adj=flux_jump(grad_p, levelset, alpha1, alpha2),
        control_arg=phi, relative_errors=True)


def _example_circle_unconstrained():
    r = 0.5
    alpha1, alpha2 = 1.0, 10.0
    a = 0.01
    levelset = circle_interface(r)
    W, W_grad, W_lap = _bubble(r * r)

    def u_side(al):
        return lambda x, y: 5.0 * W(x, y) / al

    def grad_u_side(al):
        def grad(x, y):
            wx, wy = W_grad(x, y)
            return (5.0 * wx / al, 5.0 * wy / al)
        return grad

    def p_side(al):
        return lambda x, y: -5.0 * a * W(x, y) / al

    def grad_p_side(al):
        def grad(x, y):
            wx, wy = W_grad(x, y)
            return (-5.0 * a * wx / al, -5.0 * a * wy / al)
        return grad

    u = PiecewiseField(u_side(alpha1), u_side(alpha2))
    p = PiecewiseField(p_side(alpha1), p_side(alpha2))

    (y1, y2), (gy1, gy2), (ly1, ly2) = _radial_state(alpha1, alpha2, r)

    def f_side(al, lap_y, us):
        return lambda x, y: -al * lap_y(x, y) - us(x, y)

    def y_d_side(ys):
        return lambda x, y: ys(x, y) - 5.0 * a * W_lap(x, y)

    f = PiecewiseField(f_side(alpha1, ly1, u.side(1)),
                       f_side(alpha2, ly2, u.side(2)))
    y_d = PiecewiseField(y_d_side(y1), y_d_side(y2))
    grad_y = PiecewiseField(gy1, gy2)
    grad_p = PiecewiseField(grad_p_side(alpha1), grad_p_side(alpha2))
    return ManufacturedProblem(
        name="example3", domain=(-1.0, 1.0, -1.0, 1.0), levelset=levelset,
        alpha1=alpha1, alpha2=alpha2, a=a, lambda_coef=10000.0, bounds=None,
        y=PiecewiseField(y1, y2), p=p, u=u,
        grad_y=grad_y, grad_p=grad_p,
        grad_u=PiecewiseField(grad_u_side(alpha1), grad_u_side(alpha2)),
        f=f, y_d=y_d,
        g=flux_jump(grad_y, levelset, alpha1, alpha2),
        g_adj=flux_jump(grad_p, levelset, alpha1, alpha2),
        control_arg=u, relative_errors=False)


def build_example(example_id):
    """One of the three built-in benchmark problems."""
    builders = {1: _example_segment, 2: _example_circle_constrained,
                3: _example_circle_unconstrained}
    try:
        return builders[int(example_id)]()
    except (KeyError, TypeError, ValueError):
        raise ConfigurationError(f"unknown example id {example_id!r}") from None
