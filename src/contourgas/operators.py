"""Nystrom matrices and explicit inverses of the two master operators
(the holomorphic one on the deformed arc and the real-valued one on the
parameter interval), with their normalizing functionals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import subtracted_chord_kernel
from .equilibrium import InterpolationData
from .numkit import ChebSeries, WeightedGrid, make_grid, pairwise_sum

__all__ = [
    "ChebCollocation",
    "DiscretizedOperator",
    "real_master_operator",
    "complex_master_operator",
    "finite_hilbert_transform",
    "NearSingularError",
]

_PAIR_TOL = 1e-7  # switch difference quotients to derivative rows


class NearSingularError(RuntimeError):
    pass


class ChebCollocation:
    """First-kind Chebyshev collocation on [lo, hi]: nodal values determine
    a degree n-1 interpolant; provides evaluation and derivative matrices."""

    def __init__(self, lo, hi, n):
        self.lo, self.hi, self.n = float(lo), float(hi), int(n)
        k = np.arange(n)
        u = np.cos((2 * k + 1) * np.pi / (2 * n))[::-1]
        self.u = u
        self.x = (u + 1) / 2 * (hi - lo) + lo
        # values -> Chebyshev coefficients (discrete cosine formula); column
        # j holds the series of the cardinal function of node j
        theta = (2 * k[::-1] + 1) * np.pi / (2 * n)
        j = k[:, None]
        to_coef = (2.0 / n) * np.cos(j * theta[None, :])
        to_coef[0] *= 0.5
        self.cardinal = ChebSeries(self.lo, self.hi, to_coef)
        self._d_cardinal = self.cardinal.deriv()

    def eval_matrix(self, targets):
        return self.cardinal.vander(targets) @ self.cardinal.coef

    def diff_matrix(self, targets=None):
        t = self.x if targets is None else targets
        return self._d_cardinal.vander(t) @ self._d_cardinal.coef


@dataclass
class DiscretizedOperator:
    """Dense forward matrix, normalizing-functional row and dense inverse
    for one master operator on a collocation grid, with the member's rule
    `nu` of the semicircle law the operator integrates against, the matrix
    E_nu taking nodal values to values at the nu nodes, and the collocation
    derivative D."""

    colloc: ChebCollocation
    forward: np.ndarray
    k_row: np.ndarray
    inverse: np.ndarray
    nu: WeightedGrid
    E_nu: np.ndarray
    D: np.ndarray

    @property
    def grid(self):
        return self.colloc.x

    def apply(self, values):
        return self.forward @ np.asarray(values)

    def k_functional(self, values):
        return self.k_row @ np.asarray(values)

    def inverse_apply(self, values):
        return self.inverse @ np.asarray(values)


def _difference_quotient_rows(H, close, E_targets, E_nodes, D_targets):
    """Matrix rows sending nodal values f to (f(x_r) - f(s_p)) / H[r, p]
    for each (target r, node p), with H the point differences; pairs
    flagged in `close` fall back to the derivative row D_targets[r]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / H
    inv[close] = 0.0
    rows = inv[:, :, None] * (E_targets[:, None, :] - E_nodes[None, :, :])
    if np.any(close):
        ii, pp = np.nonzero(close)
        rows[ii, pp, :] = D_targets[ii, :]
    return rows


def _near_pairs(targets, nodes):
    """Mask of the (target, node) parameter pairs closer than _PAIR_TOL."""
    return np.abs(targets[:, None] - nodes[None, :]) < _PAIR_TOL


def _member_rules(data: InterpolationData, n):
    """Set-up shared by both operators: collocation on the working
    interval, the member's nu rule and the inverse-sqrt rule of the same
    size, the nodal-value maps to both node sets and the collocation
    derivative."""
    pad = data.sol.pad
    colloc = ChebCollocation(-pad, 1 + pad, n)
    gc1 = make_grid("inverse_sqrt", data.n_quad, (0.0, 1.0))
    return (colloc, data.nu, gc1, colloc.eval_matrix(data.nu.nodes),
            colloc.eval_matrix(gc1.nodes), colloc.diff_matrix())


def real_master_operator(data: InterpolationData, n=64):
    """Discretization of the real master operator and its explicit inverse.

    The inverse composes the flat-interval closed-form inverse with the
    Fredholm resolvent of the compact curve-dependent correction; the
    normalizing functional is assembled along the same path."""
    colloc, nu, gc1, E_y, E_s, D_x = _member_rules(data, n)
    xs = colloc.x
    y, w2 = nu.nodes, nu.weights
    s, w1 = gc1.nodes, gc1.weights
    E_x = np.eye(n)

    curve = data.curve

    # forward: diag(Re V_t' g_t') - integral of the deformed difference
    # quotient against the semicircle law
    W = np.real(data.vt_prime_pullback(xs))
    Kxy = subtracted_chord_kernel(curve, xs, y)
    Kyx = np.real(subtracted_chord_kernel(curve, y, xs))
    dq = _difference_quotient_rows(xs[:, None] - y[None, :], _near_pairs(xs, y),
                                   E_x, E_y, D_x)
    forward = np.diag(W)
    forward += np.diag(pairwise_sum(np.real(Kxy) * w2[None, :], axis=-1))
    forward += (Kyx.T * w2) @ E_y
    forward -= w2 @ dq

    # flat-interval master inverse rows at collocation points
    X = xs[:, None] - s[None, :]
    close_s = _near_pairs(xs, s)
    if np.any(close_s):
        raise NearSingularError("collocation and quadrature grids collide")
    dq_s = _difference_quotient_rows(X, close_s, E_x, E_s, D_x)
    Dinv_x = (w1 @ dq_s) / (8 * np.pi)

    # K_J functional (flat interval)
    kJ = (w1 @ E_s) / np.pi

    # correction kernel tau(x, y) = Re(subtracted chord kernel at (y, x))
    # times the semicircle density, and its K_J-projected version
    tau_x = Kyx.T                                                      # (x rows, y cols)
    tau_s = np.real(subtracted_chord_kernel(curve, y, s)).T            # (s rows, y cols)
    kJ_tau = (w1 @ tau_s) / np.pi                                      # K_J[tau(., y_q)]
    tau_x_til = tau_x - kJ_tau[None, :]
    tau_s_til = tau_s - kJ_tau[None, :]

    T_x = (tau_x_til * w2) @ E_y
    T_s = (tau_s_til * w2) @ E_y

    # L = flat-inverse of the projected correction, as a dense matrix:
    # L[r] = (1/8pi) sum_p w1_p (T_s[p] - T_x[r]) / (s_p - x_r)
    invX = 1.0 / X
    L = -(invX * w1[None, :]) @ T_s / (8 * np.pi)
    L += (pairwise_sum(invX * w1[None, :], axis=-1))[:, None] * T_x / (8 * np.pi)

    A = np.eye(n) + L
    sign, logdet = np.linalg.slogdet(A)
    if not np.isfinite(logdet) or np.exp(logdet) < 1e-12:
        raise NearSingularError("resolvent determinant below tolerance")
    inv_mat = np.linalg.solve(A, Dinv_x)

    # K_{gamma_t}[g] = K_J[g] - K_J[ tau(., y) f(y) dy ] with f the inverse
    tau_row_s = (tau_s * w2) @ E_y                       # int tau(s_p, y) f(y) dy
    k_row = kJ - (w1 @ (tau_row_s @ inv_mat)) / np.pi

    return DiscretizedOperator(colloc, forward, k_row, inv_mat, nu, E_y, D_x)


def complex_master_operator(data: InterpolationData, n=64):
    """Discretization of the holomorphic master operator on the deformed
    arc, with the closed-form inverse built on the prefactor of the cut
    square root."""
    colloc, nu, gc1, E_y, E_s, D_x = _member_rules(data, n)
    xs = colloc.x
    y, w2 = nu.nodes, nu.weights
    s, w1 = gc1.nodes, gc1.weights
    E_x = np.eye(n)

    curve = data.curve
    zx, zy, zs = curve(xs), curve(y), curve(s)
    gpx, gps = curve.deriv1(xs), curve.deriv1(s)
    vpx = data.vt_prime_pullback(xs) / curve.g.deriv()(xs)   # the kernel's own slope

    # forward: V_t'(z) f(z) - int (f(z)-f(w))/(z-w) dmu(w); near pairs of
    # parameters take the z-derivative row
    Dz_x = D_x / gpx[:, None]
    rows = _difference_quotient_rows(zx[:, None] - zy[None, :], _near_pairs(xs, y),
                                     E_x, E_y, Dz_x)
    forward = np.diag(vpx).astype(complex)
    forward -= w2 @ rows

    st_s = data.st(s)
    st_x = data.st(xs)
    scale = np.max(np.abs(st_s))
    if np.min(np.abs(st_x)) < 1e-12 * scale or np.min(np.abs(st_s)) < 1e-12 * scale:
        raise NearSingularError("cut-square-root prefactor vanishes on the grid")

    # inverse rows: subtracted Cauchy kernel against the inverse-sqrt grid
    rows_s = _difference_quotient_rows(zx[:, None] - zs[None, :], _near_pairs(xs, s),
                                       E_x, E_s, Dz_x)
    pref = w1 * gps**2 * st_s
    Dinv = (pref @ rows_s) / (8 * np.pi * st_x[:, None])

    k_row = pref @ E_s / (8 * np.pi)
    return DiscretizedOperator(colloc, forward, k_row, Dinv, nu, E_y, D_x)


def finite_hilbert_transform(phi, x, n=128):
    """PV integral of phi(y) sqrt(1-y^2)/(y-x) over [-1,1] by the
    subtracted form; the classical sqrt-weight moment supplies the
    principal value of the bare kernel."""
    gc2 = make_grid("gauss_chebyshev_sqrt", n, (-1.0, 1.0))
    y, w = gc2.nodes, gc2.weights
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = phi(y)
    out = np.empty(x.shape)
    for i, xi in enumerate(x):
        dq = (vals - phi(xi)) / (y - xi)
        out[i] = pairwise_sum(w * dq) - np.pi * xi * phi(xi)
    return out
