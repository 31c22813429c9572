"""Nystrom matrices and explicit inverses of the two master operators
(the holomorphic one on the deformed arc and the real-valued one on the
parameter interval), with their normalizing functionals."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .contour import subtracted_chord_kernel
from .equilibrium import InterpolationData, member_rule
from .numkit import ChebSeries, WeightedGrid, make_grid, pairwise_sum, read_only

__all__ = [
    "ChebCollocation",
    "DiscretizedOperator",
    "real_master_operator",
    "complex_master_operator",
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


def _difference_quotient_rows(w, H, close, E_nodes, D_targets):
    """The (n, n) matrix sum_p w_p row_{r,p}, where row_{r,p} sends nodal
    values f to (f(x_r) - f(s_p)) / H[r, p] for target r and node p, with
    H the point differences, and pairs flagged in `close` take the
    derivative row D_targets[r].  The targets are the collocation nodes, so
    f(x_r) reads the identity and the sum is one matrix product:
    diag(A.sum(1)) - A @ E_nodes + (close @ w) D_targets, A = w / H with the
    close pairs zeroed."""
    with np.errstate(divide="ignore", invalid="ignore"):
        A = w[None, :] / H
    A[close] = 0.0
    out = -(A @ E_nodes)
    out[np.diag_indices_from(out)] += A.sum(axis=1)
    if np.any(close):
        out += (close @ w)[:, None] * D_targets
    return out


def _near_pairs(targets, nodes):
    """Mask of the (target, node) parameter pairs closer than _PAIR_TOL."""
    return np.abs(targets[:, None] - nodes[None, :]) < _PAIR_TOL


@functools.cache
def _member_rules(pad, n):
    """Set-up shared by both operators of every member with working
    interval [-pad, 1 + pad], built once per (pad, n): collocation on that
    interval, the members' nu rule (`equilibrium.member_rule`) and the
    inverse-sqrt rule of the same size, the nodal-value maps to both node
    sets and the collocation derivative, all read-only."""
    colloc = ChebCollocation(-pad, 1 + pad, n)
    nu = member_rule()
    gc1 = make_grid("inverse_sqrt", len(nu.nodes), (0.0, 1.0))
    rules = (colloc, nu, gc1, colloc.eval_matrix(nu.nodes),
             colloc.eval_matrix(gc1.nodes), colloc.diff_matrix())
    read_only(colloc.u, colloc.x, colloc.cardinal.coef, colloc._d_cardinal.coef,
              gc1.nodes, gc1.weights, *rules[3:])
    return rules


def _built_once(data: InterpolationData, build, n):
    """The member's operator build(data, n), built on the first request for
    this build and n; its arrays are read-only."""
    key = (build, int(n))
    if key not in data._operators:
        op = build(data, int(n))
        read_only(op.forward, op.k_row, op.inverse)
        data._operators[key] = op
    return data._operators[key]


def real_master_operator(data: InterpolationData, n=64):
    """Discretization of the real master operator and its explicit inverse,
    built once per member and n.

    The inverse composes the flat-interval closed-form inverse with the
    Fredholm resolvent of the compact curve-dependent correction; the
    normalizing functional is assembled along the same path."""
    return _built_once(data, _real_operator, n)


def _real_operator(data: InterpolationData, n):
    colloc, nu, gc1, E_y, E_s, D_x = _member_rules(data.sol.pad, n)
    xs = colloc.x
    y, w2 = nu.nodes, nu.weights
    s, w1 = gc1.nodes, gc1.weights
    curve = data.curve

    # forward: diag(Re V_t' g_t') - integral of the deformed difference
    # quotient against the semicircle law.  With the same rule, Re V_t' g_t'
    # = 8(x - 1/2) - int Re K(x, .) dnu cancels the diagonal int Re K(x, .)
    # dnu of the kernel term, so the diagonal is the flat 8(x - 1/2)
    Kyx = np.real(subtracted_chord_kernel(curve, y, xs))
    forward = np.diag(8 * (xs - 0.5))
    forward += (Kyx.T * w2) @ E_y
    forward -= _difference_quotient_rows(w2, xs[:, None] - y[None, :], _near_pairs(xs, y),
                                         E_y, D_x)

    # flat-interval master inverse rows at collocation points
    X = xs[:, None] - s[None, :]
    close_s = _near_pairs(xs, s)
    if np.any(close_s):
        raise NearSingularError("collocation and quadrature grids collide")
    Dinv_x = _difference_quotient_rows(w1, X, close_s, E_s, D_x) / (8 * np.pi)

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
    L += pairwise_sum(invX * w1[None, :])[:, None] * T_x / (8 * np.pi)

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
    square root; built once per member and n."""
    return _built_once(data, _complex_operator, n)


def _complex_operator(data: InterpolationData, n):
    colloc, nu, gc1, E_y, E_s, D_x = _member_rules(data.sol.pad, n)
    xs = colloc.x
    y, w2 = nu.nodes, nu.weights
    s, w1 = gc1.nodes, gc1.weights
    curve = data.curve
    zx, zy, zs = curve(xs), curve(y), curve(s)
    gpx, gps = curve.deriv1(xs), curve.deriv1(s)
    vpx = data.vt_prime_pullback(xs) / gpx

    # forward: V_t'(z) f(z) - int (f(z)-f(w))/(z-w) dmu(w); near pairs of
    # parameters take the z-derivative row
    Dz_x = D_x / gpx[:, None]
    forward = np.diag(vpx).astype(complex)
    forward -= _difference_quotient_rows(w2, zx[:, None] - zy[None, :],
                                         _near_pairs(xs, y), E_y, Dz_x)

    st_s = data.st_grid(s)
    st_x = data.st_grid(xs)
    scale = np.max(np.abs(st_s))
    if np.min(np.abs(st_x)) < 1e-12 * scale or np.min(np.abs(st_s)) < 1e-12 * scale:
        raise NearSingularError("cut-square-root prefactor vanishes on the grid")

    # inverse rows: subtracted Cauchy kernel against the inverse-sqrt grid
    pref = w1 * gps**2 * st_s
    Dinv = (_difference_quotient_rows(pref, zx[:, None] - zs[None, :], _near_pairs(xs, s),
                                      E_s, Dz_x)
            / (8 * np.pi * st_x[:, None]))

    k_row = pref @ E_s / (8 * np.pi)
    return DiscretizedOperator(colloc, forward, k_row, Dinv, nu, E_y, D_x)

