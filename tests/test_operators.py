import math

import numpy as np
import pytest

from contourgas import equilibrium as eq
from contourgas import operators as ops
from contourgas.numkit import semicircle_rule
from oracles import finite_hilbert_transform


def _tensor_rows(H, close, E_targets, E_nodes, D_targets):
    # the explicit (n, m, n) tensor of difference-quotient rows that the
    # contracted form replaced
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / H
    inv[close] = 0.0
    rows = inv[:, :, None] * (E_targets[:, None, :] - E_nodes[None, :, :])
    ii, pp = np.nonzero(close)
    rows[ii, pp, :] = D_targets[ii, :]
    return rows


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_difference_quotient_rows_contract_the_tensor(kind):
    rng = np.random.default_rng(7)
    n, m = 24, 31
    x = np.sort(rng.uniform(-0.05, 1.05, n))
    s = np.sort(rng.uniform(-0.05, 1.05, m))
    s[11] = x[9] + 3e-8                       # one forced close pair
    close = ops._near_pairs(x, s)
    assert close.sum() == 1
    E_nodes, D = rng.normal(size=(m, n)), rng.normal(size=(n, n))
    w = rng.uniform(0.1, 1.0, m)
    if kind == "complex":
        g = lambda u: u + 0.3j * u * u
        H = g(x)[:, None] - g(s)[None, :]
        w = w * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        D = D + 1j * rng.normal(size=(n, n))
    else:
        H = x[:, None] - s[None, :]
    want = w @ _tensor_rows(H, close, np.eye(n), E_nodes, D)
    got = ops._difference_quotient_rows(w, H, close, E_nodes, D)
    assert got.shape == (n, n)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.fixture(scope="module")
def rot_ops(rot_sol):
    out = {}
    for t in (0.0, 0.5, 1.0):
        data = eq.interpolation_data(rot_sol, t)
        out[t] = (data, ops.real_master_operator(data, n=64),
                  ops.complex_master_operator(data, n=64))
    return out


def test_operators_carry_member_rule(rot_ops):
    # both operators integrate against the member's own nu rule, and carry
    # its evaluation map and the collocation derivative
    p = np.polynomial.Polynomial([0.3, -1.2, 0.7, 2.1])
    for t, (data, X, D) in rot_ops.items():
        for op in (X, D):
            assert op.nu is data.nu
            assert np.max(np.abs(op.E_nu @ p(op.grid) - p(data.nu.nodes))) < 1e-12
            assert np.max(np.abs(op.D @ p(op.grid) - p.deriv()(op.grid))) < 1e-10


def test_operators_built_once_per_member_and_size(fresh_rot_sol, monkeypatch):
    # dt_lnZ builds the member's n = 64 complex operator, which later callers
    # and one_stat_expansion reuse; another size is another operator; the
    # collocation rules are shared by all members
    from contourgas import fluctuations as fl
    from contourgas import partition as pt
    pt.dt_lnZ(fresh_rot_sol, 0.5, 8, 2.0)
    data = eq.interpolation_data(fresh_rot_sol, 0.5)
    built = []
    init = ops.DiscretizedOperator.__init__
    monkeypatch.setattr(ops.DiscretizedOperator, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    D = ops.complex_master_operator(data, n=64)
    assert built == []
    fl.one_stat_expansion(data, lambda z: z**2, 2.0, n=64)
    assert ops.complex_master_operator(data, 64) is D and built == []
    assert ops.real_master_operator(data, n=64) is fl.gaussian_law(data, 2.0).op
    assert len(built) == 1
    assert ops.complex_master_operator(data, n=48) is not D and len(built) == 2
    other = eq.interpolation_data(fresh_rot_sol, 1.0)
    assert ops.complex_master_operator(other, n=64).colloc is D.colloc


def test_cached_arrays_are_read_only(fresh_rot_sol):
    # a caller editing a shared array in place fails instead of changing
    # every later result
    data = eq.interpolation_data(fresh_rot_sol, 0.5)
    X = ops.real_master_operator(data, n=32)
    D = ops.complex_master_operator(data, n=32)
    arrays = [X.forward, X.k_row, X.inverse, X.E_nu, X.D, X.grid,
              D.forward, D.k_row, D.inverse, D.colloc.cardinal.coef,
              data.nu.nodes, data.nu.weights, data.chord[0].coef, data.chord[1].coef,
              data.vt_gamma.coef]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2


def test_k_normalization(rot_ops):
    for t, (data, X, D) in rot_ops.items():
        one = np.ones(64)
        assert X.k_functional(one) == pytest.approx(1.0, abs=1e-10)
        assert D.k_functional(one.astype(complex)) == pytest.approx(1.0, abs=1e-10)


def test_k_complex_linear_statistic(rot_ops, rot_sol):
    # loop form of the functional maps z to the endpoint midpoint
    for t, (data, X, D) in rot_ops.items():
        zv = data.gt(D.grid)
        assert D.k_functional(zv) == pytest.approx(rot_sol.midpoint, abs=1e-9)


def test_k_linearity(rot_ops):
    rng = np.random.default_rng(2)
    data, X, D = rot_ops[0.5]
    f = rng.normal(size=64)
    g = rng.normal(size=64)
    assert X.k_functional(2 * f - 3 * g) == pytest.approx(
        2 * X.k_functional(f) - 3 * X.k_functional(g), abs=1e-12)


def test_forward_complex_examples(rot_ops, rot_sol):
    data, X, D = rot_ops[1.0]
    zs = data.gt(D.grid)
    vp = rot_sol.potential.deriv()(zs)
    # constants map to the potential derivative
    out1 = D.apply(np.ones(64, dtype=complex))
    assert np.max(np.abs(out1 - vp)) < 1e-8
    # the identity picks up the unit mass
    outz = D.apply(zs)
    assert np.max(np.abs(outz - (vp * zs - 1.0))) < 1e-8
    # z^2 subtracts the first moment
    nu = semicircle_rule(96)
    m1 = nu.integrate(data.gt(nu.nodes))
    outz2 = D.apply(zs**2)
    assert np.max(np.abs(outz2 - (vp * zs**2 - zs - m1))) < 1e-8


def test_forward_real_flat_examples(quad_data_t0):
    X = ops.real_master_operator(quad_data_t0, n=64)
    xs = X.grid
    out = X.apply(np.ones(64))
    assert np.max(np.abs(out - 8 * (xs - 0.5))) < 1e-10
    # dense-quadrature oracle for f(x) = x at a few points; the affine
    # member's difference quotient is identically one
    nu = semicircle_rule(400)
    fx = X.apply(xs)
    for i in (7, 31, 55):
        oracle = 8 * (xs[i] - 0.5) * xs[i] - np.sum(nu.weights * np.ones_like(nu.nodes))
        assert fx[i] == pytest.approx(oracle, abs=1e-9)


def test_forward_linearity(rot_ops):
    rng = np.random.default_rng(3)
    data, X, D = rot_ops[1.0]
    f = rng.normal(size=64)
    g = rng.normal(size=64)
    assert np.allclose(X.apply(1.5 * f + 0.5 * g),
                       1.5 * X.apply(f) + 0.5 * X.apply(g), atol=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_roundtrips_random_polynomials(rot_ops, t):
    rng = np.random.default_rng(40 + int(10 * t))
    data, X, D = rot_ops[t]
    xs = X.grid
    zs = data.gt(xs)
    for _ in range(10):
        coeffs = rng.normal(size=6)
        g = np.polynomial.Polynomial(coeffs)(xs)
        f = X.inverse_apply(g)
        assert np.max(np.abs(X.apply(f) - (g - X.k_functional(g)))) < 1e-7
        gz = np.polynomial.Polynomial(coeffs)(zs)
        fz = D.inverse_apply(gz)
        assert np.max(np.abs(D.apply(fz) - (gz - D.k_functional(gz)))) < 1e-7


def test_inverse_examples_flat(quad_data_t0):
    X = ops.real_master_operator(quad_data_t0, n=64)
    xs = X.grid
    f = X.inverse_apply(8 * (xs - 0.5))
    assert np.max(np.abs(f - 1.0)) < 1e-9
    # constants sit in the one-dimensional degeneracy of the extension
    fc = X.inverse_apply(np.full(64, 3.7))
    assert np.max(np.abs(X.apply(fc))) < 1e-8
    # Chebyshev T3 mapped to the working interval round-trips
    pad = quad_data_t0.sol.pad
    u = (2 * xs - 1) / (1 + 2 * pad)
    t3 = np.cos(3 * np.arccos(np.clip(u, -1, 1)))
    f3 = X.inverse_apply(t3)
    assert np.max(np.abs(X.apply(f3) - (t3 - X.k_functional(t3)))) < 1e-7


def test_inverse_examples_complex(rot_ops):
    data, X, D = rot_ops[1.0]
    zs = data.gt(D.grid)
    vp = data.sol.potential.deriv()(zs)
    f = D.inverse_apply(vp)
    # forward of the result reproduces V' minus its functional value
    assert np.max(np.abs(D.apply(f) - (vp - D.k_functional(vp)))) < 1e-8
    f2 = D.inverse_apply(vp * zs - 1.0)
    assert np.max(np.abs(D.apply(f2) - (vp * zs - 1.0 - D.k_functional(vp * zs - 1.0)))) < 1e-8


def test_image_in_kernel_of_functional(rot_ops):
    rng = np.random.default_rng(8)
    for t, (data, X, D) in rot_ops.items():
        for _ in range(5):
            coeffs = rng.normal(size=6)
            f = np.polynomial.Polynomial(coeffs)(X.grid)
            assert abs(X.k_functional(X.apply(f))) < 1e-9
            fz = np.polynomial.Polynomial(coeffs)(data.gt(D.grid))
            assert abs(D.k_functional(D.apply(fz))) < 1e-9


def test_airfoil_identity():
    # finite Hilbert transform of the sqrt weight times second-kind
    # polynomials lands on first-kind polynomials
    xt = np.linspace(-0.95, 0.95, 13)
    for n in range(1, 6):
        Un = lambda y: np.sin(n * np.arccos(np.clip(y, -1, 1))) / np.sqrt(1 - np.clip(y, -1, 1)**2)
        h = finite_hilbert_transform(Un, xt)
        Tn = np.cos(n * np.arccos(xt))
        assert np.max(np.abs(h + math.pi * Tn)) < 1e-8


def test_bilinear_symmetry(rot_ops):
    rng = np.random.default_rng(4)
    data, X, D = rot_ops[1.0]
    xs = X.grid
    nu = semicircle_rule(96)
    w = nu.weights
    E = X.colloc.eval_matrix(nu.nodes)
    for _ in range(5):
        p1 = np.polynomial.Polynomial(rng.normal(size=5))
        p2 = np.polynomial.Polynomial(rng.normal(size=5))
        lhs = w @ ((E @ np.asarray(p1.deriv()(xs))) * (E @ X.inverse_apply(p2(xs))))
        rhs = w @ ((E @ np.asarray(p2.deriv()(xs))) * (E @ X.inverse_apply(p1(xs))))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_continuity_bound_uniform_in_t(rot_sol):
    # sup |inverse[g]| over a fixed family, uniform across the flow
    test_fns = [lambda x: x, lambda x: x**2, lambda x: np.sin(3 * x),
                lambda x: np.exp(x)]
    ratios = {}
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        data = eq.interpolation_data(rot_sol, t)
        X = ops.real_master_operator(data, n=48)
        xs = X.grid
        r = 0.0
        for f in test_fns:
            g = f(xs)
            r = max(r, np.max(np.abs(X.inverse_apply(g)))
                    / max(np.max(np.abs(g)), 1e-30))
        ratios[t] = r
    assert max(ratios.values()) <= 2 * ratios[1.0]


def test_colloc_interpolation_accuracy():
    c = ops.ChebCollocation(-0.05, 1.05, 48)
    f = np.exp(c.x) * np.cos(3 * c.x)
    t = np.linspace(-0.05, 1.05, 101)
    exact = np.exp(t) * np.cos(3 * t)
    assert np.max(np.abs(c.eval_matrix(t) @ f - exact)) < 1e-12
    d = c.diff_matrix(t) @ f
    dexact = np.exp(t) * (np.cos(3 * t) - 3 * np.sin(3 * t))
    assert np.max(np.abs(d - dexact)) < 1e-9

