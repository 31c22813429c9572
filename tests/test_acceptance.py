"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line
with its headline numbers (run with `pytest -s tests/test_acceptance.py`)."""

import math
import time

import numpy as np
import pytest

from contourgas import equilibrium as eq
from contourgas import fluctuations as fl
from contourgas import operators as ops
from contourgas import partition as pt
from contourgas import sampler as sp
from contourgas.numkit import log_energy_form, semicircle_rule

LN2 = math.log(2)


def _report(name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"{name} {status}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert passed, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget}s"


def test_A1_selberg_agreement():
    t0 = time.time()
    worst = {}
    for N in (1, 2, 3):
        for beta in (2, 4):
            dom = pt.quadratic_line_domain(N, beta)
            M = 140 if N <= 2 else 80
            z, _, _ = pt.z_complex_quadrature(N, beta, lambda zz: zz**2,
                                              None, dom, M=M)
            exact = complex(np.exp(pt.selberg_exact(N, beta, -1, 1, 0.0)))
            worst[(N, beta)] = abs(z - exact) / abs(exact)
    ok = all(err <= (1e-6 if N <= 2 else 1e-4) for (N, beta), err in worst.items())
    _report("A1", ok, f"max rel err N<=2: {max(v for (n, b), v in worst.items() if n <= 2):.2e}, "
            f"N=3: {max(v for (n, b), v in worst.items() if n == 3):.2e}",
            time.time() - t0, 60)


def test_A2_expansion_coefficients():
    t0 = time.time()
    rep = pt.selberg_expansion([8, 16, 32, 64, 128], 2.0)
    e_f2 = abs(rep.F_m2 - (-(LN2 + 0.75)))
    e_f1 = abs(rep.F_m1 - (math.log(2 * math.pi) - 1))
    r = [row[3].real for row in rep.residual_table]
    contract = all(abs(r[i + 2] - r[i + 1]) <= 0.6 * abs(r[i + 1] - r[i])
                   for i in range(3))
    ok = e_f2 < 1e-8 and e_f1 < 1e-8 and contract
    _report("A2", ok, f"|F-2 err| {e_f2:.1e}, |F-1 err| {e_f1:.1e}, "
            f"residual contraction {contract}", time.time() - t0, 10)


def test_A3_operator_roundtrips(rot_sol):
    t0 = time.time()
    rng = np.random.default_rng(1234)
    worst_xi = worst_delta = 0.0
    for t in (0.0, 0.5, 1.0):
        data = eq.interpolation_data(rot_sol, t)
        X = ops.real_master_operator(data, n=64)
        D = ops.complex_master_operator(data, n=64)
        xs = X.grid
        zs = data.gt(xs)
        for _ in range(10):
            coeffs = rng.normal(size=6)
            g = np.polynomial.Polynomial(coeffs)(xs)
            resid = X.apply(X.inverse_apply(g)) - (g - X.k_functional(g))
            worst_xi = max(worst_xi, np.max(np.abs(resid)))
            gz = np.polynomial.Polynomial(coeffs)(zs)
            residz = D.apply(D.inverse_apply(gz)) - (gz - D.k_functional(gz))
            worst_delta = max(worst_delta, np.max(np.abs(residz)))
    worst_airfoil = 0.0
    xt = np.linspace(-0.95, 0.95, 13)
    for n in range(1, 6):
        Un = lambda y: np.sin(n * np.arccos(np.clip(y, -1, 1))) / np.sqrt(
            1 - np.clip(y, -1, 1)**2)
        h = ops.finite_hilbert_transform(Un, xt)
        worst_airfoil = max(worst_airfoil,
                            np.max(np.abs(h + math.pi * np.cos(n * np.arccos(xt)))))
    ok = worst_xi <= 1e-7 and worst_delta <= 1e-7 and worst_airfoil <= 1e-8
    _report("A3", ok, f"roundtrip Xi {worst_xi:.1e}, Delta {worst_delta:.1e}, "
            f"airfoil {worst_airfoil:.1e}", time.time() - t0, 30)


def test_A4_semicircle_pullback(quad_sol, quartic_sol, pullback_residual):
    t0 = time.time()
    worst = 0.0
    for sol in (quad_sol, quartic_sol):
        for t in np.round(np.linspace(0, 1, 11), 2):
            worst = max(worst, pullback_residual(sol, float(t)))
    ok = worst <= 1e-9
    _report("A4", ok, f"max relative residual {worst:.1e} over 2 potentials x 11 t",
            time.time() - t0, 10)


@pytest.mark.slow
def test_A5_clt_agreement(rot_sol):
    t0 = time.time()
    nu_grid = semicircle_rule(256)
    wn = nu_grid.weights
    details = []
    ok = True
    for t in (0.0, 1.0):
        data = eq.interpolation_data(rot_sol, t)
        for beta in (2.0, 4.0):
            law = fl.gaussian_law(data, beta)
            chain = sp.make_chain(data, 128, beta, n_chains=8,
                                  seed=90000 + int(t * 10) + int(beta))
            snaps, info = sp.sample_real_model(chain, 2500)
            assert snaps.shape[0] * snaps.shape[1] >= 20000
            for f, fname in ((lambda x: x, "x"), (lambda x: x**2, "x^2")):
                nu_f = wn @ f(nu_grid.nodes)
                stat = f(snaps).sum(axis=2) - 128 * nu_f    # (n_kept, chains)
                m_pred = law.mean(f(law.op.grid))
                v_pred = law.variance(f(law.op.grid))
                ch_means = stat.mean(axis=0)
                se_m = ch_means.std(ddof=1) / math.sqrt(8)
                ch_vars = stat.var(axis=0, ddof=1)
                se_v = ch_vars.std(ddof=1) / math.sqrt(8)
                dm = abs(stat.mean() - m_pred)
                dv = abs(ch_vars.mean() - v_pred)
                good = dm <= 3 * se_m and dv <= 3 * se_v
                ok = ok and good
                details.append(f"t={t},b={beta},{fname}: dm/se {dm/se_m:.1f}, "
                               f"dv/se {dv/se_v:.1f}")
    analytic = abs(fl.gaussian_law(eq.interpolation_data(rot_sol, 0.0), 2.0)
                   .variance(np.polynomial.polynomial.polyval(
                       ops.real_master_operator(
                           eq.interpolation_data(rot_sol, 0.0), n=64).grid, [0, 1])) - 1 / 16)
    ok = ok and analytic < 1e-8
    _report("A5", ok, "; ".join(details) + f"; analytic flat-variance err {analytic:.1e}",
            time.time() - t0, 600)


def test_A6_fredholm_identity():
    # the finite-rank formula against Monte Carlo draws of the structured
    # Gaussian vector, within 4 standard errors per component
    t0 = time.time()
    rng = np.random.default_rng(777)
    n_mc = 200_000
    worst = 0.0
    det_ok = True
    count = 0
    for n in (1, 2):
        for _ in range(10):
            n2 = 2 * n
            T = fl.structured_index_map(n)
            G = rng.normal(size=(n2, n2)) * 0.3
            B = T @ (G @ G.T) @ T.conj().T
            mu = T @ (rng.normal(size=n2) * 0.4)
            A = rng.normal(size=(n2, n2)) + 1j * rng.normal(size=(n2, n2))
            A = 0.25 * (A + A.conj().T)
            A = 0.5 * (A + A[::-1, ::-1].T)
            lam = rng.normal(size=n2) + 1j * rng.normal(size=n2)
            lam = 0.5 * (lam + lam[::-1].conj())
            xi = fl.sample_structured_gaussian(B, mu, n_mc, rng)
            quad = np.einsum("si,ij,sj->s", xi.conj(), A, xi)
            lin = xi @ lam.conj()
            for beta in (2.0, 4.0):
                vals = np.exp(0.5j * beta * quad + 1j * beta * lin)
                exact = fl.finite_rank_oracle(B, mu, A, lam, beta)
                d = vals.mean() - exact
                se = np.array([vals.real.std(), vals.imag.std()]) / math.sqrt(n_mc)
                worst = max(worst, abs(d.real) / se[0], abs(d.imag) / se[1])
                evB, QB = np.linalg.eigh(B)
                sqB = QB @ np.diag(np.sqrt(np.clip(evB, 0, None))) @ QB.conj().T
                lams = np.linalg.eigvalsh(sqB @ A @ sqB)
                det_ok = det_ok and np.prod(np.abs(1 - 1j * beta * lams)) >= 1 - 1e-9
                count += 1
    ok = worst <= 4 and det_ok and count == 40
    _report("A6", ok, f"max |MC - oracle| / se {worst:.2f} over {count} instances, "
            f"det modulus bound {det_ok}", time.time() - t0, 60)


@pytest.mark.slow
def test_A7_phase_expectation(rot_sol, quartic_sol):
    t0 = time.time()
    data = eq.interpolation_data(rot_sol, 1.0)
    ok, detail = True, []
    for beta in (2.0, 4.0):
        kp = fl.fourier_kernels(data, beta, fl.gaussian_law(data, beta))
        limit = fl.fredholm_expectation(kp, beta)
        mc, se, info = sp.phase_expectation_mc(data, 64, beta, sweeps=900, seed=31415)
        z = (mc - limit) / se
        # within 4 chain-level standard errors in each part
        ok = ok and abs(z.real) <= 4 and abs(z.imag) <= 4
        detail.append(f"beta {beta:g}: MC {mc:.5f}, limit {limit:.5f}, se {se:.1e}, "
                      f"(MC - limit)/se {z.real:.2f} re, {z.imag:.2f} im")
    # real-line curve: the phase statistic vanishes identically
    real_data = eq.interpolation_data(quartic_sol, 1.0)
    one, _, _ = sp.phase_expectation_mc(real_data, 16, 2.0, sweeps=40, seed=3)
    ok = ok and one == pytest.approx(1.0, abs=1e-9)
    _report("A7", ok, "; ".join(detail) + f"; real line -> {one:.6f}",
            time.time() - t0, 600)


def test_A8_loop_equation(quad_sol):
    t0 = time.time()
    data = eq.interpolation_data(quad_sol, 0.0)
    r2 = abs(fl.loop_equation_check(2, 2.0, data, domain=(-1.0, 2.0), M=160))
    r3 = abs(fl.loop_equation_check(3, 2.0, data, domain=(-1.0, 2.0), M=72))
    ok = r2 <= 1e-5 and r3 <= 1e-5
    _report("A8", ok, f"k=0 residuals: N=2 {r2:.1e}, N=3 {r3:.1e}",
            time.time() - t0, 300)


@pytest.mark.slow
def test_A9_concentration_scaling(quad_sol):
    t0 = time.time()
    data = eq.interpolation_data(quad_sol, 0.0)
    rows, exponent = sp.concentration_scan(data, [32, 64, 128], sweeps=350,
                                           seed=2024, snapshots_per_chain=5)
    decreasing = all(rows[i + 1]["mean_abs_stat"] < rows[i]["mean_abs_stat"]
                     for i in range(len(rows) - 1))
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(8, 24))
        pts = rng.random(k) + 0.3j * rng.random(k)
        m = rng.normal(size=k)
        m -= m.mean()
        worst = min(worst, log_energy_form(m, pts, n_theta=8, n_rho=32))
    ok = 0.7 <= exponent <= 1.3 and worst >= -1e-10 and decreasing
    _report("A9", ok, f"fitted D^2 decay exponent {exponent:.3f}, "
            f"min log-energy over 100 random {worst:.1e}, stat decreasing {decreasing}",
            time.time() - t0, 600)
