"""Numerical laboratory for one-cut log-gas ensembles on complex contours.

The public names below are imported from their modules on first access
(PEP 562), so `import contourgas` and `import contourgas.cli` load neither
numpy nor scipy: the command line can cap the numeric backends' threads
before they start."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "numkit": ("BranchTrack", "ChebSeries", "ComplexPolynomial", "WeightedGrid",
               "log_energy_form", "make_grid", "poly_normalize", "tensor_quadrature",
               "track_arg"),
    "contour": ("Curve", "arc_mass", "bilipschitz_check",
                "family_member", "semicircle_cdf", "semicircle_parametrization"),
    "equilibrium": ("InterpolationData", "OneCutSolution", "interpolation_data",
                    "solve_one_cut"),
    "operators": ("DiscretizedOperator", "complex_master_operator",
                  "finite_hilbert_transform", "real_master_operator"),
    "fluctuations": ("GaussianLaw", "KernelPair", "finite_rank_oracle",
                     "fourier_kernels", "fredholm_expectation", "gaussian_law",
                     "loop_equation_check", "one_stat_expansion", "phase_kernels",
                     "wick_moments"),
    "partition": ("ExpansionReport", "dt_lnZ", "f_coefficients",
                  "factorial_product_reduce", "selberg_exact", "selberg_expansion",
                  "z_complex_quadrature", "z_real_quadrature"),
    "sampler": ("ParticleChain", "concentration_scan", "edge_density_estimate",
                "log_energy_distance", "make_chain", "phase_expectation_mc",
                "regularize", "sample_real_model"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
