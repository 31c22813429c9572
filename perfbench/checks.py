"""Oracle checks and failure accounting.

Every checked operation is one attempt.  An attempt fails when its residual
misses the bound below, or when the operation raises one of the package's
typed errors.  Counts are kept per layer.
"""

import math

import numpy as np

from contourgas.contour import ParametrizationError
from contourgas.equilibrium import NoSolutionError, NotOneCutError
from contourgas.fluctuations import CovarianceError
from contourgas.operators import NearSingularError
from contourgas.sampler import TuningError

# check name -> (layer, predicate on the measured value, bound as text)
BOUNDS = {
    "mass_residual": ("equilibrium", lambda v: v <= 1e-10, "<= 1e-10"),
    "roundtrip": ("operators", lambda v: v <= 1e-7, "<= 1e-7"),
    "pullback": ("contour", lambda v: v <= 1e-8, "<= 1e-8"),
    "fredholm_abs": ("fluctuations", lambda v: v <= 1 + 1e-9, "<= 1 + 1e-9"),
    "selberg_relerr": ("partition", lambda v: v <= 1e-6, "<= 1e-6"),
    "ratio_abs": ("partition", lambda v: 0 < v <= 1 + 1e-12, "in (0, 1 + 1e-12]"),
    "log_energy": ("numkit", lambda v: v >= -1e-10, ">= -1e-10"),
    "clt_z": ("sampler", lambda v: abs(v) <= 4, "|z| <= 4"),
    "cli_exit": ("cli", lambda v: v == 0, "== 0"),
    "verify_all_passed": ("cli", lambda v: v is True, "is true"),
    "report_bytes_equal": ("cli", lambda v: v is True, "is true"),
}

# typed error -> layer it is charged to
ERROR_LAYER = (
    (NoSolutionError, "equilibrium"),
    (NotOneCutError, "equilibrium"),
    (ParametrizationError, "contour"),
    (NearSingularError, "operators"),
    (CovarianceError, "fluctuations"),
    (TuningError, "sampler"),
)
TYPED_ERRORS = tuple(cls for cls, _ in ERROR_LAYER)


class Ledger:
    def __init__(self):
        self.attempted = {}
        self.failed = {}
        self.misses = []

    def _count(self, layer, ok):
        self.attempted[layer] = self.attempted.get(layer, 0) + 1
        self.failed[layer] = self.failed.get(layer, 0) + (not ok)

    def check(self, name, value, layer=None):
        """Count one attempt of check `name` on `value`; returns whether it
        passed.  A NaN residual fails."""
        default_layer, passes, bound = BOUNDS[name]
        layer = layer or default_layer
        try:
            ok = bool(passes(value))    # NaN compares false, so it fails
        except TypeError:
            ok = False
        self._count(layer, ok)
        if not ok:
            self.misses.append(f"{layer}: {name} = {value!r}, want {bound}")
        return ok

    def error(self, exc):
        """Count a typed error raised by an operation as a failed attempt."""
        layer = next(lay for cls, lay in ERROR_LAYER if isinstance(exc, cls))
        self._count(layer, False)
        self.misses.append(f"{layer}: {type(exc).__name__}: {exc}")

    @property
    def total_attempted(self):
        return sum(self.attempted.values())

    @property
    def total_failed(self):
        return sum(self.failed.values())


# -- residuals -----------------------------------------------------------


def roundtrip_residual(op, g):
    """A3: max |X X^-1 g - (g - K g)| for nodal values g."""
    g = np.asarray(g)
    return float(np.max(np.abs(op.apply(op.inverse_apply(g)) - (g - op.k_functional(g)))))


def pullback_residual(sol, data, x):
    """A4: max relative residual of the semicircle pullback identity at the
    parameter nodes x (x strictly inside (0, 1))."""
    target = (8 / math.pi) * np.sqrt(x * (1 - x))
    if data.t == 1.0:
        lhs = (1 / (1j * math.pi)) * sol.S(sol.curve(x)) * sol.r_plus(x) * sol.curve.deriv1(x)
        return float(np.max(np.abs(lhs - target) / target))
    gt = data.gt(x)
    sq = data.st_grid(x) ** 2 * (gt - sol.zeta1) * (gt - sol.zeta2) * data.gtp(x) ** 2
    return float(np.max(np.abs(sq - (1j * math.pi * target) ** 2) / np.abs(target) ** 2))


def relative_error(value, exact):
    return float(abs(value - exact) / abs(exact))
