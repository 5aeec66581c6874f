"""Numeric verification of the explicit harmonic metric and its operators.

The inclusion of a Fuchsian group into SL(2, R) admits a totally geodesic
equivariant metric, in coordinates tau = x + iy on the upper half-plane:

    K(tau) = (1/y) [[1, -x], [-x, x^2 + y^2]],

a real symmetric positive matrix of determinant 1.  This module checks,
in floating point with central finite differences:

* the equivariance law K(g tau) = g^{-T} K(tau) conj(g)^{-1} for integer
  unimodular g (the representation is the inclusion itself);
* the harmonic equation d dbar log K = (1/2)[dbar log K, d log K], where
  D log G means G^{-1} D(G) applied entrywise;
* the closed-form Higgs field theta = -(1/2) d log conj(K) against its
  finite-difference evaluation, together with nilpotency (theta^2, trace
  and determinant all vanish);
* the closed-form dbar correction matrix, and the fact that multiplying a
  pair of holomorphic functions by the basis matrix M(tau) produces a
  matrix-annihilated (dbar-closed) section;
* the constant-basis form of the conjugated field M^{-1} theta M and the
  one-parameter rescaling family a_lambda with a_lambda theta a_lambda^{-1}
  = lambda theta.

Derivatives use Wirtinger operators d = (d/dx - i d/dy)/2 and
dbar = (d/dx + i d/dy)/2 with second-order central differences.

Every operator takes a complex array z of points and, if it differences,
a float step h; matrices come back with shape z.shape + (2, 2) and
residuals with shape z.shape, so each check runs once over the whole
sample grid, and one point is an array of one.  A point is a complex
number checked where it is made: an `UpperHalfPoint` is one above the
conditioning floor, `wirtinger` refuses a step whose lowest difference
point z - ih leaves the upper half-plane, and `equivariance_residual`
keeps each Moebius image above the floor; no operator re-checks its
input.  Within one report the harmonic residual, the costliest
operator, is evaluated once per distinct step and shared by the checks
that read it.

The battery `verification_report` runs is the table `_CHECKS`: one row
per check, in report order, holding the check and its default tolerance.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, Literal

import numpy as np

MIN_Y = 0.1  # conditioning floor: points and their Moebius images keep y above it

# Generators of the modular group as integer unimodular matrices.
GAMMA_S = ((0, -1), (1, 0))
GAMMA_T = ((1, 1), (0, 1))

MatrixFn = Callable[[np.ndarray], np.ndarray]


class UpperHalfPoint(complex):
    """A finite point tau = x + iy with y above the conditioning floor MIN_Y:
    the complex number itself, checked where it is made."""

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> UpperHalfPoint:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"need finite x and y, got x = {x}, y = {y}")
        if not math.isfinite(x * x + y * y):  # the metric's corner entry
            raise ValueError(f"need finite x*x + y*y, got x = {x}, y = {y}")
        if not y > MIN_Y:
            raise ValueError(f"need y > {MIN_Y}, got y = {y}")
        return super().__new__(cls, x, y)

    @classmethod
    def parse(cls, text: str) -> UpperHalfPoint:
        """Parse 'x+yi' (also plain 'i', '2i', '0.3+1.2i'); 'inf' and 'nan' stay intact."""
        text = text.strip().replace(" ", "")
        z = complex(text[:-1] + "j" if text.endswith("i") else text)
        return cls(z.real, z.imag)


def _require_positive(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _check_step(h: float) -> None:
    """A central-difference step must be finite and positive.  Steps outside
    [1e-6, 1e-2] are allowed but warn: below the window roundoff dominates,
    above it truncation does."""
    _require_positive("step", h)
    if h < 1e-6:
        warnings.warn(f"step underflow: h = {h} < 1e-6, roundoff will dominate")
    elif h > 1e-2:
        warnings.warn(f"step h = {h} > 1e-2, truncation will dominate")


def _stack(a, b, c, d, dtype=complex) -> np.ndarray:
    """[[a, b], [c, d]] with the entries broadcast together: shape (..., 2, 2)."""
    out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def metric_at(z: np.ndarray) -> np.ndarray:
    """The totally geodesic metric for the inclusion representation."""
    x, y = z.real, z.imag
    return _stack(1.0, -x, -x, x * x + y * y, dtype=float) / y[..., None, None]


def equivariance_residual(z: np.ndarray, gamma) -> np.ndarray:
    """Max-entry gap between K(gamma tau) and g^{-T} K(tau) conj(g)^{-1}.

    gamma must be an integer matrix of determinant 1, or a stack of them
    (..., 2, 2) broadcast against the points; every Moebius image must stay
    above the conditioning floor, and the first one that does not (in C
    order of the broadcast shape) is named in the error.  A point below the
    real axis has its images there too, so the floor test covers z.
    """
    (a, b), (c, d) = np.moveaxis(np.asarray(gamma), (-2, -1), (0, 1))
    if np.any(a * d - b * c != 1):
        raise ValueError(f"gamma must have determinant 1, got {gamma}")
    w = (a * z + b) / (c * z + d)
    low = w.imag <= MIN_Y
    if low.any():
        raise ValueError(f"gamma tau = {complex(w[low][0])} fell below the floor y = {MIN_Y}")
    ginv = _stack(d, -b, -c, a, dtype=float)  # exact unimodular inverse
    rhs = np.swapaxes(ginv, -1, -2) @ metric_at(z) @ np.conj(ginv)
    return np.abs(metric_at(w) - rhs).max(axis=(-2, -1))


def wirtinger(fn: MatrixFn, z: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise (d, dbar) of fn at the points z, by central differences with step h.

    The lowest difference point z - ih must lie in the upper half-plane; the
    first one that does not (in C order) is named in the error, before fn runs.
    """
    _check_step(h)
    low = z - 1j * h
    below = low.imag <= 0
    if below.any():
        raise ValueError(f"point {complex(low[below][0])} is not in the upper half-plane")
    fx = (np.asarray(fn(z + h), dtype=complex) - np.asarray(fn(z - h), dtype=complex)) / (2 * h)
    fy = (np.asarray(fn(z + 1j * h), dtype=complex) - np.asarray(fn(low), dtype=complex)) / (2 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def log_derivative(selector: Literal["d", "dbar"], z: np.ndarray, h: float, fn: MatrixFn = metric_at) -> np.ndarray:
    """D log G = G^{-1} (D applied entrywise to G), D in {d, dbar}."""
    if selector not in ("d", "dbar"):
        raise ValueError(f"selector must be 'd' or 'dbar', got {selector!r}")
    d, dbar = wirtinger(fn, z, h)
    return np.linalg.inv(np.asarray(fn(z), dtype=complex)) @ (d if selector == "d" else dbar)


def theta_closed_form(z: np.ndarray) -> np.ndarray:
    """Higgs field of the inclusion metric, as a dtau form."""
    zb = z.conjugate()
    return _stack(-zb, zb * zb, -1.0, zb) / ((z - zb) ** 2)[..., None, None]


def dbar_correction_closed_form(z: np.ndarray) -> np.ndarray:
    """Matrix N with dbar_K = dbar + N dtaubar for the inclusion metric."""
    zb = z.conjugate()
    return _stack(z, -z * z, 1.0, -z) / ((z - zb) ** 2)[..., None, None]


def theta_finite_difference(z: np.ndarray, h: float) -> np.ndarray:
    """theta = -(1/2) d log conj(K), by finite differences."""
    return -0.5 * log_derivative("d", z, h, fn=lambda w: np.conj(metric_at(w).astype(complex)))


def harmonic_residual(z: np.ndarray, h: float, fn: MatrixFn = metric_at) -> np.ndarray:
    """Max-entry residual of d dbar log K - (1/2)[dbar log K, d log K].

    The outer derivative nests finite differences; steps below 1e-4 make
    the nested second difference ill-conditioned and warn, after any
    warning `wirtinger` gives on the step.  At the points themselves
    a = dbar log K and b = d log K share one Wirtinger pair and one
    inverse of K, with the bits `log_derivative` gives each.
    """
    outer_d, _ = wirtinger(lambda w: log_derivative("dbar", w, h, fn=fn), z, h)
    if h < 1e-4:
        warnings.warn(f"h = {h} < 1e-4 conditions the nested second difference poorly")
    d, dbar = wirtinger(fn, z, h)
    k_inv = np.linalg.inv(np.asarray(fn(z), dtype=complex))
    a, b = k_inv @ dbar, k_inv @ d
    return np.abs(outer_d - 0.5 * (a @ b - b @ a)).max(axis=(-2, -1))


def higgs_form_basis(z: np.ndarray) -> np.ndarray:
    """Basis matrix M(tau) carrying a pair of holomorphic functions to a
    dbar_K-closed section."""
    zb = z.conjugate()
    return _stack(-zb / (z - zb), z, -1.0 / (z - zb), 1.0)


def higgs_form_residual(
    g: Callable[[np.ndarray], complex], h: Callable[[np.ndarray], complex], z: np.ndarray, step: float
) -> np.ndarray:
    """Residual of dbar f + N f for f = M(tau) (g, h)^T.

    Vanishes (to truncation) whenever g and h are holomorphic near the
    points; only this local identity is checked, no automorphy is imposed.
    """

    def section(w: np.ndarray) -> np.ndarray:
        """f as a column (..., 2, 1); a constant g or h is broadcast to w."""
        gw, hw, _ = np.broadcast_arrays(g(w), h(w), w)
        return higgs_form_basis(w) @ np.stack([gw, hw], axis=-1)[..., None]

    _, dbar_f = wirtinger(section, z, step)
    return np.abs(dbar_f + dbar_correction_closed_form(z) @ section(z)).max(axis=(-2, -1))


def conjugated_higgs(z: np.ndarray) -> np.ndarray:
    """M(tau)^{-1} theta M(tau); constant [[0, 1], [0, 0]] up to roundoff."""
    m = higgs_form_basis(z)
    return np.linalg.inv(m) @ theta_closed_form(z) @ m


def a_lambda(z: np.ndarray, lam: complex) -> np.ndarray:
    """Automorphism rescaling the Higgs field by lambda (nonzero)."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    zb = z.conjugate()
    return _stack(z - lam * zb, (lam - 1) * z * zb, 1 - lam, lam * z - zb) / (z - zb)[..., None, None]


def sample_grid(count: int = 20, seed: int = 0) -> np.ndarray:
    """Deterministic quasi-random sample points in the box -1 <= x < 1, 0.5 <= y < 3.

    Uses the R2 additive recurrence (plastic-constant lattice); the seed
    offsets the start index, so equal seeds reproduce equal grids.  Each
    index is a Python int, rounded once to a float, so a seed beyond
    numpy's int64 gives the same points as the index loop would.  count
    and seed must be ints, not bools: True would read as 1, and 2.5 fail
    inside the sampler.
    """
    for name, value in (("count", count), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    phi = 1.324717957244746  # real root of t^3 = t + 1
    ax, ay = 1.0 / phi, 1.0 / phi**2
    start = 1 + seed * 997
    k = np.array(range(start, start + count), dtype=float)
    ux, uy = (0.5 + k * ax) % 1.0, (0.5 + k * ay) % 1.0
    return (-1.0 + 2.0 * ux) + 1j * (0.5 + 2.5 * uy)


# --- aggregated verification -------------------------------------------------

# the words S, T, ST, TS and TTS, stacked
_EQUIVARIANCE_GAMMAS = np.array([GAMMA_S, GAMMA_T, ((0, -1), (1, 1)), ((1, -1), (1, 0)), ((2, -1), (1, 0))])

_POLY_PAIRS = (
    (lambda z: 1.0 + 0j, lambda z: 0j),
    (lambda z: 0j, lambda z: 1.0 + 0j),
    (lambda z: z * z, lambda z: z),
)


def _worst(*gaps) -> float:
    """The largest |entry| over all the arrays given."""
    return max(float(np.max(np.abs(gap))) for gap in gaps)


def _check_metric_shape(z, h, h_nested, harmonic_at) -> float:
    k = metric_at(z)
    det = np.linalg.det(k)
    gap = _worst(k - np.swapaxes(k, -1, -2), det - 1.0)
    # positive definite: both leading minors strictly positive; a metric that
    # is not (det cancels to 0 at large |x|) fails by a finite gap of at least 1
    return gap if np.all((k[..., 0, 0] > 0) & (det > 0)) else max(gap, 1.0)


def _check_equivariance(z, h, h_nested, harmonic_at) -> float:
    # points on axis 0, gammas on axis 1: a low image is named point-major
    return _worst(equivariance_residual(z[:, None], _EQUIVARIANCE_GAMMAS))


def _check_theta_fd(z, h, h_nested, harmonic_at) -> float:
    return _worst(theta_closed_form(z) - theta_finite_difference(z, h))


def _check_harmonic(z, h, h_nested, harmonic_at) -> float:
    return _worst(harmonic_at(h_nested))


def _check_convergence_order(z, h, h_nested, harmonic_at) -> float:
    h_big, h_small = 1e-2, 1e-3  # h_small is the default h_nested: one evaluation serves both
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        big, small = harmonic_at(h_big), harmonic_at(h_small)
    # math.log, not np.log: numpy's may differ in the last ulp between CPUs
    slopes = sorted(
        math.log(b / s) / math.log(h_big / h_small) for b, s in zip(big.tolist(), small.tolist())
    )
    return abs(slopes[len(slopes) // 2] - 2.0)


def _check_theta_nilpotent(z, h, h_nested, harmonic_at) -> float:
    th = theta_closed_form(z)
    return _worst(th @ th, np.trace(th, axis1=-2, axis2=-1), np.linalg.det(th))


def _check_conjugated(z, h, h_nested, harmonic_at) -> float:
    return _worst(conjugated_higgs(z) - np.array([[0.0, 1.0], [0.0, 0.0]]))


def _check_scaling_conjugation(z, h, h_nested, harmonic_at) -> float:
    th = theta_closed_form(z)
    worst = 0.0
    for lam in (2.0 + 0j, 1j):
        al = a_lambda(z, lam)
        worst = max(worst, _worst(al @ th @ np.linalg.inv(al) - lam * th))
    return worst


def _check_scaling_group_law(z, h, h_nested, harmonic_at) -> float:
    worst = _worst(a_lambda(z, 1.0) - np.eye(2))
    for lam, mu in ((2.0 + 0j, 1j), (1j, 1j), (0.5 + 0.5j, 3.0 + 0j)):
        worst = max(worst, _worst(a_lambda(z, lam) @ a_lambda(z, mu) - a_lambda(z, lam * mu)))
    return worst


def _check_higgs_forms(z, h, h_nested, harmonic_at) -> float:
    return max(_worst(higgs_form_residual(g, hh, z, h)) for g, hh in _POLY_PAIRS)


# The battery, one row per check in report order: name -> (check, default
# tolerance).  A check takes the grid z, both steps, and harmonic_at(step):
# z's harmonic residual at a step
_CHECKS = {
    "metric_shape": (_check_metric_shape, 1e-12),
    "equivariance": (_check_equivariance, 1e-10),
    "theta_vs_finite_difference": (_check_theta_fd, 1e-5),
    "harmonic_equation": (_check_harmonic, 1e-4),
    "harmonic_convergence_order_deviation": (_check_convergence_order, 0.3),
    "theta_nilpotent": (_check_theta_nilpotent, 1e-12),
    "conjugated_higgs_constant": (_check_conjugated, 1e-10),
    "scaling_conjugation": (_check_scaling_conjugation, 1e-10),
    "scaling_group_law": (_check_scaling_group_law, 1e-10),
    "higgs_form_closedness": (_check_higgs_forms, 1e-5),
}


def verification_report(
    grid: list[UpperHalfPoint] | None = None,
    count: int = 20,
    seed: int | None = 0,
    h: float = 1e-4,
    h_nested: float = 1e-3,
    only: str | None = None,
    tolerance: float | None = None,
) -> dict:
    """Run the full battery (or a single named check) over a sample grid:
    `grid` if given, else `count` points chosen by `seed`.  Each point of
    `grid` must be an UpperHalfPoint (TypeError otherwise), and an empty
    `grid` is refused (ValueError).  A check whose floats overflow or turn
    invalid, or whose matrix is singular, is refused by a ValueError naming
    it, never reported on what is left.

    Returns {parameters, checks: [{check_name, max_residual, tolerance,
    pass}], pass}; the order-deviation row reports |empirical order - 2|.
    `harmonic_residual` runs once per distinct step within one report, so
    each row equals that check's row run alone.
    """
    _require_positive("h", h)
    _require_positive("h_nested", h_nested)
    if tolerance is not None:
        _require_positive("tolerance", tolerance)
    if grid is not None and len(grid) == 0:  # no point to take a maximum or a median over
        raise ValueError("grid must hold at least one point")
    if grid is not None and (unchecked := [pt for pt in grid if not isinstance(pt, UpperHalfPoint)]):
        raise TypeError(f"grid point {unchecked[0]!r} is not an UpperHalfPoint")
    z = sample_grid(count=count, seed=seed) if grid is None else np.array(grid, dtype=complex)
    if only is not None and only not in _CHECKS:
        raise ValueError(f"unknown check {only!r}; choose from {sorted(_CHECKS)}")
    harmonic_at = functools.cache(lambda step: harmonic_residual(z, step))
    rows = []
    for name in [only] if only else _CHECKS:
        check, default = _CHECKS[name]
        try:  # an overflow would leave zeros or infinities where a residual should be
            with np.errstate(over="raise", invalid="raise"):
                residual = check(z, h, h_nested, harmonic_at)
        except np.linalg.LinAlgError:  # singular in floats, as K's entries cancel at tau = 1e8 + 1i
            raise ValueError(f"{name}: a matrix is singular in floating point at the sample points") from None
        except FloatingPointError:  # as (2y)^2 in theta at tau = 1e154i
            raise ValueError(f"{name}: the arithmetic overflows or turns invalid in floating point at the sample points") from None
        tol = tolerance if tolerance is not None else default
        rows.append(
            {
                "check_name": name,
                "max_residual": residual,
                "tolerance": tol,
                "pass": bool(residual < tol),
            }
        )
    return {
        "parameters": {
            "grid_size": len(z),
            "seed": seed,
            "h": h,
            "h_nested": h_nested,
        },
        "checks": rows,
        "pass": all(row["pass"] for row in rows),
    }
