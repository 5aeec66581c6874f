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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

DEFAULT_MIN_Y = 0.1

# Generators of the modular group as integer unimodular matrices.
GAMMA_S = ((0, -1), (1, 0))
GAMMA_T = ((1, 1), (0, 1))

MatrixFn = Callable[[complex], np.ndarray]


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point tau = x + iy with y above a configurable conditioning floor."""

    x: float
    y: float
    min_y: float = field(default=DEFAULT_MIN_Y, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.y > self.min_y:
            raise ValueError(f"need y > {self.min_y}, got y = {self.y}")

    @property
    def tau(self) -> complex:
        return complex(self.x, self.y)

    @classmethod
    def from_complex(cls, z: complex, min_y: float = DEFAULT_MIN_Y) -> UpperHalfPoint:
        return cls(z.real, z.imag, min_y)

    @classmethod
    def parse(cls, text: str) -> UpperHalfPoint:
        """Parse 'x+yi' (also plain 'i', '2i', '0.3+1.2i')."""
        z = complex(text.strip().replace(" ", "").replace("i", "j"))
        return cls.from_complex(z)


@dataclass(frozen=True)
class FiniteDiffScheme:
    """Central second-order differences with step h.

    Steps outside [1e-6, 1e-2] are allowed but warn: below the window
    roundoff dominates, above it truncation does.
    """

    h: float = 1e-4
    order: Literal["central-2nd"] = "central-2nd"

    def __post_init__(self) -> None:
        if not math.isfinite(self.h):
            raise ValueError(f"step must be finite, got {self.h}")
        if self.h <= 0:
            raise ValueError(f"step must be positive, got {self.h}")
        if self.h < 1e-6:
            warnings.warn(f"step underflow: h = {self.h} < 1e-6, roundoff will dominate")
        elif self.h > 1e-2:
            warnings.warn(f"step h = {self.h} > 1e-2, truncation will dominate")


@dataclass(frozen=True)
class OperatorSample:
    """A matrix-valued form sampled at one point, tagged with its form type."""

    mat: np.ndarray
    form: Literal["dtau", "dtaubar"]


def _as_tau(point: UpperHalfPoint | complex) -> complex:
    if isinstance(point, UpperHalfPoint):
        return point.tau
    z = complex(point)
    if z.imag <= 0:
        raise ValueError(f"point {z} is not in the upper half-plane")
    return z


def metric_at(z: complex) -> np.ndarray:
    """The totally geodesic metric for the inclusion representation."""
    x, y = z.real, z.imag
    if y <= 0:
        raise ValueError(f"point {z} is not in the upper half-plane")
    return np.array([[1.0, -x], [-x, x * x + y * y]]) / y


def eval_metric(point: UpperHalfPoint | complex) -> np.ndarray:
    return metric_at(_as_tau(point))


def moebius_apply(gamma, z: complex) -> complex:
    (a, b), (c, d) = gamma
    return (a * z + b) / (c * z + d)


def equivariance_residual(
    point: UpperHalfPoint | complex, gamma, min_y: float = DEFAULT_MIN_Y
) -> float:
    """Max-entry gap between K(gamma tau) and g^{-T} K(tau) conj(g)^{-1}.

    gamma must be an integer matrix of determinant 1; its Moebius image of
    tau must stay above the conditioning floor.
    """
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError(f"gamma must have determinant 1, got {gamma}")
    z = _as_tau(point)
    w = moebius_apply(gamma, z)
    if w.imag <= min_y:
        raise ValueError(f"gamma tau = {w} fell below the floor y = {min_y}")
    ginv = np.array([[d, -b], [-c, a]], dtype=float)  # exact unimodular inverse
    lhs = metric_at(w)
    rhs = ginv.T @ metric_at(z) @ np.conj(ginv)
    return float(np.max(np.abs(lhs - rhs)))


def wirtinger(
    fn: MatrixFn, point: UpperHalfPoint | complex, scheme: FiniteDiffScheme
) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise (d, dbar) of fn at the point, by central differences."""
    z = _as_tau(point)
    h = scheme.h
    fx = (np.asarray(fn(z + h), dtype=complex) - np.asarray(fn(z - h), dtype=complex)) / (2 * h)
    fy = (np.asarray(fn(z + 1j * h), dtype=complex) - np.asarray(fn(z - 1j * h), dtype=complex)) / (2 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def log_derivative(
    selector: Literal["d", "dbar"],
    point: UpperHalfPoint | complex,
    scheme: FiniteDiffScheme,
    fn: MatrixFn = metric_at,
) -> OperatorSample:
    """D log G = G^{-1} (D applied entrywise to G), D in {d, dbar}."""
    if selector not in ("d", "dbar"):
        raise ValueError(f"selector must be 'd' or 'dbar', got {selector!r}")
    z = _as_tau(point)
    d, dbar = wirtinger(fn, z, scheme)
    g = np.asarray(fn(z), dtype=complex)
    mat = np.linalg.inv(g) @ (d if selector == "d" else dbar)
    return OperatorSample(mat, "dtau" if selector == "d" else "dtaubar")


def theta_closed_form(point: UpperHalfPoint | complex) -> OperatorSample:
    """Higgs field of the inclusion metric, as a dtau form."""
    z = _as_tau(point)
    zb = z.conjugate()
    mat = np.array([[-zb, zb * zb], [-1.0, zb]], dtype=complex) / (z - zb) ** 2
    return OperatorSample(mat, "dtau")


def dbar_correction_closed_form(point: UpperHalfPoint | complex) -> OperatorSample:
    """Matrix N with dbar_K = dbar + N dtaubar for the inclusion metric."""
    z = _as_tau(point)
    zb = z.conjugate()
    mat = np.array([[z, -z * z], [1.0, -z]], dtype=complex) / (z - zb) ** 2
    return OperatorSample(mat, "dtaubar")


def theta_finite_difference(
    point: UpperHalfPoint | complex,
    scheme: FiniteDiffScheme,
    fn: MatrixFn = metric_at,
) -> OperatorSample:
    """theta = -(1/2) d log conj(K), by finite differences.

    Conjugation is applied generically even though the inclusion metric is
    real, so the operator stays correct for Hermitian inputs.
    """

    def fn_bar(z: complex) -> np.ndarray:
        return np.conj(np.asarray(fn(z), dtype=complex))

    sample = log_derivative("d", point, scheme, fn=fn_bar)
    return OperatorSample(-0.5 * sample.mat, "dtau")


def harmonic_residual(
    point: UpperHalfPoint | complex,
    scheme: FiniteDiffScheme,
    fn: MatrixFn = metric_at,
) -> float:
    """Max-entry residual of d dbar log K - (1/2)[dbar log K, d log K].

    The outer derivative nests finite differences; steps below 1e-4 make
    the nested second difference ill-conditioned and warn.
    """
    if scheme.h < 1e-4:
        warnings.warn(
            f"h = {scheme.h} < 1e-4 conditions the nested second difference poorly"
        )
    z = _as_tau(point)

    def dbar_log(w: complex) -> np.ndarray:
        return log_derivative("dbar", w, scheme, fn=fn).mat

    outer_d, _ = wirtinger(dbar_log, z, scheme)
    a = dbar_log(z)
    b = log_derivative("d", z, scheme, fn=fn).mat
    return float(np.max(np.abs(outer_d - 0.5 * (a @ b - b @ a))))


def higgs_form_basis(point: UpperHalfPoint | complex) -> np.ndarray:
    """Basis matrix M(tau) carrying a pair of holomorphic functions to a
    dbar_K-closed section."""
    z = _as_tau(point)
    zb = z.conjugate()
    return np.array([[-zb / (z - zb), z], [-1.0 / (z - zb), 1.0]], dtype=complex)


def higgs_form_residual(
    g: Callable[[complex], complex],
    h: Callable[[complex], complex],
    point: UpperHalfPoint | complex,
    scheme: FiniteDiffScheme,
) -> float:
    """Residual of dbar f + N f for f = M(tau) (g, h)^T.

    Vanishes (to truncation) whenever g and h are holomorphic near the
    point; only this local identity is checked, no automorphy is imposed.
    """
    z = _as_tau(point)

    def section(w: complex) -> np.ndarray:
        return higgs_form_basis(w) @ np.array([g(w), h(w)], dtype=complex)

    _, dbar_f = wirtinger(section, z, scheme)
    n_mat = dbar_correction_closed_form(z).mat
    return float(np.max(np.abs(dbar_f + n_mat @ section(z))))


def conjugated_higgs(point: UpperHalfPoint | complex) -> np.ndarray:
    """M(tau)^{-1} theta M(tau); constant [[0, 1], [0, 0]] up to roundoff."""
    z = _as_tau(point)
    m = higgs_form_basis(z)
    return np.linalg.inv(m) @ theta_closed_form(z).mat @ m


def a_lambda(point: UpperHalfPoint | complex, lam: complex) -> np.ndarray:
    """Automorphism rescaling the Higgs field by lambda (nonzero)."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    z = _as_tau(point)
    zb = z.conjugate()
    return np.array(
        [[z - lam * zb, (lam - 1) * z * zb], [1 - lam, lam * z - zb]], dtype=complex
    ) / (z - zb)


def sample_grid(
    count: int = 20,
    seed: int = 0,
    x_range: tuple[float, float] = (-1.0, 1.0),
    y_range: tuple[float, float] = (0.5, 3.0),
) -> list[UpperHalfPoint]:
    """Deterministic quasi-random sample points in a box off the real axis.

    Uses the R2 additive recurrence (plastic-constant lattice); the seed
    offsets the start index, so equal seeds reproduce equal grids.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    phi = 1.324717957244746  # real root of t^3 = t + 1
    ax, ay = 1.0 / phi, 1.0 / phi**2
    points = []
    for i in range(count):
        k = 1 + seed * 997 + i
        ux = (0.5 + k * ax) % 1.0
        uy = (0.5 + k * ay) % 1.0
        x = x_range[0] + (x_range[1] - x_range[0]) * ux
        y = y_range[0] + (y_range[1] - y_range[0]) * uy
        points.append(UpperHalfPoint(x, y))
    return points


# --- aggregated verification -------------------------------------------------

DEFAULT_TOLERANCES = {
    "metric_shape": 1e-12,
    "equivariance": 1e-10,
    "theta_vs_finite_difference": 1e-5,
    "harmonic_equation": 1e-4,
    "harmonic_convergence_order_deviation": 0.3,
    "theta_nilpotent": 1e-12,
    "conjugated_higgs_constant": 1e-10,
    "scaling_conjugation": 1e-10,
    "scaling_group_law": 1e-10,
    "higgs_form_closedness": 1e-5,
}

_EQUIVARIANCE_GAMMAS = {
    "S": GAMMA_S,
    "T": GAMMA_T,
    "ST": ((0, -1), (1, 1)),
    "TS": ((1, -1), (1, 0)),
    "TTS": ((2, -1), (1, 0)),
}

_POLY_PAIRS = (
    (lambda z: 1.0 + 0j, lambda z: 0j),
    (lambda z: 0j, lambda z: 1.0 + 0j),
    (lambda z: z * z, lambda z: z),
)


def _check_metric_shape(grid, h, h_nested) -> float:
    worst = 0.0
    for pt in grid:
        k = eval_metric(pt)
        worst = max(worst, float(np.max(np.abs(k - k.T))))
        worst = max(worst, abs(float(np.linalg.det(k)) - 1.0))
        # positive definite: both leading minors strictly positive
        if not (k[0, 0] > 0 and np.linalg.det(k) > 0):
            worst = max(worst, math.inf)
    return worst


def _check_equivariance(grid, h, h_nested) -> float:
    return max(
        equivariance_residual(pt, gamma)
        for pt in grid
        for gamma in _EQUIVARIANCE_GAMMAS.values()
    )


def _check_theta_fd(grid, h, h_nested) -> float:
    scheme = FiniteDiffScheme(h)
    return max(
        float(np.max(np.abs(theta_closed_form(pt).mat - theta_finite_difference(pt, scheme).mat)))
        for pt in grid
    )


def _check_harmonic(grid, h, h_nested) -> float:
    scheme = FiniteDiffScheme(h_nested)
    return max(harmonic_residual(pt, scheme) for pt in grid)


def _check_convergence_order(grid, h, h_nested) -> float:
    h_big, h_small = 1e-2, 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        slopes = []
        for pt in grid:
            big = harmonic_residual(pt, FiniteDiffScheme(h_big))
            small = harmonic_residual(pt, FiniteDiffScheme(h_small))
            slopes.append(math.log(big / small) / math.log(h_big / h_small))
    slopes.sort()
    order = slopes[len(slopes) // 2]
    return abs(order - 2.0)


def _check_theta_nilpotent(grid, h, h_nested) -> float:
    worst = 0.0
    for pt in grid:
        th = theta_closed_form(pt).mat
        worst = max(worst, float(np.max(np.abs(th @ th))))
        worst = max(worst, abs(complex(np.trace(th))))
        worst = max(worst, abs(complex(np.linalg.det(th))))
    return worst


def _check_conjugated(grid, h, h_nested) -> float:
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return max(float(np.max(np.abs(conjugated_higgs(pt) - raising))) for pt in grid)


def _check_scaling_conjugation(grid, h, h_nested) -> float:
    worst = 0.0
    for pt in grid:
        th = theta_closed_form(pt).mat
        for lam in (2.0 + 0j, 1j):
            al = a_lambda(pt, lam)
            worst = max(
                worst, float(np.max(np.abs(al @ th @ np.linalg.inv(al) - lam * th)))
            )
    return worst


def _check_scaling_group_law(grid, h, h_nested) -> float:
    worst = 0.0
    samples = ((2.0 + 0j, 1j), (1j, 1j), (0.5 + 0.5j, 3.0 + 0j))
    for pt in grid:
        ident = a_lambda(pt, 1.0)
        worst = max(worst, float(np.max(np.abs(ident - np.eye(2)))))
        for lam, mu in samples:
            worst = max(
                worst,
                float(np.max(np.abs(a_lambda(pt, lam) @ a_lambda(pt, mu) - a_lambda(pt, lam * mu)))),
            )
    return worst


def _check_higgs_forms(grid, h, h_nested) -> float:
    scheme = FiniteDiffScheme(h)
    return max(
        higgs_form_residual(g, hh, pt, scheme)
        for pt in grid
        for g, hh in _POLY_PAIRS
    )


_CHECKS = {
    "metric_shape": _check_metric_shape,
    "equivariance": _check_equivariance,
    "theta_vs_finite_difference": _check_theta_fd,
    "harmonic_equation": _check_harmonic,
    "harmonic_convergence_order_deviation": _check_convergence_order,
    "theta_nilpotent": _check_theta_nilpotent,
    "conjugated_higgs_constant": _check_conjugated,
    "scaling_conjugation": _check_scaling_conjugation,
    "scaling_group_law": _check_scaling_group_law,
    "higgs_form_closedness": _check_higgs_forms,
}


def verification_report(
    grid: list[UpperHalfPoint] | None = None,
    count: int = 20,
    seed: int = 0,
    h: float = 1e-4,
    h_nested: float = 1e-3,
    only: str | None = None,
    tolerance: float | None = None,
) -> dict:
    """Run the full battery (or a single named check) over a sample grid.

    Returns {parameters, checks: [{check_name, max_residual, tolerance,
    pass}], pass}; the order-deviation row reports |empirical order - 2|.
    """
    if tolerance is not None and not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    if grid is None:
        grid = sample_grid(count=count, seed=seed)
    if only is not None and only not in _CHECKS:
        raise ValueError(f"unknown check {only!r}; choose from {sorted(_CHECKS)}")
    names = [only] if only else list(_CHECKS)
    rows = []
    for name in names:
        residual = _CHECKS[name](grid, h, h_nested)
        tol = tolerance if tolerance is not None else DEFAULT_TOLERANCES[name]
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
            "grid_size": len(grid),
            "seed": seed,
            "h": h,
            "h_nested": h_nested,
        },
        "checks": rows,
        "pass": all(row["pass"] for row in rows),
    }
