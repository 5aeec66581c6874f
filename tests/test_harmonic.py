"""Numeric checks of the explicit equivariant metric and its operators."""

import math
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from higgs_threeterm.harmonic import (
    GAMMA_S,
    GAMMA_T,
    UpperHalfPoint,
    a_lambda,
    conjugated_higgs,
    dbar_correction_closed_form,
    equivariance_residual,
    harmonic_residual,
    higgs_form_basis,
    higgs_form_residual,
    log_derivative,
    metric_at,
    sample_grid,
    theta_closed_form,
    theta_finite_difference,
    verification_report,
    wirtinger,
)

GRID = sample_grid(count=20, seed=0)


def one(tau: complex) -> np.ndarray:
    """One point, as the array of one that every operator takes."""
    return np.array([tau], dtype=complex)


def maxabs(mat) -> float:
    return float(np.max(np.abs(mat)))


# --- the metric itself -----------------------------------------------------------


def test_metric_at_i_is_identity():
    assert maxabs(metric_at(one(1j)) - np.eye(2)) == 0.0


def test_metric_at_one_plus_i():
    expected = np.array([[1.0, -1.0], [-1.0, 2.0]])
    assert maxabs(metric_at(one(1 + 1j)) - expected) == 0.0


def test_metric_shape_on_grid():
    k = metric_at(GRID)
    assert k.shape == (20, 2, 2)
    assert maxabs(k - np.swapaxes(k, -1, -2)) == 0.0
    assert maxabs(np.linalg.det(k) - 1.0) < 1e-12
    assert np.all(k[:, 0, 0] > 0)  # with det 1 this gives positive definiteness


def test_metric_rejects_lower_half_plane():
    # the metric is refused where its points are made: by the point type, and
    # by the difference scheme whose lowest point would fall below the axis
    with pytest.raises(ValueError, match=r"^point \(1-1\.0001j\) is not in the upper half-plane$"):
        wirtinger(metric_at, one(1 - 1j), 1e-4)
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, 0.05)  # below the conditioning floor
    for x, y in [(math.nan, 1.2), (math.inf, 1.2), (0.3, math.inf), (0.3, math.nan)]:
        with pytest.raises(ValueError, match="need finite x and y"):
            UpperHalfPoint(x, y)


def test_point_parsing():
    assert UpperHalfPoint.parse("0.3+1.2i") == complex(0.3, 1.2)
    assert UpperHalfPoint.parse("i") == 1j
    assert UpperHalfPoint.parse("2i") == 2j
    assert UpperHalfPoint.parse("-0.5+2.5i") == complex(-0.5, 2.5)
    with pytest.raises(ValueError):
        UpperHalfPoint.parse("1-2i")


def test_upper_half_point_is_its_complex_number():
    pt = UpperHalfPoint(0.3, 1.2)
    assert type(pt) is UpperHalfPoint and isinstance(pt, complex)
    assert pt == complex(0.3, 1.2) and hash(pt) == hash(complex(0.3, 1.2))
    assert (pt.real, pt.imag) == (0.3, 1.2) and str(pt) == str(complex(0.3, 1.2))
    back = pickle.loads(pickle.dumps(pt))
    assert type(back) is UpperHalfPoint and back == pt
    with pytest.raises(AttributeError):
        pt.tau  # no field to unwrap
    with pytest.raises(AttributeError):
        pt.x = 1.0


def test_report_takes_only_checked_points():
    # a plain complex has skipped UpperHalfPoint's checks, so the report refuses it
    good = UpperHalfPoint(0.3, 1.2)
    assert verification_report(grid=[good], only="metric_shape")["pass"]
    for pt in (complex(0.3, 1.2), 0.3 + 0.05j, (0.3, 1.2)):
        with pytest.raises(TypeError, match=r" is not an UpperHalfPoint$"):
            verification_report(grid=[good, pt], only="metric_shape")


@pytest.mark.parametrize("only", [None, "harmonic_convergence_order_deviation"])
def test_report_refuses_an_empty_grid(only):
    # no point to take a maximum or a median over: one ValueError, not numpy's or an IndexError
    with pytest.raises(ValueError, match=r"^grid must hold at least one point$"):
        verification_report(grid=[], only=only)


# --- equivariance ------------------------------------------------------------------


def test_equivariance_identity():
    assert equivariance_residual(one(1j), ((1, 0), (0, 1))).tolist() == [0.0]


def test_equivariance_closed_form_points():
    assert equivariance_residual(one(1j), GAMMA_T).item() < 1e-12
    assert equivariance_residual(one(2j), GAMMA_S).item() < 1e-12


def test_equivariance_generator_words_on_grid():
    words = np.array([GAMMA_S, GAMMA_T, ((0, -1), (1, 1)), ((1, -1), (1, 0)), ((2, -1), (1, 0))])
    residuals = equivariance_residual(GRID[:, None], words)
    assert residuals.shape == (20, 5)
    assert np.all(residuals < 1e-10)


def test_equivariance_rejects_non_unimodular():
    with pytest.raises(ValueError):
        equivariance_residual(one(1j), ((2, 0), (0, 1)))


def test_equivariance_rejects_low_image():
    # S sends 20i to i/20, below the floor
    with pytest.raises(ValueError):
        equivariance_residual(one(20j), GAMMA_S)


# --- Wirtinger derivatives -----------------------------------------------------------


def test_wirtinger_holomorphic_coordinate():
    d, dbar = wirtinger(lambda z: z, one(0.4 + 1.1j), 1e-4)
    assert maxabs(d - 1) < 1e-10
    assert maxabs(dbar) < 1e-10


def test_wirtinger_antiholomorphic_coordinate():
    d, dbar = wirtinger(lambda z: z.conjugate(), one(0.4 + 1.1j), 1e-4)
    assert maxabs(d) < 1e-10
    assert maxabs(dbar - 1) < 1e-10


def test_wirtinger_modulus_squared():
    z0 = 0.7 + 0.9j
    d, dbar = wirtinger(lambda z: abs(z) ** 2, one(z0), 1e-5)
    assert maxabs(d - z0.conjugate()) < 1e-8
    assert maxabs(dbar - z0) < 1e-8


def test_scheme_warns_outside_window():
    # the step is checked by wirtinger, the one operator that differences
    with pytest.warns(UserWarning, match=r"^step underflow: h = 1e-07 < 1e-6, roundoff will dominate$"):
        wirtinger(lambda z: z, one(1j), 1e-7)
    with pytest.warns(UserWarning, match=r"^step h = 0\.5 > 1e-2, truncation will dominate$"):
        wirtinger(lambda z: z, one(1j), 0.5)
    for step, message in ((0.0, "step must be positive, got 0.0"), (math.nan, "step must be finite, got nan")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            wirtinger(lambda z: z, one(1j), step)


# --- logarithmic derivative and the Higgs field ----------------------------------------


def test_log_derivative_smoke():
    mat = log_derivative("d", one(1j), 1e-4)
    assert mat.shape == (1, 2, 2)
    assert np.all(np.isfinite(mat))


def test_log_derivative_refuses_an_unknown_selector():
    with pytest.raises(ValueError, match=r"^selector must be 'd' or 'dbar', got 'D'$"):
        log_derivative("D", one(1j), 1e-4)


def test_log_derivative_scale_invariance():
    z0 = one(0.3 + 1.2j)
    base = log_derivative("d", z0, 1e-4)
    scaled = log_derivative("d", z0, 1e-4, fn=lambda z: 7.5 * metric_at(z))
    assert maxabs(base - scaled) < 1e-9


def test_theta_closed_form_at_i():
    expected = -0.25 * np.array([[1j, -1.0], [-1.0, -1j]])
    assert maxabs(theta_closed_form(one(1j)) - expected) < 1e-15


def test_theta_closed_form_matches_finite_difference():
    assert maxabs(theta_closed_form(GRID) - theta_finite_difference(GRID, 1e-4)) < 1e-5


def test_theta_nilpotent_everywhere():
    th = theta_closed_form(GRID)
    assert maxabs(th @ th) < 1e-12
    assert maxabs(np.trace(th, axis1=-2, axis2=-1)) < 1e-12
    assert maxabs(np.linalg.det(th)) < 1e-12


def test_dbar_correction_is_half_log_derivative():
    # the closed-form correction matrix equals (1/2) dbar log conj(K)
    fd = 0.5 * log_derivative("dbar", GRID[:5], 1e-4, fn=lambda z: np.conj(metric_at(z)))
    assert maxabs(dbar_correction_closed_form(GRID[:5]) - fd) < 1e-5


# --- the harmonic equation ---------------------------------------------------------


def test_constant_identity_metric_is_harmonic():
    residual = harmonic_residual(one(1j), 1e-3, fn=lambda z: np.eye(2))
    assert residual < 1e-12


def test_explicit_metric_harmonic_residual():
    residual = harmonic_residual(one(0.3 + 1.2j), 1e-3)
    assert residual.shape == (1,) and residual[0] < 1e-4


def test_harmonic_residual_on_grid():
    assert np.all(harmonic_residual(GRID, 1e-3) < 1e-4)


def test_harmonic_residual_second_order_decay():
    z0 = one(0.3 + 1.2j)
    big = harmonic_residual(z0, 1e-2).item()
    small = harmonic_residual(z0, 1e-3).item()
    order = math.log(big / small) / math.log(10.0)
    assert abs(order - 2.0) <= 0.3


def test_metric_convergence_script_prints_order_two():
    script = Path(__file__).resolve().parent.parent / "scripts" / "metric_convergence.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]  # after tau and the header
    assert len(rows) == 6 and len(rows[0]) == 2  # h and residual; the first row has no order
    orders = [float(order) for _, _, order in rows[1:]]
    assert all(abs(order - 2.0) <= 0.3 for order in orders), orders


def test_harmonic_residual_warns_below_nested_window():
    with pytest.warns(UserWarning, match=r"^h = 5e-05 < 1e-4 conditions the nested second difference poorly$"):
        harmonic_residual(one(1j), 5e-5)


def composed_harmonic_residual(z: np.ndarray, h: float) -> np.ndarray:
    """The residual as separate operators compose it: d of the nested
    dbar log K, then dbar log K and d log K at z, each with its own
    Wirtinger pair and its own inverse of K."""

    def dbar_log(w: np.ndarray) -> np.ndarray:
        return log_derivative("dbar", w, h)

    outer_d, _ = wirtinger(dbar_log, z, h)
    a = dbar_log(z)
    b = log_derivative("d", z, h)
    return np.abs(outer_d - 0.5 * (a @ b - b @ a)).max(axis=(-2, -1))


@pytest.mark.parametrize("count", [1, 20, 1000])
@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("h", [1e-2, 1e-3])
def test_harmonic_residual_equals_the_composed_operators_bit_for_bit(count, seed, h):
    z = sample_grid(count=count, seed=seed)
    assert harmonic_residual(z, h).tobytes() == composed_harmonic_residual(z, h).tobytes()


def test_harmonic_residual_at_one_point_equals_the_composed_operators():
    z = one(UpperHalfPoint(0.3, 1.2))
    residual = harmonic_residual(z, 1e-3)
    assert residual.shape == (1,)
    assert residual.tobytes() == composed_harmonic_residual(z, 1e-3).tobytes()


# --- Higgs forms and the rescaling family ---------------------------------------------


def test_higgs_form_zero_section():
    res = higgs_form_residual(lambda z: 0j, lambda z: 0j, one(1j), 1e-4)
    assert res.tolist() == [0.0]


def test_higgs_form_constant_section():
    res = higgs_form_residual(lambda z: 1.0 + 0j, lambda z: 0j, one(1j), 1e-4)
    assert res.shape == (1,) and res[0] < 1e-5


def test_higgs_form_polynomial_section():
    res = higgs_form_residual(lambda z: z * z, lambda z: z, one(0.5 + 1.5j), 1e-4)
    assert res.shape == (1,) and res[0] < 1e-5


def test_conjugated_higgs_is_constant_raising_matrix():
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert maxabs(conjugated_higgs(GRID) - raising) < 1e-10


def test_basis_matrix_determinant_one():
    assert maxabs(np.linalg.det(higgs_form_basis(GRID[:5])) - 1.0) < 1e-12


def test_a_lambda_identity_and_rejection():
    assert maxabs(a_lambda(one(1j), 1.0) - np.eye(2)) < 1e-15
    with pytest.raises(ValueError):
        a_lambda(one(1j), 0.0)


def test_a_lambda_rescales_higgs_field():
    th = theta_closed_form(one(1j))
    for lam in (2.0 + 0j, 1j):
        al = a_lambda(one(1j), lam)
        assert maxabs(al @ th @ np.linalg.inv(al) - lam * th) < 1e-10


def test_a_lambda_group_law():
    z = GRID[:5]
    for lam, mu in ((2.0 + 0j, 1j), (0.5 + 0.5j, 3.0 + 0j)):
        assert maxabs(a_lambda(z, lam) @ a_lambda(z, mu) - a_lambda(z, lam * mu)) < 1e-10


def test_a_lambda_diagonalizes_in_the_basis():
    # a_lambda = M diag(lambda, 1) M^{-1}
    z0 = one(0.2 + 0.8j)
    m = higgs_form_basis(z0)
    lam = 2.5 + 0.5j
    rebuilt = m @ np.diag([lam, 1.0]) @ np.linalg.inv(m)
    assert maxabs(a_lambda(z0, lam) - rebuilt) < 1e-12


# --- the grid and the aggregated report -------------------------------------------------


def test_sample_grid_reproducible_and_in_box():
    again = sample_grid(count=20, seed=0)
    assert GRID.shape == (20,) and GRID.dtype == complex
    assert GRID.tobytes() == again.tobytes()
    assert not np.array_equal(sample_grid(count=20, seed=1), GRID)
    assert np.all((-1.0 <= GRID.real) & (GRID.real <= 1.0))
    assert np.all((0.5 <= GRID.imag) & (GRID.imag <= 3.0))


@pytest.mark.parametrize(("field", "value"), [("count", True), ("count", 2.5), ("seed", 1.5)])
def test_sample_grid_refuses_a_count_or_seed_that_is_not_an_int(field, value):
    # True would read as one point, and 2.5 fail inside the sampler with a TypeError
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ValueError) as direct:
        sample_grid(**{field: value})
    with pytest.raises(ValueError) as reported:
        verification_report(only="metric_shape", **{field: value})
    assert str(direct.value) == str(reported.value) == message


@pytest.mark.parametrize("seed", [0, 7, 11, -3, 10**17])  # 10**17 * 997 is beyond int64
def test_sample_grid_equals_the_index_loop(seed):
    # the R2 recurrence one Python float at a time, as a loop over the indices
    phi = 1.324717957244746
    ax, ay = 1.0 / phi, 1.0 / phi**2
    expected = []
    for i in range(50):
        k = 1 + seed * 997 + i
        expected.append(complex(-1.0 + 2.0 * ((0.5 + k * ax) % 1.0), 0.5 + 2.5 * ((0.5 + k * ay) % 1.0)))
    assert sample_grid(count=50, seed=seed).tobytes() == np.array(expected).tobytes()


def test_verification_report_all_pass():
    report = verification_report(count=20, seed=0)
    assert report["pass"]
    names = {row["check_name"] for row in report["checks"]}
    assert "equivariance" in names and "harmonic_equation" in names
    for row in report["checks"]:
        assert row["pass"], row


def test_verification_report_single_check():
    report = verification_report(count=5, seed=3, only="theta_nilpotent")
    assert [row["check_name"] for row in report["checks"]] == ["theta_nilpotent"]
    assert report["pass"]


def test_verification_report_tolerance_override_can_fail():
    report = verification_report(count=5, seed=0, only="harmonic_equation", tolerance=1e-30)
    assert not report["pass"]


@pytest.mark.parametrize("h_nested", [1e-3, 1e-2, 5e-4])  # the small step's, the big step's, neither's
def test_each_battery_row_equals_its_check_run_alone(h_nested):
    report = verification_report(count=1000, seed=7, h_nested=h_nested)
    assert [row["check_name"] for row in report["checks"]] == list(TOLERANCES)
    for row in report["checks"]:
        alone = verification_report(count=1000, seed=7, h_nested=h_nested, only=row["check_name"])
        assert alone["checks"] == [row]


def test_reports_in_one_process_carry_nothing_over():
    # a residual kept between reports would hand a report another grid's or another step's
    first = verification_report(count=50, seed=7)
    for seed, h_nested in ((11, 1e-3), (7, 1e-2), (11, 1e-2), (7, 1e-3)):
        z = sample_grid(count=50, seed=seed)
        report = verification_report(count=50, seed=seed, h_nested=h_nested)
        row = next(row for row in report["checks"] if row["check_name"] == "harmonic_equation")
        assert row["max_residual"] == harmonic_residual(z, h_nested).max()
    assert verification_report(count=50, seed=7) == first


def test_verification_report_unknown_check():
    with pytest.raises(ValueError):
        verification_report(only="nope")


# --- the batched battery against the point-wise loop ------------------------------------

GAMMAS = (GAMMA_S, GAMMA_T, ((0, -1), (1, 1)), ((1, -1), (1, 0)), ((2, -1), (1, 0)))
POLY_PAIRS = (
    (lambda z: 1.0 + 0j, lambda z: 0j),
    (lambda z: 0j, lambda z: 1.0 + 0j),
    (lambda z: z * z, lambda z: z),
)
# the battery's checks in report order, with their default tolerances
TOLERANCES = {
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
# checks whose batched max_residual is bit-identical to the loop's; the
# others sit at the roundoff floor
FINITE_DIFFERENCE_CHECKS = {
    "metric_shape",
    "theta_vs_finite_difference",
    "harmonic_equation",
    "harmonic_convergence_order_deviation",
    "higgs_form_closedness",
}


def pointwise_residuals(z) -> dict:
    """Every check at the default steps, as a loop over the points, each
    passed to the operators as an array of one."""
    h = 1e-4
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    found = {name: [] for name in TOLERANCES}
    for tau in z:
        pt = one(tau)
        k = metric_at(pt)[0]
        shape = max(maxabs(k - k.T), abs(float(np.linalg.det(k)) - 1.0))
        found["metric_shape"].append(shape if k[0, 0] > 0 and np.linalg.det(k) > 0 else max(shape, 1.0))
        found["equivariance"] += [equivariance_residual(pt, gamma).item() for gamma in GAMMAS]
        th = theta_closed_form(pt)[0]
        found["theta_vs_finite_difference"].append(maxabs(th - theta_finite_difference(pt, h)[0]))
        small = harmonic_residual(pt, 1e-3).item()  # h_nested is 1e-3 as well
        found["harmonic_equation"].append(small)
        big = harmonic_residual(pt, 1e-2).item()
        found["harmonic_convergence_order_deviation"].append(math.log(big / small) / math.log(1e-2 / 1e-3))
        found["theta_nilpotent"] += [
            maxabs(th @ th), abs(complex(np.trace(th))), abs(complex(np.linalg.det(th)))
        ]
        found["conjugated_higgs_constant"].append(maxabs(conjugated_higgs(pt)[0] - raising))
        for lam in (2.0 + 0j, 1j):
            al = a_lambda(pt, lam)[0]
            found["scaling_conjugation"].append(maxabs(al @ th @ np.linalg.inv(al) - lam * th))
        found["scaling_group_law"].append(maxabs(a_lambda(pt, 1.0)[0] - np.eye(2)))
        for lam, mu in ((2.0 + 0j, 1j), (1j, 1j), (0.5 + 0.5j, 3.0 + 0j)):
            gap = a_lambda(pt, lam)[0] @ a_lambda(pt, mu)[0] - a_lambda(pt, lam * mu)[0]
            found["scaling_group_law"].append(maxabs(gap))
        found["higgs_form_closedness"] += [higgs_form_residual(g, hh, pt, h).item() for g, hh in POLY_PAIRS]
    out = {name: max(values) for name, values in found.items()}
    slopes = sorted(found["harmonic_convergence_order_deviation"])
    out["harmonic_convergence_order_deviation"] = abs(slopes[len(slopes) // 2] - 2.0)
    return out


@pytest.mark.parametrize("count", [1, 20, 1000])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_batched_battery_matches_pointwise_loop(count, seed):
    report = verification_report(count=count, seed=seed)
    reference = pointwise_residuals(sample_grid(count=count, seed=seed))
    assert [row["check_name"] for row in report["checks"]] == list(reference)
    for row in report["checks"]:
        name, expected = row["check_name"], reference[row["check_name"]]
        assert row["tolerance"] == TOLERANCES[name]
        assert row["pass"] == (expected < row["tolerance"]), name
        if name in FINITE_DIFFERENCE_CHECKS:
            assert row["max_residual"] == expected, name
        else:
            assert abs(row["max_residual"] - expected) <= 1e-14, name


def test_batched_operators_equal_each_point_bit_for_bit():
    z = sample_grid(count=50, seed=7)
    points = [z[i : i + 1] for i in range(len(z))]  # each an array of one

    residuals = harmonic_residual(z, 1e-3)
    assert residuals.shape == (50,)
    assert residuals.tobytes() == np.concatenate([harmonic_residual(pt, 1e-3) for pt in points]).tobytes()

    theta = theta_finite_difference(z, 1e-3)
    assert theta.shape == (50, 2, 2)
    pointwise = np.concatenate([theta_finite_difference(pt, 1e-3) for pt in points])
    assert theta.tobytes() == pointwise.tobytes()

    for g, hh in POLY_PAIRS:
        forms = higgs_form_residual(g, hh, z, 1e-3)
        expected = np.concatenate([higgs_form_residual(g, hh, pt, 1e-3) for pt in points])
        assert forms.tobytes() == expected.tobytes()


LOW_DIFFERENCE_POINT = "point (0.5-0.005j) is not in the upper half-plane"  # 0.5 + 0.005i less i h


# each operator meets 0.5 + 0.005i where its points are checked: a Wirtinger
# pair of step h = 0.01 reaches 0.5 - 0.005i, and T sends it below the floor
@pytest.mark.parametrize(
    ("operator", "message"),
    [
        (lambda z: wirtinger(metric_at, z, 1e-2), LOW_DIFFERENCE_POINT),
        (lambda z: wirtinger(theta_closed_form, z, 1e-2), LOW_DIFFERENCE_POINT),
        (lambda z: wirtinger(higgs_form_basis, z, 1e-2), LOW_DIFFERENCE_POINT),
        (lambda z: harmonic_residual(z, 1e-2), LOW_DIFFERENCE_POINT),
        (lambda z: equivariance_residual(z, GAMMA_T), "gamma tau = (1.5+0.005j) fell below the floor y = 0.1"),
    ],
    ids=["metric_at", "theta_closed_form", "higgs_form_basis", "harmonic_residual", "equivariance"],
)
def test_batch_names_its_first_lower_half_plane_point(operator, message):
    with pytest.raises(ValueError) as alone:
        operator(one(0.5 + 0.005j))
    with pytest.raises(ValueError) as batch:
        operator(np.array([1j, 0.5 + 0.005j, 2 + 0.001j]))
    assert str(batch.value) == str(alone.value) == message


def test_low_image_error_names_the_first_point_then_the_first_gamma():
    # (2.5, 1) falls below the floor only under ST, the third word; (0.2, 12)
    # already under S, the first: a gamma-major scan would name the latter.
    grid = [UpperHalfPoint(0.3, 1.2), UpperHalfPoint(2.5, 1.0), UpperHalfPoint(0.2, 12.0)]

    def low_image_messages(pairs):
        messages = []
        for pt, gamma in pairs:
            try:
                equivariance_residual(one(pt), gamma)
            except ValueError as exc:
                messages.append(str(exc))
        return messages

    point_major = low_image_messages((pt, gamma) for pt in grid for gamma in GAMMAS)
    gamma_major = low_image_messages((pt, gamma) for gamma in GAMMAS for pt in grid)
    assert point_major[0] != gamma_major[0]
    for only in ("equivariance", None):
        with pytest.raises(ValueError) as caught:
            verification_report(grid=grid, only=only)
        assert str(caught.value) == point_major[0]
