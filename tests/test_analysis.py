import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipbis import (ParameterError, PhasePoint, PhaseRegion, Sign,
                    algorithmic_threshold, classify_phase, existence_threshold,
                    first_moment_exponent, negativity_onset_d,
                    optimal_local_threshold, predicted_easy_point)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_threshold_values():
    assert existence_threshold(0.5) == 2.0
    assert existence_threshold(0.25) == pytest.approx(8 / 3)
    assert algorithmic_threshold(0.5) == 1.0
    assert algorithmic_threshold(0.25) == 2.0


def test_optimal_local_threshold_is_the_fixed_point():
    assert abs(optimal_local_threshold(10) - 0.1745528) < 1e-6
    for d in (0.5, 2.0, 10.0, 100.0):
        p = optimal_local_threshold(d)
        assert abs(p - math.exp(-d * p)) < 1e-12
    with pytest.raises(ParameterError):
        optimal_local_threshold(0.0)


def test_threshold_ratio_is_one_over_one_minus_gamma():
    for gamma in np.linspace(0.05, 0.5, 10):
        ratio = existence_threshold(gamma) / algorithmic_threshold(gamma)
        assert ratio == pytest.approx(1.0 / (1.0 - gamma))


def test_threshold_monotone_decreasing_toward_half():
    gammas = np.linspace(0.01, 0.5, 30)
    values = [existence_threshold(g) for g in gammas]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert existence_threshold(0.001) > 100


def test_threshold_domain_errors():
    for bad in (0.0, -0.2, 0.51, 1.0):
        with pytest.raises(ParameterError):
            existence_threshold(bad)
        with pytest.raises(ParameterError):
            algorithmic_threshold(bad)


def test_gap_strict_below_half():
    for gamma in (0.1, 0.25, 0.4):
        assert existence_threshold(gamma) > algorithmic_threshold(gamma)


# ---------------------------------------------------------------------------
# the first-moment exponent
# ---------------------------------------------------------------------------


def test_leading_coefficient_vanishes_at_the_existence_density():
    rep = first_moment_exponent(2.0, 100.0, 0.5)
    assert rep.leading_coefficient == 0.0


def test_leading_coefficient_formula():
    for c, gamma in ((1.5, 0.5), (3.0, 0.25), (0.7, 0.4)):
        rep = first_moment_exponent(c, 50.0, gamma)
        assert rep.leading_coefficient == pytest.approx(
            c * (1 - 2 * gamma * (1 - gamma) * c))


def test_sign_above_and_below_threshold_at_large_d():
    # frozen from direct numeric evaluation of the closed form at d = 1e6
    above = first_moment_exponent(2.5, 1e6, 0.5)
    assert above.sign is Sign.NEGATIVE and above.value < 0
    below = first_moment_exponent(1.5, 1e6, 0.5)
    assert below.sign is Sign.POSITIVE and below.value > 0


def test_exponent_matches_independent_evaluation():
    # recompute the closed form with plain math as a cross-check
    c, d, gamma = 2.5, 1e6, 0.5
    f = c * math.log(d) / d
    expected = (-gamma * f * math.log(2 * gamma * f)
                - (0.5 - gamma * f) * math.log(1 - 2 * gamma * f)
                - (1 - gamma) * f * math.log(2 * (1 - gamma) * f)
                - (0.5 - (1 - gamma) * f) * math.log(1 - 2 * (1 - gamma) * f)
                - 2 * gamma * (1 - gamma) * f * f * d)
    assert first_moment_exponent(c, d, gamma).value == pytest.approx(expected, rel=1e-12)
    assert first_moment_exponent(c, d, gamma).full_exponent_at(d) == pytest.approx(expected)


def test_exponent_domain_errors():
    with pytest.raises(ParameterError):
        first_moment_exponent(-1.0, 10.0, 0.5)
    with pytest.raises(ParameterError):
        first_moment_exponent(2.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        # 2*(1-gamma)*f >= 1: combinatorial terms undefined
        first_moment_exponent(5.0, 2.0, 0.5)


def test_negativity_onset_by_bisection():
    for c, gamma in ((2.5, 0.5), (3.5, 0.5), (9.0, 0.25)):
        d_min = negativity_onset_d(c, gamma)
        for factor in (1.0, 2.0, 10.0, 1e4):
            assert first_moment_exponent(c, d_min * factor, gamma).sign is Sign.NEGATIVE
    with pytest.raises(ParameterError):
        negativity_onset_d(1.5, 0.5)  # below the existence threshold


# ---------------------------------------------------------------------------
# the phase classifier
# ---------------------------------------------------------------------------


def test_figure_exemplars():
    assert classify_phase(PhasePoint(0.5, 5.0)) is PhaseRegion.EASY
    assert classify_phase(PhasePoint(1.5, 1.5)) is PhaseRegion.HARD
    assert classify_phase(PhasePoint(3.0, 3.0)) is PhaseRegion.NONEXISTENT


def test_boundary_cases():
    assert classify_phase(PhasePoint(1.0, 5.0)) is PhaseRegion.BOUNDARY
    assert classify_phase(PhasePoint(5.0, 1.0)) is PhaseRegion.BOUNDARY
    assert classify_phase(PhasePoint(2.0, 2.0)) is PhaseRegion.BOUNDARY  # 2+2 = 2*2
    assert classify_phase(PhasePoint(2.0, 2.0 + 1e-13)) is PhaseRegion.BOUNDARY
    assert classify_phase(PhasePoint(2.0, 2.1)) is PhaseRegion.NONEXISTENT
    assert classify_phase(PhasePoint(2.0, 1.9)) is PhaseRegion.HARD


def test_classify_rejects_negative_coordinates():
    with pytest.raises(ParameterError):
        PhasePoint(-0.1, 1.0)


@given(st.floats(0.0, 8.0, allow_nan=False), st.floats(0.0, 8.0, allow_nan=False))
def test_classifier_is_symmetric(x, y):
    assert classify_phase(PhasePoint(x, y)) is classify_phase(PhasePoint(y, x))


# ---------------------------------------------------------------------------
# the predicted operating point
# ---------------------------------------------------------------------------


def test_predicted_point_example():
    pt = predicted_easy_point(0.5, 50.0)
    assert pt.x == pytest.approx(0.5)
    assert pt.y == pytest.approx(0.5 * math.sqrt(50) / math.log(50), rel=1e-12)
    assert pt.y == pytest.approx(0.9037, abs=5e-4)


def test_predicted_point_always_classifies_easy():
    for eps in (0.1, 0.3, 0.5, 0.9):
        for d in (5.0, 20.0, 100.0, 1e4):
            assert classify_phase(predicted_easy_point(eps, d)) is PhaseRegion.EASY


def test_predicted_point_epsilon_limit():
    assert predicted_easy_point(1e-9, 10.0).x == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ParameterError):
        predicted_easy_point(0.0, 10.0)
    with pytest.raises(ParameterError):
        predicted_easy_point(0.5, 1.0)
