import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chh import (
    ChhParams,
    InvalidParameterError,
    secondary_theoretical_max,
    solve_params,
    to_fraction,
)


def test_to_fraction_variants():
    assert to_fraction("0.1") == Fraction(1, 10)
    assert to_fraction("7/20") == Fraction(7, 20)
    assert to_fraction(0.1) == Fraction(1, 10)  # decimal repr, not binary double
    assert to_fraction(1e-05) == Fraction(1, 100_000)
    assert to_fraction(3) == Fraction(3)
    with pytest.raises(InvalidParameterError):
        to_fraction("abc")
    with pytest.raises(InvalidParameterError):
        to_fraction(float("nan"))
    for unbounded in ("inf", "-Infinity", "1e-5000", "1e5000"):
        with pytest.raises(InvalidParameterError):
            to_fraction(unbounded)
    with pytest.raises(InvalidParameterError):
        to_fraction(True)


def test_solver_worked_example_case_one():
    params = solve_params("0.1", "0.1", "0.05", "0.1")
    assert params.alpha == 22
    assert params.case == "I"
    assert (params.s1, params.s2) == (440, 20)
    # the feasibility sum lands exactly on eps2
    assert Fraction(1, 20) + Fraction(11, 10) / (440 * Fraction(1, 20)) == Fraction(1, 10)
    assert params.constraints_satisfied()


def test_solver_worked_example_case_two():
    params = solve_params("0.5", "0.5", "0.01", "0.25")
    assert params.alpha == Fraction(150, 49)
    assert params.case == "II"
    assert (params.s1, params.s2) == (100, 5)
    assert Fraction(1, 5) + params.alpha / 100 <= Fraction(1, 4)
    assert params.constraints_satisfied()


@pytest.mark.parametrize(
    "phi1,phi2,eps1,eps2,needle",
    [
        ("0.1", "0.1", "0.06", "0.05", "eps1"),
        ("0", "0.1", "0.01", "0.05", "phi1"),
        ("1", "0.1", "0.01", "0.05", "phi1"),
        ("0.1", "0", "0.01", "0.05", "phi2"),
        ("0.1", "0.1", "0", "0.05", "eps1"),
        ("0.1", "0.1", "0.05", "0", "eps2"),
        ("0.1", "0.1", "0.05", "0.11", "eps2"),
    ],
)
def test_solver_rejects_out_of_range(phi1, phi2, eps1, eps2, needle):
    with pytest.raises(InvalidParameterError) as excinfo:
        solve_params(phi1, phi2, eps1, eps2)
    assert needle in str(excinfo.value)


valid_configs = st.tuples(
    st.integers(2, 40),   # phi1 = a/100 .. keeps phi1 in (0.02, 0.4)
    st.integers(2, 60),   # phi2
    st.integers(2, 6),    # eps1 divisor of phi1
    st.integers(2, 6),    # eps2 divisor of phi2
).map(
    lambda t: (
        Fraction(t[0], 100),
        Fraction(t[1], 100),
        Fraction(t[0], 100 * t[2]),
        Fraction(t[1], 100 * t[3]),
    )
)


@given(valid_configs)
def test_solver_output_is_feasible_and_case_matches(config):
    phi1, phi2, eps1, eps2 = config
    params = solve_params(phi1, phi2, eps1, eps2)
    assert Fraction(1, params.s1) <= eps1
    assert Fraction(1, params.s2) + params.alpha / params.s1 <= eps2
    expected_case = "I" if eps1 >= eps2 / (2 * params.alpha) else "II"
    assert params.case == expected_case


def brute_force_min_product(phi1, phi2, eps1, eps2, s1_limit):
    """Smallest feasible s1*s2 with s1 in [1, s1_limit], by direct search."""
    alpha = (1 + phi2) / (phi1 - eps1)
    best = None
    s1_floor = math.ceil(1 / eps1)  # anything smaller breaks the first constraint
    for s1 in range(s1_floor, s1_limit + 1):
        slack = eps2 - alpha / s1
        if slack <= 0:
            continue
        s2 = math.ceil(1 / slack)
        product = s1 * s2
        if best is None or product < best:
            best = product
    return best


@pytest.mark.parametrize(
    "phi1,phi2,eps1,eps2",
    [
        ("0.1", "0.1", "0.05", "0.1"),
        ("0.5", "0.5", "0.01", "0.25"),
        ("0.2", "0.3", "0.05", "0.15"),
        ("0.05", "0.5", "0.02", "0.3"),
    ],
)
def test_solver_is_near_optimal(phi1, phi2, eps1, eps2):
    params = solve_params(phi1, phi2, eps1, eps2)
    best = brute_force_min_product(
        to_fraction(phi1), to_fraction(phi2), to_fraction(eps1), to_fraction(eps2),
        2 * params.s1,
    )
    assert best is not None
    assert best >= params.s1 * params.s2 / 2


def test_from_raw_implied_tolerances():
    params = ChhParams.from_raw("0.5", "0.5", 2, 2)
    # 1/s1 = 1/2 exceeds phi1/2 = 1/4, so eps1 is capped and flag 1 is false
    assert params.eps1 == Fraction(1, 4)
    assert not params.constraint1_satisfied()
    # implied eps2 = 1/2 + alpha/2 = 7/2 blows past phi2
    assert params.eps2 == Fraction(7, 2)
    assert not params.constraint2_satisfied()


def test_from_raw_admissible_sizes_pass_both_checks():
    params = ChhParams.from_raw("0.1", "0.2", 1000, 100)
    assert params.eps1 == Fraction(1, 1000)
    assert params.constraint1_satisfied()
    assert params.constraint2_satisfied()
    assert params.constraints_satisfied()


def test_from_raw_rejects_bad_sizes():
    with pytest.raises(InvalidParameterError):
        ChhParams.from_raw("0.1", "0.1", 0, 10)
    with pytest.raises(InvalidParameterError):
        ChhParams.from_raw("0.1", "0.1", 10, -1)
    # Both sizes fit the interpreter's digit limit, but the implied eps2 does not.
    with pytest.raises(InvalidParameterError, match="digits"):
        ChhParams.from_raw("0.1", "0.1", 10**3000 + 7, 10**2000 + 3)


def test_direct_construction_validates_ranges():
    with pytest.raises(InvalidParameterError):
        ChhParams(Fraction(1, 10), Fraction(1, 10), Fraction(1, 10), Fraction(1, 10), 10, 10)
    params = ChhParams("0.1", "0.1", "0.05", "0.1", 440, 20)
    assert params.phi1 == Fraction(1, 10)


# Random rationals: min/(max + 1) lies in (0, 1), min/max in (0, 1].
integer_pairs = st.tuples(st.integers(1, 10**6), st.integers(1, 10**6))
below_one = integer_pairs.map(lambda t: Fraction(min(t), max(t) + 1))
up_to_one = integer_pairs.map(lambda t: Fraction(min(t), max(t)))


@settings(max_examples=300)
@given(phi1=below_one, phi2=below_one, t1=up_to_one, t2=up_to_one)
def test_solved_sizes_always_feasible(phi1, phi2, t1, t2):
    # eps1 = phi1*t1/2 spans (0, phi1/2] and eps2 = phi2*t2 spans (0, phi2]
    params = solve_params(phi1, phi2, phi1 * t1 / 2, phi2 * t2)
    assert params.constraints_satisfied()


raw_params = st.builds(
    ChhParams.from_raw, below_one, below_one, st.integers(1, 10**6), st.integers(1, 10**6)
)
solved_params = valid_configs.map(lambda config: solve_params(*config))


@settings(max_examples=300)
@given(
    params=st.one_of(raw_params, solved_params),
    n=st.integers(0, 10**9),
    f_d=st.integers(0, 10**9),
)
def test_slack_methods_match_the_paper_bounds(params, n, f_d):
    assert params.primary_slack(n) == Fraction(n, params.s1)
    assert params.pair_slack(f_d, n) == Fraction(f_d, params.s2) + Fraction(n, params.s1)
    assert secondary_theoretical_max(params) == (
        Fraction(1, params.s2) + 1 / ((params.phi1 - params.eps1) * params.s1)
    )
