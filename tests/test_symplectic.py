"""Tests for the fixed-size symplectic helpers, and for the matrix helpers
of tests/numutil.py that other tests use as references."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numutil import (
    OMEGA4,
    NonPhysicalState,
    check_gaussian_valid,
    frobenius_norm,
    inv2,
    purity_from_block,
)

from oscpurity.symplectic import OMEGA2, det2, eig_sym2, symmetrize


def test_omega_blocks():
    assert np.array_equal(OMEGA2, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.array_equal(OMEGA4[:2, :2], OMEGA2)
    assert np.array_equal(OMEGA4[2:, 2:], OMEGA2)
    assert np.all(OMEGA4[:2, 2:] == 0.0)
    assert np.allclose(OMEGA4 @ OMEGA4, -np.eye(4))


def test_symmetrize_idempotent():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    s = symmetrize(a)
    assert np.allclose(s, s.T)
    assert np.allclose(symmetrize(s), s)


@given(
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.floats(-10, 10),
)
# A subnormal pivot, on which np.linalg.det warns of a division by zero.
@example(0.0, 1.8094928198946356e-236, 2.225073858507203e-309, 0.5)
def test_det2_matches_exact_arithmetic(a, b, c, d):
    # The exact a d - b c in rationals; the float one is within two
    # roundings of |a d| + |b c|, plus the subnormal spacing.
    ad, bc = Fraction(a) * Fraction(d), Fraction(b) * Fraction(c)
    err = abs(Fraction(det2(np.array([[a, b], [c, d]]))) - (ad - bc))
    assert err <= 1e-15 * (abs(ad) + abs(bc)) + 1e-300


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_eig_sym2_matches_numpy(a, b, d):
    m = np.array([[a, b], [b, d]])
    lam_m, lam_p = eig_sym2(m)
    ref = np.linalg.eigvalsh(m)
    assert lam_m == pytest.approx(ref[0], abs=1e-9)
    assert lam_p == pytest.approx(ref[1], abs=1e-9)
    assert lam_m <= lam_p


# ---------------------------------------------------------------------------
# Reference helpers of tests/numutil.py
# ---------------------------------------------------------------------------


@given(st.floats(0.1, 10), st.floats(-3, 3), st.floats(0.1, 10))
def test_inv2_inverts_covariance_blocks(a, b, d):
    m = np.array([[a, b], [b, d]]) + (abs(b) + 0.1) * np.eye(2)
    assert np.allclose(inv2(m) @ m, np.eye(2), rtol=0, atol=1e-12)
    # On a stack it equals the inverse of each block, bitwise.
    stack = np.array([m, 2.0 * m, m.T + np.eye(2)])
    for block, ref in zip(inv2(stack), stack):
        np.testing.assert_array_equal(block, inv2(ref))


def test_purity_from_block_thermal():
    # A thermal single-mode block nu*I has purity 1/nu.
    for nu in (1.0, 1.5, 10.0):
        block = nu * np.eye(2)
        assert purity_from_block(block) == pytest.approx(1.0 / nu, rel=1e-12)


def test_purity_clamp_and_reject():
    # Tiny overshoots above det = 1 clamp to purity one ...
    block = (1.0 - 2.5e-10) * np.eye(2)
    assert purity_from_block(block) == 1.0
    # ... but a real violation raises.
    with pytest.raises(NonPhysicalState):
        purity_from_block(0.9 * np.eye(2))


def test_frobenius_norm():
    m = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert frobenius_norm(m) == pytest.approx(5.0)


@settings(max_examples=50)
@given(st.floats(0.0, 3.0))
def test_check_gaussian_valid_two_mode_squeezed(r):
    # Two-mode squeezed vacuum: reduced blocks are thermal with nu = cosh 2r.
    n = np.cosh(2.0 * r)
    c = np.sinh(2.0 * r)
    sigma = np.array(
        [
            [n, 0.0, c, 0.0],
            [0.0, n, 0.0, -c],
            [c, 0.0, n, 0.0],
            [0.0, -c, 0.0, n],
        ]
    )
    res = check_gaussian_valid(sigma)
    assert res["passed"]
    assert res["nu_s"] == pytest.approx(n, rel=1e-12)
    assert res["nu_e"] == pytest.approx(n, rel=1e-12)
    # The joint state is pure: det sigma = 1.
    assert res["det_sigma"] == pytest.approx(1.0, rel=1e-6, abs=1e-6)


def test_check_gaussian_valid_rejects_deficient_block():
    sigma = np.diag([0.5, 0.5, 1.0, 1.0])
    assert not check_gaussian_valid(sigma)["passed"]


def test_check_gaussian_valid_vacuum():
    res = check_gaussian_valid(np.eye(4))
    assert res["passed"]
    assert res["det_sigma"] == pytest.approx(1.0)
    assert res["nu_s"] == pytest.approx(1.0)
    assert res["nu_e"] == pytest.approx(1.0)
