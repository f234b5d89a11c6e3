"""Special functions and the inversion of J.

lifetime and wald call scipy.special directly; the first half of this file
checks those calls, with the argument conventions the package uses, against
the arbitrary-precision fixture tests/fixtures/special_reference.json
(generated by tests/oracles/gen_special_reference.py, mpmath at 40 digits,
and checked in). The accuracy contracts are relative error <= 1e-12 for
gamma/digamma on (0.5, 10) and absolute error <= 1e-10 for the distribution
functions. The second half checks estimation.invert_information, the one
place where J is inverted or pseudo-inverted.
"""

import json
import pathlib

import numpy as np
import pytest
from scipy.special import chdtr, chdtri, chndtr, gamma, ndtr, ndtri, psi

from stepstress.errors import NumericError
from stepstress.estimation import CONDITION_LIMIT, invert_information

REFERENCE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "special_reference.json").read_text()
)


def chi2_quantile(p, df):
    """Lower-p chi-squared quantile, as wald's chdtri(df, alpha) at alpha = 1 - p."""
    return chdtri(df, 1.0 - p)


def test_gamma_known_values():
    assert gamma(2.0) == pytest.approx(1.0, abs=1e-14)
    assert gamma(0.5) == pytest.approx(np.sqrt(np.pi), rel=1e-14)
    assert gamma(1 + 1 / 1.535) == pytest.approx(0.9003, abs=5e-5)


def test_digamma_known_value():
    assert psi(1.0) == pytest.approx(-0.5772156649015329, abs=1e-13)


@pytest.mark.parametrize("x,expected", REFERENCE["gamma"])
def test_gamma_reference(x, expected):
    assert gamma(x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x,expected", REFERENCE["digamma"])
def test_digamma_reference(x, expected):
    assert psi(x) == pytest.approx(expected, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("x,df,expected", REFERENCE["chi2_cdf"])
def test_chi2_cdf_reference(x, df, expected):
    assert chdtr(df, x) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("p,df,expected", REFERENCE["chi2_quantile"])
def test_chi2_quantile_reference(p, df, expected):
    assert chi2_quantile(p, df) == pytest.approx(expected, rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("x,df,nc,expected", REFERENCE["noncentral_chi2_cdf"])
def test_noncentral_chi2_cdf_reference(x, df, nc, expected):
    assert chndtr(x, df, nc) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("x,expected", REFERENCE["std_normal_cdf"])
def test_std_normal_cdf_reference(x, expected):
    assert ndtr(x) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("p,expected", REFERENCE["std_normal_quantile"])
def test_std_normal_quantile_reference(p, expected):
    assert ndtri(p) == pytest.approx(expected, abs=1e-9)


def test_chi2_quantile_known_value():
    assert chdtri(1, 0.05) == pytest.approx(3.841459, abs=1e-6)


def test_std_normal_quantile_known_value():
    assert ndtri(0.975) == pytest.approx(1.959964, abs=1e-6)


def test_chi2_cdf_quantile_inverse():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.uniform(0.01, 0.99)
        df = rng.uniform(0.5, 10)
        assert chdtr(df, chi2_quantile(p, df)) == pytest.approx(p, abs=1e-8)


class TestMat3:
    def test_solve_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        j_inv, ill = invert_information(np.eye(3))
        assert j_inv @ b == pytest.approx(b)
        assert not ill

    def test_diagonal_inverse(self):
        j_inv, ill = invert_information(np.diag([2.0, 4.0, 8.0]))
        assert j_inv == pytest.approx(np.diag([0.5, 0.25, 0.125]))
        assert not ill

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = rng.normal(size=(3, 3))
            a = m @ m.T + 0.1 * np.eye(3)
            inv, ill = invert_information(a)
            assert not ill
            assert a @ inv == pytest.approx(np.eye(3), abs=1e-9)
            assert np.all(np.isfinite(inv @ rng.normal(size=3)))

    def test_solve_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            b = rng.normal(size=3)
            x = invert_information(a)[0] @ b
            assert np.linalg.norm(a @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1.0)

    def test_ill_conditioned_flagged(self):
        a = np.diag([1.0, 1.0, 1e-14])
        assert np.linalg.cond(a) > CONDITION_LIMIT
        _, ill = invert_information(a)
        assert ill

    def test_pseudo_inverse_drops_null_space(self):
        # rank-2 symmetric matrix: pinv inverts the range, kills the kernel
        v = np.array([1.0, 2.0, -1.0])
        p, ill = invert_information(np.diag([4.0, 9.0, 0.0]))
        assert ill
        assert p == pytest.approx(np.diag([0.25, 1 / 9, 0.0]))
        q = np.outer(v, v)
        pq, _ = invert_information(q)
        # A A+ A = A
        assert q @ pq @ q == pytest.approx(q, abs=1e-9)

    def test_singular_information(self):
        j_inv, ill = invert_information(np.ones((3, 3)))
        assert ill
        assert j_inv == pytest.approx(np.ones((3, 3)) / 9.0)
        np.testing.assert_array_equal(invert_information(np.zeros((3, 3)))[0], 0.0)

    def test_non_finite_information_raises(self):
        with pytest.raises(NumericError):
            invert_information(np.diag([1.0, np.nan, 1.0]))
