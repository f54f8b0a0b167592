"""Eigensplits, transition products, and coordinate-limit trichotomy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddle_escape import schedules as sch
from saddle_escape import spectral
from saddle_escape.spectral import (CONSTANT, CONVERGES_NONZERO, DIVERGES,
                                    TO_ZERO, classify_coordinate_limit,
                                    quadratic_trajectory, split,
                                    transition_product)


def test_split_diagonal():
    sp = split(np.diag([2.0, -2.0]))
    np.testing.assert_allclose(sp.eigenvalues, [2.0, -2.0])
    assert list(sp.stable_indices) == [0]
    assert list(sp.unstable_indices) == [1]
    np.testing.assert_allclose(sp.Q @ sp.Q_inv, np.eye(2), atol=1e-14)


def test_split_orders_descending_and_reconstructs():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((4, 4))
    G = (B + B.T) / 2
    sp = split(G)
    assert np.all(np.diff(sp.eigenvalues) <= 0)
    recon = sp.Q_inv @ np.diag(sp.eigenvalues) @ sp.Q
    np.testing.assert_allclose(recon, G, atol=1e-10)


def test_split_nonsymmetric_uses_general_eigensolver():
    G = np.array([[1.0, 0.3], [0.0, -1.0]])
    sp = split(G)
    np.testing.assert_allclose(sp.eigenvalues, [1.0, -1.0], atol=1e-12)
    recon = sp.Q_inv @ np.diag(sp.eigenvalues) @ sp.Q
    np.testing.assert_allclose(recon, G, atol=1e-10)


def test_split_rejects_complex_spectrum():
    G = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rotation: eigenvalues +-i
    with pytest.raises(spectral.SpectralError):
        split(G)


def test_zero_eigenvalue_goes_to_unstable_block():
    # the stable block takes lambda > 0; everything else is "unstable or flat"
    sp = split(np.diag([1.0, 0.0, -1.0]))
    assert list(sp.stable_indices) == [0]
    assert sorted(sp.unstable_indices) == [1, 2]


@settings(max_examples=40)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_split_vector_roundtrip(d, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((d, d))
    sp = split((B + B.T) / 2)
    # diagonal-frame coordinates z = Q x map back through Q_inv
    x = rng.standard_normal(d)
    z = sp.Q @ x
    np.testing.assert_allclose(sp.Q_inv @ z, x, atol=1e-10)


def test_transition_product_telescopes():
    # with alpha_t = 1/(t+2): prod_{t=0}^{98}(1 - alpha_t) = 1/100 and
    # prod_{t=0}^{98}(1 + alpha_t) = 101/2
    sp = split(np.diag([1.0, -1.0]))
    s = sch.power(1.0, 1.0, 2)
    B = transition_product(sp, s, 98, 0)
    assert B[0] == pytest.approx(1.0 / 100.0, rel=1e-13)
    assert B[1] == pytest.approx(101.0 / 2.0, rel=1e-13)


def test_trajectory_matches_iteration_and_telescoped_values():
    sp = split(np.diag([1.0, -1.0]))
    s = sch.power(1.0, 1.0, 2)
    x0 = np.array([1.0, 1.0])
    traj = quadratic_trajectory(sp, s, x0, 98)
    # telescoped closed forms after k steps: x0/(k+1) and x0*(k+2)/2
    assert traj[98, 0] == pytest.approx(1.0 / 99.0, rel=1e-13)
    assert traj[98, 1] == pytest.approx(50.0, rel=1e-13)
    x = x0.copy()
    for k in range(98):
        x = x - s.value(k) * (np.diag([1.0, -1.0]) @ x)
        np.testing.assert_allclose(traj[k + 1], x, rtol=1e-12)


def test_trichotomy_tags():
    harmonic = sch.power(1.0, 1.0, 2)
    p4 = sch.power(1.0, 4.0, 2)
    geo = sch.geometric(0.1, 0.9)
    assert classify_coordinate_limit(1.0, harmonic) == TO_ZERO
    assert classify_coordinate_limit(-1.0, harmonic) == DIVERGES
    assert classify_coordinate_limit(0.0, harmonic) == CONSTANT
    assert classify_coordinate_limit(1.0, p4) == CONVERGES_NONZERO
    assert classify_coordinate_limit(-1.0, p4) == CONVERGES_NONZERO
    assert classify_coordinate_limit(1.0, geo) == CONVERGES_NONZERO
    assert classify_coordinate_limit(-1.0, geo) == CONVERGES_NONZERO
    assert classify_coordinate_limit(0.5, sch.constant(0.1)) == TO_ZERO
    assert classify_coordinate_limit(-0.5, sch.constant(0.1)) == DIVERGES
