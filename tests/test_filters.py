import numpy as np
import pytest
import scipy.signal

from rclab.filters import Phase, perturb_clustered_poles, section_residues

from channel_reference import UnitCircleRootError, factorize_by_phase


def random_poles_in_disk(rng, count, radius=0.85, min_sep=0.05):
    poles = []
    while len(poles) < count:
        p = radius * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        if abs(p) < 0.05:
            continue
        if all(abs(p - q) > min_sep for q in poles):
            poles.append(p)
    return np.array(poles)


class TestPartialFractions:
    """Residues of ``1 / prod_k (1 - p_k z^{-1})``, the step both configuration routes run."""

    def test_single_pole(self):
        np.testing.assert_allclose(section_residues(np.array([0.5 + 0j])), [1.0])

    def test_two_pole_residues(self):
        res = section_residues(np.array([0.25, 0.5], dtype=complex))
        np.testing.assert_allclose(res, [-1.0, 2.0], atol=1e-12)

    def test_symmetric_pair(self):
        res = section_residues(np.array([-0.5, 0.5], dtype=complex))
        np.testing.assert_allclose(res, [0.5, 0.5], atol=1e-12)

    def test_recombination(self):
        rng = np.random.default_rng(2)
        n = 128
        impulse = np.zeros(n)
        impulse[0] = 1.0
        steps = np.arange(n)
        for _ in range(25):
            poles = random_poles_in_disk(rng, rng.integers(1, 11))
            # sum_k c_k p_k^t, the impulse response of the parallel one-pole sections
            parallel = np.sum(section_residues(poles)[:, None] * poles[:, None] ** steps, axis=0)
            direct = scipy.signal.lfilter([1.0], np.atleast_1d(np.poly(poles)), impulse)
            assert np.max(np.abs(parallel - direct)) <= 1e-6


class TestPerturbClusteredPoles:
    def test_splits_duplicates(self):
        out = perturb_clustered_poles(np.array([0.5 + 0j, 0.5 + 0j]))
        assert abs(out[0] - out[1]) > 1e-6

    def test_leaves_separated_poles_alone(self):
        p = np.array([0.3 + 0j, -0.6 + 0.1j])
        np.testing.assert_array_equal(perturb_clustered_poles(p), p)


class TestFactorizeByPhase:
    def test_strictly_mp(self):
        f = factorize_by_phase([1, -0.5])
        assert f.classification is Phase.STRICTLY_MP
        np.testing.assert_allclose(f.mp_factor, [1, -0.5])
        np.testing.assert_allclose(f.nmp_factor, [1])

    def test_mixed(self):
        f = factorize_by_phase([1, -2.5, 1])
        assert f.classification is Phase.MIXED
        np.testing.assert_allclose(f.mp_factor, [1, -0.5], atol=1e-12)
        np.testing.assert_allclose(f.nmp_factor, [1, -2], atol=1e-12)

    def test_unit_circle_root(self):
        # (1 - z^-1)(1 - 2 z^-1) has a root exactly on the circle
        with pytest.raises(UnitCircleRootError):
            factorize_by_phase([1, -3, 2])

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize_by_phase([0, 0, 1])

    def test_constant_taps(self):
        f = factorize_by_phase([2.0])
        assert f.classification is Phase.STRICTLY_MP
        np.testing.assert_allclose(f.mp_factor, [2.0])

    def test_strictly_nmp(self):
        f = factorize_by_phase([1, -2])
        assert f.classification is Phase.STRICTLY_NMP
        np.testing.assert_allclose(f.mp_factor, [1])
        np.testing.assert_allclose(f.nmp_factor, [1, -2])

    def test_random_reconstruction_and_root_split(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            h[0] += 2.0
            try:
                fact = factorize_by_phase(h)
            except UnitCircleRootError:
                continue
            product = np.convolve(fact.mp_factor, fact.nmp_factor)
            padded = np.zeros(h.size, dtype=complex)
            padded[: product.size] = product
            np.testing.assert_allclose(padded, h, rtol=1e-7, atol=1e-7 * np.abs(h).max())
            if fact.mp_factor.size > 1:
                assert np.all(np.abs(np.roots(fact.mp_factor)) < 1)
            if fact.nmp_factor.size > 1:
                assert np.all(np.abs(np.roots(fact.nmp_factor)) > 1)
