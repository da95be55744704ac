import numpy as np
import pytest

from eitats.transmon import (
    CUTOFF_CONVERGENCE_RTOL,
    CutoffConvergenceError,
    TransmonSpec,
    circulating_current_coupling,
    diagonalize,
    effective_josephson,
    selection_rule_sweep,
)

E_C = 412e6
E_J_EIT = 7.0e9  # effective Josephson energy at the transparency bias point


def spec_at(ratio, n_g=0.5, cutoff=15, num_levels=3):
    return TransmonSpec(
        charging_energy=E_C,
        junction_energy=0.5 * ratio * E_C,
        flux_ratio=0.0,
        offset_charge=n_g,
        charge_cutoff=cutoff,
        num_levels=num_levels,
    )


def dense_oracle(e_c, e_j, n_g, cutoff=30, nlev=3):
    """Independent dense-eigensolver oracle for the charge-basis spectrum."""
    m = np.arange(-cutoff, cutoff + 1, dtype=float)
    ham = np.diag(4.0 * e_c * (m - n_g) ** 2)
    ham += np.diag(np.full(2 * cutoff, -0.5 * e_j), 1)
    ham += np.diag(np.full(2 * cutoff, -0.5 * e_j), -1)
    vals = np.linalg.eigvalsh(ham)
    return vals[:nlev] - vals[0]


class TestEffectiveJosephson:
    def test_zero_flux(self):
        spec = TransmonSpec(charging_energy=E_C, junction_energy=3.5e9)
        assert effective_josephson(spec) == pytest.approx(7.0e9, rel=1e-15)

    def test_half_quantum(self):
        spec = TransmonSpec(charging_energy=E_C, junction_energy=3.5e9, flux_ratio=0.5)
        assert abs(effective_josephson(spec)) < 1e-5

    def test_eit_bias_point(self):
        # junction energy chosen so the effective coupling is 7.0 GHz at this bias
        flux = 0.2
        e_j0 = E_J_EIT / (2.0 * np.cos(np.pi * flux))
        spec = TransmonSpec(charging_energy=E_C, junction_energy=e_j0, flux_ratio=flux)
        assert effective_josephson(spec) == pytest.approx(E_J_EIT, rel=1e-12)

    def test_folded_flux_negative(self):
        spec = TransmonSpec(charging_energy=E_C, junction_energy=3.5e9, flux_ratio=0.8)
        assert effective_josephson(spec) < 0


class TestDiagonalize:
    def test_paper_point_frequencies(self):
        sol = diagonalize(spec_at(E_J_EIT / E_C))
        w10 = sol.transition_frequency(1, 0)
        w21 = sol.transition_frequency(2, 1)
        oracle = dense_oracle(E_C, E_J_EIT, 0.5)
        assert w10 == pytest.approx(oracle[1], rel=1e-10)
        assert w21 == pytest.approx(oracle[2] - oracle[1], rel=1e-10)
        # measured transition frequencies, 3% covers asymptotic-vs-exact spread
        assert w10 == pytest.approx(4.39125e9, rel=0.03)
        assert w21 == pytest.approx(3.97950e9, rel=0.03)

    def test_zero_josephson_charge_states(self):
        spec = TransmonSpec(charging_energy=E_C, junction_energy=0.0,
                            offset_charge=0.25, num_levels=3)
        sol = diagonalize(spec)
        off_diag = sol.n_elements - np.diag(np.diag(sol.n_elements))
        assert np.max(np.abs(off_diag)) < 1e-12

    def test_forbidden_e02_at_half_charge(self):
        sol = diagonalize(spec_at(E_J_EIT / E_C, n_g=0.5))
        assert sol.n_elements[0, 2] < 1e-10

    def test_parity_selection_rules(self):
        sol = diagonalize(spec_at(16.99, n_g=0.5))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                if (i + j) % 2 == 0:
                    assert sol.n_elements[i, j] < 1e-10
                else:
                    assert sol.cosphi_elements[i, j] < 1e-10

    def test_frequencies_increasing_and_elements_symmetric(self):
        sol = diagonalize(spec_at(20.0, n_g=0.3, num_levels=5))
        assert np.all(np.diff(sol.eigen_frequencies) > 0)
        assert np.array_equal(sol.n_elements, sol.n_elements.T)
        assert np.array_equal(sol.cosphi_elements, sol.cosphi_elements.T)
        assert np.all(sol.n_elements >= 0)
        assert np.all(sol.cosphi_elements >= 0)

    def test_omega20_sum_consistency(self):
        sol = diagonalize(spec_at(16.99))
        w20 = sol.transition_frequency(2, 0)
        total = sol.transition_frequency(2, 1) + sol.transition_frequency(1, 0)
        assert w20 == pytest.approx(total, rel=1e-12)

    def test_cutoff_convergence_invariant(self):
        for ratio in (10.0, 30.0, 50.0):
            lo = diagonalize(spec_at(ratio, cutoff=15))
            hi = diagonalize(spec_at(ratio, cutoff=20))
            rel = np.abs(lo.eigen_frequencies[1:] - hi.eigen_frequencies[1:])
            rel = rel / np.abs(hi.eigen_frequencies[1:])
            assert np.max(rel) < 1e-9

    @pytest.mark.parametrize("n_g", [0.0, 0.25, 0.5])
    def test_matches_tridiagonal_reference(self, n_g):
        # the dense SVD solve against scipy's tridiagonal solver, which it replaced
        from scipy.linalg import eigh_tridiagonal

        for ratio in (10.0, 20.0, 30.0, 40.0, 50.0):
            spec = spec_at(ratio, n_g=n_g)
            sol = diagonalize(spec)
            m = np.arange(-15, 16, dtype=float)
            vals, vecs = eigh_tridiagonal(
                4.0 * E_C * (m - n_g) ** 2, np.full(30, -0.5 * ratio * E_C),
                select="i", select_range=(0, 2))
            n_ref = np.abs(vecs.T @ (m[:, None] * vecs))
            cos_ref = np.abs(0.5 * (vecs[:-1].T @ vecs[1:] + vecs[1:].T @ vecs[:-1]))
            np.testing.assert_allclose(sol.eigen_frequencies, vals - vals[0],
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(sol.n_elements, n_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sol.cosphi_elements, cos_ref, rtol=0, atol=1e-12)

    def test_cutoff_tolerance(self):
        assert CUTOFF_CONVERGENCE_RTOL == 1e-9

    def test_cutoff_sensitivity_reported(self):
        with pytest.raises(CutoffConvergenceError):
            diagonalize(spec_at(220.0, cutoff=5))

    def test_charge_dispersion_decays_with_ratio(self):
        gaps = []
        for ratio in (10.0, 20.0, 30.0, 40.0):
            w_half = diagonalize(spec_at(ratio, n_g=0.5)).eigen_frequencies[1]
            w_zero = diagonalize(spec_at(ratio, n_g=0.0)).eigen_frequencies[1]
            gaps.append(abs(w_half - w_zero))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TransmonSpec(charging_energy=-1.0, junction_energy=1e9)
        with pytest.raises(ValueError, match="^junction_energy must be >= 0$"):
            TransmonSpec(charging_energy=E_C, junction_energy=-1.0)
        with pytest.raises(ValueError):
            TransmonSpec(charging_energy=E_C, junction_energy=1e9, charge_cutoff=3)
        with pytest.raises(ValueError):
            TransmonSpec(charging_energy=E_C, junction_energy=1e9,
                         charge_cutoff=5, num_levels=12)


class TestSelectionRuleSweep:
    def test_half_charge_magnetic_rules(self):
        table = selection_rule_sweep(spec_at(16.99, n_g=0.5),
                                     np.linspace(5.0, 50.0, 10))
        assert np.max(table.m01) < 1e-10
        assert np.max(table.m12) < 1e-10
        assert np.min(table.m02) > 0.0

    def test_quarter_charge_weak_e02(self):
        table = selection_rule_sweep(spec_at(16.99, n_g=0.25), np.array([16.99]))
        assert table.e02[0] > 0.0
        assert table.e02[0] / table.e01[0] < 0.1

    def test_e01_grows_with_ratio(self):
        table = selection_rule_sweep(spec_at(16.99, n_g=0.5),
                                     np.geomspace(5.0, 200.0, 12))
        assert np.all(np.diff(table.e01) > 0)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            selection_rule_sweep(spec_at(16.99), np.array([-1.0, 2.0]))
        with pytest.raises(ValueError, match="^ratio_grid must be a non-empty 1-D array$"):
            selection_rule_sweep(spec_at(16.99), np.array([]))


class TestCirculatingCurrentCoupling:
    def test_zero_at_zero_flux(self):
        spec = spec_at(16.99, n_g=0.5)
        sol = diagonalize(spec)
        assert circulating_current_coupling(spec, sol, 0, 2) == 0.0

    def test_zero_for_forbidden_pair(self):
        flux = 0.25
        e_j0 = 16.99 * E_C / (2.0 * np.cos(np.pi * flux))
        spec = TransmonSpec(charging_energy=E_C, junction_energy=e_j0,
                            flux_ratio=flux, offset_charge=0.5)
        sol = diagonalize(spec)
        assert circulating_current_coupling(spec, sol, 0, 1) < 1e-4 * abs(
            circulating_current_coupling(spec, sol, 0, 2))

    def test_allowed_pair_value(self):
        # direct evaluation against the cos-phi element from the dense oracle
        flux = 0.25
        e_j0 = 16.99 * E_C / (2.0 * np.cos(np.pi * flux))
        spec = TransmonSpec(charging_energy=E_C, junction_energy=e_j0,
                            flux_ratio=flux, offset_charge=0.5)
        sol = diagonalize(spec)
        value = circulating_current_coupling(spec, sol, 0, 2)
        expected = 2.0 * np.pi * e_j0 * np.sin(np.pi * flux) * sol.cosphi_elements[0, 2]
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(4.8938e9, rel=1e-3)

    def test_index_validation(self):
        spec = spec_at(16.99)
        sol = diagonalize(spec)
        with pytest.raises(ValueError):
            circulating_current_coupling(spec, sol, 1, 1)
        with pytest.raises(ValueError):
            circulating_current_coupling(spec, sol, 0, 5)
