"""Flux-tunable transmon in the truncated charge basis.

The artificial atom is a SQUID-based transmon described by

    H = 4 E_C (n - n_g)^2 - E_J cos(phi),

diagonalized in the charge basis |m>, m = -N..N, where the kinetic term is
diagonal and cos(phi) couples neighboring charge states.  The SQUID gives a
flux-tunable effective Josephson energy E_J = 2 E_J0 cos(pi Phi_x/Phi_0).

Electric-dipole transitions scale with |<i|n|j>| and magnetic-dipole (flux
drive) transitions with |<i|cos phi|j>|; at charge bias n_g = 1/2 parity makes
half of them vanish, which is what allows a direct one-photon 0-2 transition.

All energies are plain frequencies in Hz (E/h); matrix elements are
dimensionless magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "TransmonSpec",
    "TransmonSolution",
    "SelectionRuleTable",
    "CutoffConvergenceError",
    "effective_josephson",
    "diagonalize",
    "selection_rule_sweep",
    "circulating_current_coupling",
]

# Relative eigenfrequency change allowed when the cutoff is raised by 5.
CUTOFF_CONVERGENCE_RTOL = 1e-9


class CutoffConvergenceError(ArithmeticError):
    """Charge-basis truncation is too small for converged eigenfrequencies."""


@dataclass(frozen=True)
class TransmonSpec:
    """Parameters of the SQUID transmon.

    charging_energy : E_C in Hz
    junction_energy : E_J0 of each SQUID junction in Hz
    flux_ratio      : Phi_x / Phi_0 through the SQUID loop
    offset_charge   : charge bias n_g in Cooper pairs
    charge_cutoff   : charge basis spans m = -N..N
    num_levels      : number of eigenpairs reported
    """

    charging_energy: float
    junction_energy: float
    flux_ratio: float = 0.0
    offset_charge: float = 0.0
    charge_cutoff: int = 15
    num_levels: int = 3

    def __post_init__(self):
        if self.charging_energy <= 0:
            raise ValueError("charging_energy must be > 0")
        if self.junction_energy < 0:
            raise ValueError("junction_energy must be >= 0")
        if self.charge_cutoff < 5:
            raise ValueError("charge_cutoff must be >= 5")
        if not 1 <= self.num_levels <= 2 * self.charge_cutoff + 1:
            raise ValueError("num_levels must lie in [1, 2*charge_cutoff + 1]")


@dataclass(frozen=True)
class TransmonSolution:
    """Lowest eigenpairs of a :class:`TransmonSpec`.

    eigen_frequencies : Hz, ascending, referenced to the ground level
    n_elements        : |<i|n|j>| for the lowest ``num_levels`` states
    cosphi_elements   : |<i|cos phi|j>| for the lowest ``num_levels`` states
    """

    eigen_frequencies: np.ndarray
    n_elements: np.ndarray
    cosphi_elements: np.ndarray

    def transition_frequency(self, i: int, j: int) -> float:
        """omega_ij = omega_i - omega_j in Hz (positive for i > j)."""
        return float(self.eigen_frequencies[i] - self.eigen_frequencies[j])


@dataclass(frozen=True)
class SelectionRuleTable:
    """Dipole matrix elements versus E_J/E_C (CSV columns of the sweep)."""

    ratio: np.ndarray
    e01: np.ndarray
    e02: np.ndarray
    e12: np.ndarray
    m01: np.ndarray
    m02: np.ndarray
    m12: np.ndarray


def effective_josephson(spec: TransmonSpec) -> float:
    """Effective SQUID Josephson energy 2 E_J0 cos(pi Phi_x/Phi_0) in Hz.

    The cosine is 2-periodic in the flux ratio, so out-of-range inputs fold
    automatically.  The result is negative for folded flux near half a flux
    quantum; only its magnitude is observable and downstream code uses |E_J|.
    """
    return 2.0 * spec.junction_energy * np.cos(np.pi * spec.flux_ratio)


def _charge_hamiltonian(spec: TransmonSpec, cutoff: int):
    """Charges m = -N..N and the dense tridiagonal Hamiltonian over them."""
    m = np.arange(-cutoff, cutoff + 1, dtype=float)
    hop = np.full(2 * cutoff, -0.5 * abs(effective_josephson(spec)))
    ham = np.diag(4.0 * spec.charging_energy * (m - spec.offset_charge) ** 2)
    return m, ham + np.diag(hop, 1) + np.diag(hop, -1)


def diagonalize(spec: TransmonSpec, check_convergence: bool = True) -> TransmonSolution:
    """Diagonalize the charge-basis Hamiltonian and return the lowest levels.

    With ``check_convergence`` the diagonalization is repeated at cutoff N+5
    and any relative eigenfrequency change above 1e-9 raises
    :class:`CutoffConvergenceError` rather than being silently accepted.
    Disable the check as a fast path inside converged sweeps.
    """
    # Shifted by E_J the Hamiltonian is positive semidefinite (Gershgorin), so its SVD
    # is its eigendecomposition.  eigh from 26 states wakes numpy's OpenBLAS threads,
    # which spin after it returns and slowed later numpy work twofold; SVD at 31 does not.
    nlev, e_j = spec.num_levels, abs(effective_josephson(spec))
    m, ham = _charge_hamiltonian(spec, spec.charge_cutoff)
    vecs, vals, _ = np.linalg.svd(ham + e_j * np.eye(m.size))
    vals, vecs = vals[::-1][:nlev] - e_j, vecs[:, ::-1][:, :nlev]
    freqs = vals - vals[0]

    if check_convergence:
        vals_hi = np.linalg.eigvalsh(_charge_hamiltonian(spec, spec.charge_cutoff + 5)[1])
        freqs_hi = vals_hi[:nlev] - vals_hi[0]
        scale = max(np.max(np.abs(freqs_hi)), 4.0 * spec.charging_energy)
        worst = np.max(np.abs(freqs - freqs_hi)) / scale
        if worst > CUTOFF_CONVERGENCE_RTOL:
            raise CutoffConvergenceError(
                f"eigenfrequencies move by {worst:.2e} (relative) when the "
                f"charge cutoff is raised from {spec.charge_cutoff} to "
                f"{spec.charge_cutoff + 5}; increase charge_cutoff"
            )

    # n is diagonal in charge; cos(phi) is the symmetric nearest-neighbor shift.
    n_el = np.abs(vecs.T @ (vecs * m[:, None]))
    shifted = 0.5 * (np.vstack([vecs[1:], np.zeros(nlev)])
                     + np.vstack([np.zeros(nlev), vecs[:-1]]))
    cos_el = np.abs(vecs.T @ shifted)

    return TransmonSolution(
        eigen_frequencies=freqs,
        n_elements=0.5 * (n_el + n_el.T),
        cosphi_elements=0.5 * (cos_el + cos_el.T),
    )


def selection_rule_sweep(spec_template: TransmonSpec, ratio_grid) -> SelectionRuleTable:
    """Dipole matrix elements of the lowest three levels versus E_J/E_C.

    Each grid point is solved at the template's offset charge and cutoff with
    the effective Josephson energy set to ratio * E_C directly (flux_ratio 0,
    per-junction energy ratio * E_C / 2).
    """
    ratios = np.asarray(ratio_grid, dtype=float)
    if ratios.ndim != 1 or ratios.size == 0:
        raise ValueError("ratio_grid must be a non-empty 1-D array")
    if np.any(ratios <= 0):
        raise ValueError("ratio_grid values must be > 0")

    cols = {name: np.empty_like(ratios) for name in ("e01", "e02", "e12", "m01", "m02", "m12")}
    for idx, ratio in enumerate(ratios):
        spec = replace(
            spec_template,
            junction_energy=0.5 * ratio * spec_template.charging_energy,
            flux_ratio=0.0,
            num_levels=max(3, spec_template.num_levels),
        )
        sol = diagonalize(spec, check_convergence=False)
        cols["e01"][idx] = sol.n_elements[0, 1]
        cols["e02"][idx] = sol.n_elements[0, 2]
        cols["e12"][idx] = sol.n_elements[1, 2]
        cols["m01"][idx] = sol.cosphi_elements[0, 1]
        cols["m02"][idx] = sol.cosphi_elements[0, 2]
        cols["m12"][idx] = sol.cosphi_elements[1, 2]
    return SelectionRuleTable(ratio=ratios, **cols)


def circulating_current_coupling(
    spec: TransmonSpec, sol: TransmonSolution, i: int, j: int
) -> float:
    """Flux-drive coupling between levels i and j, in Hz per Phi_0.

    The SQUID circulating current couples a weak drive flux to cos(phi) with
    prefactor 2 pi E_J0 sin(pi Phi_x/Phi_0) per flux quantum, so the i-j
    transition strength is that prefactor times |<i|cos phi|j>|.
    """
    if i == j:
        raise ValueError("level indices must differ")
    nlev = sol.eigen_frequencies.shape[0]
    if not (0 <= i < nlev and 0 <= j < nlev):
        raise ValueError("level index out of range")
    prefactor = 2.0 * np.pi * spec.junction_energy * np.sin(np.pi * spec.flux_ratio)
    return abs(prefactor) * float(sol.cosphi_elements[i, j])
