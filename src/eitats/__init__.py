"""EIT/ATS identification toolkit for a driven three-level transmon in a cavity.

Library layout:

* :mod:`eitats.transmon` - charge-basis diagonalization, dipole matrix
  elements and selection rules, flux-drive coupling.
* :mod:`eitats.lindblad` - master-equation evolution, Liouvillian steady
  state, analytic weak-probe coherence and populations.
* :mod:`eitats.spectra` - exact transmission lineshape, reduced
  difference/doublet models, pole parameters, transparency window.
* :mod:`eitats.fitting` - separable least-squares fits of all model families.
* :mod:`eitats.model_selection` - information-criterion weights, seeded
  sweeps, threshold extraction.
* :mod:`eitats.readout` - dispersive shifts and composite cavity transmission.
* :mod:`eitats.cli` - batch command-line pipelines (``eitats`` entry point).
"""

__version__ = "0.1.0"

from .lindblad import DriveConfig, ThreeLevelRates, steady_state
from .spectra import ExactModelParams, Spectrum, eit_window, tprime_exact
from .transmon import TransmonSpec, diagonalize

__all__ = [
    "__version__",
    "DriveConfig",
    "ThreeLevelRates",
    "steady_state",
    "ExactModelParams",
    "Spectrum",
    "eit_window",
    "tprime_exact",
    "TransmonSpec",
    "diagonalize",
]
