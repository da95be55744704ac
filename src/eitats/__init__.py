"""EIT/ATS identification toolkit for a driven three-level transmon in a cavity.

Library layout:

* :mod:`eitats.transmon` - charge-basis diagonalization, dipole matrix
  elements and selection rules, flux-drive coupling.
* :mod:`eitats.lindblad` - master-equation evolution, Liouvillian steady
  state, analytic weak-probe coherence and populations.
* :mod:`eitats.spectra` - exact transmission lineshape and the reduced
  difference/doublet forms (one definition each, which the fits project on),
  whose curve functions redraw any spectrum fit from its ``parameters`` dict;
  pole parameters, transparency window.
* :mod:`eitats.fitting` - :class:`Dataset`, the one sampled-curve type, and
  separable least-squares fits of all model families.
* :mod:`eitats.synth` - seeded synthetic spectra and the noise convention.
* :mod:`eitats.io_utils` - CSV readers into a :class:`Dataset`, and atomic,
  provenance-stamped writers.
* :mod:`eitats.model_selection` - information-criterion weights (each fit's
  parameter count from the fit itself), seeded sweeps, threshold extraction.
* :mod:`eitats.readout` - dispersive shifts and composite cavity transmission.
* :mod:`eitats.cli` - batch command-line pipelines (``eitats`` entry point).
"""

__version__ = "0.1.0"

from .fitting import Dataset
from .lindblad import DriveConfig, ThreeLevelRates, steady_state
from .spectra import eit_window, tprime_exact
from .transmon import TransmonSpec, diagonalize

__all__ = [
    "__version__",
    "DriveConfig",
    "ThreeLevelRates",
    "steady_state",
    "Dataset",
    "eit_window",
    "tprime_exact",
    "TransmonSpec",
    "diagonalize",
]
