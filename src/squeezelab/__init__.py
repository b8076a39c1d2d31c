"""squeezelab: squeezed number states of a single field mode.

Every representation (photon number, position, momentum, Husimi Q) is
available through three mutually independent routes: closed forms (a
Jacobi recurrence in the state index for photon amplitudes, one Hermite
recurrence for the rest), Taylor-coefficient extraction from
squeezed-coherent generating functions, and a truncated-basis oracle
that applies the squeeze operator by a Chebyshev expansion of its
exponential.  numpy is the only runtime dependency.
The analysis layer quantifies the oscillation structure those
distributions share, and a semiclassical area-of-overlap model
reproduces it on the Husimi slice.
"""

__version__ = "0.1.0"

from .analysis import (CorrespondenceRow, MaximaReport, ScanError,
                       SliceRatioReport, TransitionResult, find_maxima,
                       maxima_count_law, momentum_density_table,
                       momentum_zeros, position_density_table, q_slice_table,
                       qmax_to_nmax, slice_proportionality, support_widening,
                       transition_scan)
from .fock_oracle import (FockMatrix, TrustRegionError, bogoliubov_residual,
                          build_squeeze, default_dim, oracle_amplitude)
from .genfun import (exp_series, extract_amplitude, extract_element,
                     identity_kernel, photon_number_kernel, series, series_mul,
                     transformed_number_kernel)
from .semiclassical import (ClassicallyForbiddenError, OverlapComparison,
                            approx_p, area_weight, classical_boundary,
                            classical_depth, fit_scale, interference_phase,
                            overlap_comparison)
from .special import hermite, hermite_reduction_check, log_factorial
from .squeezed_coherent import (fock_amplitude_scs, momentum_wf_scs,
                                overlap_coherent, position_wf_scs)
from .squeezed_number import (NonConvergenceError, SqueezedNumberState,
                              coherent_amplitude, fock_amplitude, momentum_wf,
                              photon_distribution, position_wf, q_function,
                              q_grid, q_slice_imag)
from .tables import DistributionTable, GridSpec, TableMeta

__all__ = [
    "__version__",
    "ClassicallyForbiddenError", "CorrespondenceRow",
    "DistributionTable", "FockMatrix", "GridSpec", "MaximaReport",
    "NonConvergenceError", "OverlapComparison", "ScanError",
    "SliceRatioReport", "SqueezedNumberState", "TableMeta",
    "TransitionResult", "TrustRegionError",
    "approx_p", "area_weight", "bogoliubov_residual", "build_squeeze",
    "classical_boundary", "classical_depth", "coherent_amplitude", "default_dim",
    "exp_series", "extract_amplitude", "extract_element", "find_maxima",
    "fit_scale", "fock_amplitude", "fock_amplitude_scs", "hermite",
    "hermite_reduction_check", "identity_kernel", "interference_phase",
    "log_factorial", "maxima_count_law", "momentum_density_table",
    "momentum_wf", "momentum_wf_scs", "momentum_zeros", "oracle_amplitude",
    "overlap_coherent", "overlap_comparison", "photon_distribution",
    "photon_number_kernel", "position_density_table", "position_wf",
    "position_wf_scs", "q_function", "q_grid", "q_slice_imag",
    "q_slice_table", "qmax_to_nmax", "series", "series_mul",
    "slice_proportionality", "support_widening", "transformed_number_kernel",
    "transition_scan",
]
