"""Spans and counters around calls into squeezelab, kept in memory.

Nothing inside the package is changed: :func:`install` rebinds each
public function at the module attribute its callers look it up by (for
example ``squeezelab.cli.q_grid`` or ``squeezelab.fock_oracle.build_squeeze``)
to a wrapper that records a span or bumps a counter, and :func:`uninstall`
puts the originals back.  Calls are assumed to come from one thread, which
holds while ``SQUEEZELAB_THREADS`` is unset.
"""

from __future__ import annotations

import importlib
from time import perf_counter


class Tracer:
    """Spans (id, parent id, name, start, end, self time) and counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.children: list[tuple[str, dict]] = []  # (op, report) of traced child processes
        self._stack: list[list] = []  # open spans: [id, time covered by children]
        self._next_id = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def timed(self, name: str, fn, on_call=None):
        """Wrap ``fn`` so each call records a span; ``on_call(tracer, args,
        kwargs, result, exc)`` runs after it for counters."""
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append((frame[0], parent[0] if parent else None, name,
                                   start, end, end - start - frame[1]))
                if on_call is not None:
                    on_call(self, args, kwargs, result, exc)
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def totals(self) -> dict[str, float]:
        """Per-name inclusive seconds as ``<name>_s``, self seconds as
        ``<name>.self_s``, plus the counters, summed over this process and
        the traced children."""
        out = dict(self.counters)
        for _, _, name, start, end, own in self.spans:
            out[name + "_s"] = out.get(name + "_s", 0.0) + (end - start)
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + own
        for _, child in self.children:
            for key, value in child["totals"].items():
                out[key] = out.get(key, 0) + value
        return out


def _photon_rows(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count("squeezed_number.photon_rows", len(result))
    elif type(exc).__name__ == "NonConvergenceError":
        # raised at the cutoff cap after computing cap/2 same-parity rows
        cap = kwargs.get("hard_cap", args[2] if len(args) > 2 else 100_000)
        tracer.count("squeezed_number.photon_rows", cap // 2)


def _q_points(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count("squeezed_number.q_points", result.size)


def _squeeze_matrix(tracer, args, kwargs, result, exc):
    tracer.count("fock_oracle.build_squeeze_calls")
    if result is not None:
        tracer.peak("fock_oracle.dim_max", result.dim)
        # computed from the dimension, not measured: one dense float64 matrix
        tracer.count("fock_oracle.matrix_mb", result.dim ** 2 * 8 / 1e6)


def _calls(counter):
    return lambda tracer, args, kwargs, result, exc: tracer.count(counter)


# (modules whose attribute is rebound, attribute, span name or None for a
#  counter-only hook, counter hook or counter name)
HOOKS = (
    (("cli", "analysis", "verify", "squeezed_number"), "photon_distribution",
     "squeezed_number.photon_distribution", _photon_rows),
    (("cli", "squeezed_number"), "q_grid", "squeezed_number.q_grid", _q_points),
    (("cli", "analysis", "semiclassical", "squeezed_number"), "q_slice_imag",
     "squeezed_number.q_slice_imag", None),
    (("verify",), "coherent_amplitude_grid", "squeezed_number.coherent_amplitude_grid", None),
    (("cli", "verify"), "position_wf", "squeezed_number.wf", _calls("squeezed_number.wf_calls")),
    (("cli", "verify"), "momentum_wf", "squeezed_number.wf", _calls("squeezed_number.wf_calls")),
    (("squeezed_number", "verify"), "fock_amplitude", None, "squeezed_number.fock_amplitude_calls"),
    (("squeezed_number", "analysis"), "hermite", None, "special.hermite_calls"),
    (("cli", "semiclassical"), "approx_p", None, "semiclassical.approx_p_calls"),
    (("analysis",), "find_maxima", "analysis.find_maxima", None),
    (("analysis",), "transition_scan", "analysis.transition_scan", None),
    (("genfun",), "extract_amplitude", "genfun.extract_amplitude",
     _calls("genfun.extract_amplitude_calls")),
    (("genfun",), "extract_element", "genfun.extract_element",
     _calls("genfun.extract_element_calls")),
    (("fock_oracle",), "build_squeeze", "fock_oracle.build_squeeze", _squeeze_matrix),
    (("fock_oracle",), "bogoliubov_residual", "fock_oracle.bogoliubov_residual", None),
)


def install(tracer: Tracer) -> list[tuple]:
    """Rebind every hooked name to a wrapper bound to ``tracer``; returns
    what :func:`uninstall` needs to restore the originals."""
    saved = []
    for modules, attr, span, hook in HOOKS:
        for short in modules:
            module = importlib.import_module(f"squeezelab.{short}")
            original = getattr(module, attr)
            if span is None:
                wrapped = tracer.counted(hook, original)
            else:
                wrapped = tracer.timed(span, original, hook)
            saved.append((module, attr, original))
            setattr(module, attr, wrapped)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
