"""Numerical engine for feedback traces on contractions, LSI frequency
semantics, the qWhile toy language, and weakly-measured Grover loops.

Only the base layer, ``linalg``, executes on import.  The trace core
(``trace``), the frequency semantics (``lsi``), ``qwhile`` and the Grover
loops (``kappa``) each execute on first use, so a command skips every layer
it does not run; their exports resolve here all the same."""

import sys as _sys
from importlib.util import LazyLoader as _Lazy, find_spec as _find_spec, module_from_spec as _new

from .linalg import (
    LinalgError,
    Partition,
    PartitionedMap,
    classify,
    matrix_from_literal,
    matrix_to_literal,
    operator_norm,
    two_block,
)


def _lazy(name: str):
    """Submodule ``name``, in sys.modules, executing on its first attribute access."""
    spec = _find_spec(f"{__name__}.{name}")
    spec.loader = _Lazy(spec.loader)
    module = _sys.modules[spec.name] = _new(spec)
    spec.loader.exec_module(module)
    return module


trace, lsi, qwhile, kappa = map(_lazy, ["trace", "lsi", "qwhile", "kappa"])
_DEFERRED = {  # export -> the module that defines it
    **dict.fromkeys(["KiTraceError", "SeriesDivergence", "TraceConfig", "TraceDisagreement",
                     "TraceResult", "check_trace_axioms", "cnu_decompose", "ex",
                     "ex_kernel_image", "ex_series", "halmos_dilation"], trace),
    **dict.fromkeys(["FirKernel", "FrequencyResponse", "Signal", "convolve", "dtft",
                     "lsi_classify", "lsi_ex", "parseval_norm"], lsi),
    **dict.fromkeys(["GroverParams", "KappaMeasurement", "RuntimeBound", "grover_montecarlo",
                     "grover_recurrence", "grover_runtime_bound", "grover_statevector",
                     "guarantee_f", "kappa_measure", "robustness_g", "runtime_bound", "theta",
                     "verify_guarantee"], kappa),
    **dict.fromkeys(["check", "parse", "parse_source", "semantics"], qwhile),
}


def __getattr__(name: str):  # PEP 562: a deferred export loads its module
    if name in _DEFERRED:
        return getattr(_DEFERRED[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Every public name bound above, the submodules too, and the deferred exports.
__all__ = [n for n in globals() if not n.startswith("_")] + [*_DEFERRED]
__version__ = "0.1.0"
