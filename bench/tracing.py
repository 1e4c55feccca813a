"""Span tracing of the engine's public functions, from outside the engine.

Modules import names directly (`from .trace import ex`), so one function
has a binding in every module that imports it. `Tracer.install` wraps
the function at each of those bindings, so a call is seen whichever
module makes it. Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Public functions traced, by defining module.
TRACED = {
    "linalg": ["operator_norm", "classify", "matrix_from_literal"],
    "trace": ["ex", "ex_series", "ex_kernel_image", "check_trace_axioms"],
    "lsi": ["dtft", "lsi_ex", "lsi_classify", "response_to_csv"],
    "qwhile": ["parse_source", "check", "semantics"],
    "kappa": ["grover_montecarlo", "halting_probabilities", "grover_statevector"],
    "cli": ["main"],
}


class Tracer:
    """Records one span per traced call: name, start, end, parent span,
    operation id and the class of any exception the call raised."""

    def __init__(self):
        self.names: list[str] = []
        self.exc_names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.exc = array("i")
        self.counters: dict[str, int] = {}
        self.op_id = -1
        self._stack = [-1]
        self._restore: list = []

    def _intern(self, table: list, value: str) -> int:
        try:
            return table.index(value)
        except ValueError:
            table.append(value)
            return len(table) - 1

    def _wrap(self, span_name: str, fn, on_return=None):
        nid = self._intern(self.names, span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.exc.append(-1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.exc[idx] = self._intern(self.exc_names, type(e).__name__)
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
                self._stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def install(self, package: str = "extrace") -> int:
        """Wrap every traced function at every module binding of it.
        Returns the number of bindings wrapped."""
        hooks = {
            "trace.ex_series": lambda r: self._count("trace.ex_series.terms", r.terms_used),
            "kappa.grover_montecarlo": lambda r: self._count("kappa.trials", r[1].n_trials),
            # The CLI reports failures as exit codes, not exceptions.
            "cli.main": lambda r: self._count("cli.main.nonzero_exits", int(r != 0)),
        }
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        for short, funcs in TRACED.items():
            home = sys.modules[f"{package}.{short}"]
            for fname in funcs:
                original = getattr(home, fname)
                span = f"{short}.{fname}"
                wrapper = self._wrap(span, original, hooks.get(span))
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
                        self._restore.append((mod, fname, original))
        return len(self._restore)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._restore.clear()

    def reset(self) -> None:
        for a in (self.name, self.start, self.end, self.parent, self.op, self.exc):
            del a[:]
        self.counters.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "exc": np.frombuffer(self.exc, dtype=np.int32).copy(),
        }

    def layer_stats(self) -> dict:
        """Per span name: calls, errors, total and self seconds. Self time
        is a span's duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        stats = {}
        for i, name in enumerate(self.names):
            sel = a["name"] == i
            stats[name] = {
                "calls": int(sel.sum()),
                "errors": int((a["exc"][sel] >= 0).sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
            }
        return stats

    def op_exceptions(self) -> dict:
        """Operation id -> (class, span) of the innermost span that raised."""
        a = self.arrays()
        raised = np.flatnonzero(a["exc"] >= 0)
        out = {}
        # The innermost raising span ends first.
        for i in raised[np.argsort(a["end"][raised], kind="stable")]:
            op = int(a["op"][i])
            if op not in out:
                out[op] = (self.exc_names[a["exc"][i]], self.names[a["name"][i]])
        return out
