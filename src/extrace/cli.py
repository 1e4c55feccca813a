"""Command-line entry point.

Exit codes: 0 when every requested check passes, 1 when a check fails or
a trace is undefined (with a machine-readable JSON report on stdout),
2 on malformed input or usage errors.  ``main`` reports a trace failure
from any command by its error's exact class: SeriesDivergence as
series_divergence, KiTraceError as not_ki_traceable with its residuals,
and TraceDisagreement (series and closed form disagree) as trace_failed.
Any other ArithmeticError propagates.

A command executes only the layers it runs: it calls trace.X, lsi.X,
qwhile.X and kappa.X, modules the package loads on first use, and an
option left out takes the engine's default there, so the parser and the
--version text read no layer until they are used.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__, kappa, lsi, qwhile, trace
from .linalg import LinalgError, PartitionedMap, write_csv

OK, CHECK_FAILED, BAD_INPUT = 0, 1, 2
# What from_json raises on JSON of the wrong shape (LinalgError is a ValueError).
_MALFORMED = (KeyError, TypeError, AttributeError, ValueError)


def _template(shape, spec, depth=1) -> str:
    """The text json.dumps(indent=2) gives a nested list of ``shape`` whose
    brackets open at nesting ``depth``, with ``spec`` for every entry."""
    if not shape:
        return spec
    if not shape[0]:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    item = _template(shape[1:], spec, depth + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + "  " * depth + "]"


def _array_text(a: np.ndarray) -> str:
    """A numeric array's top-level JSON value as json.dumps(indent=2) gives its
    nested lists (a complex entry as its [re, im] pair), by one % over a
    template, since the stdlib's indenting encoder runs in pure Python."""
    if a.dtype.kind == "i":
        return _template(a.shape, "%d") % tuple(a.ravel().tolist())
    if a.dtype.kind == "c":
        a = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).reshape(*a.shape, 2)
    text = _template(a.shape, "%r") % tuple(a.ravel().tolist())
    # %r spells non-finite floats nan, inf, -inf; no finite repr holds those letters.
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _emit(obj) -> None:
    """Print the dict obj as indent-2 JSON in one write.  A numpy array at any
    top-level key prints as its nested lists would, formatted by _array_text."""
    arrays = {k: v for k, v in obj.items() if isinstance(v, np.ndarray)}
    text = json.dumps({k: None if k in arrays else v for k, v in obj.items()}, indent=2)
    for k, a in arrays.items():
        # A top-level key is the one line that opens with a newline and two spaces.
        key = "\n  " + json.dumps(k) + ": "
        text = text.replace(key + "null", key + _array_text(a), 1)
    sys.stdout.write(text + "\n")


def _read(path, parse=str):
    """The UTF-8 text of the file at ``path`` put through ``parse``.  An OSError,
    ValueError (undecodable bytes, bad JSON, an integer past 4,300 digits, a NUL
    in the path) or RecursionError (JSON nested too deep) is malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError, RecursionError) as e:
        raise LinalgError(f"cannot read {path}: {e}")


def _given(**options) -> dict:
    """The options given on the command line; the engine supplies the rest."""
    return {k: v for k, v in options.items() if v is not None}


def _report_response(response, out) -> int:
    if out:
        lsi.response_to_csv(response, out)
    _emit(
        {
            "in_ports": list(response.in_ports),
            "out_ports": list(response.out_ports),
            "grid_size": response.grid_size,
            "classification": lsi.lsi_classify(response),
        }
    )
    return OK


def _cmd_trace(args) -> int:
    obj = _read(args.file, json.loads)
    try:
        pm = PartitionedMap.from_json(obj)
        loop = obj.get("loop", "U")
    except _MALFORMED as e:
        raise LinalgError(f"bad trace input: {e}")
    cfg = trace.TraceConfig(**_given(series_tol=args.tol, max_terms=args.max_terms))
    route = {"series": trace.ex_series, "ki": trace.ex_kernel_image, "both": trace.ex}[args.method]
    result = route(pm, loop, cfg)
    _emit(
        {
            "value": result.value,
            "method": result.method,
            "terms_used": result.terms_used,
            "residual": result.residual,
            "converged": result.converged,
        }
    )
    return OK if result.converged else CHECK_FAILED


def _cmd_axioms(args) -> int:
    cfg = trace.TraceConfig(**_given(compare_tol=args.tol))
    report = trace.check_trace_axioms(args.seed, args.cases, cfg)
    _emit({"passed": report.passed, "checks": report.to_json()})
    return OK if report.passed else CHECK_FAILED


def _cmd_lsi(args) -> int:
    obj = _read(args.file, json.loads)
    try:
        kernel = lsi.FirKernel.from_json(obj)
    except _MALFORMED as e:
        raise LinalgError(f"bad kernel input: {e}")
    response = lsi.dtft(kernel, **_given(grid_size=args.grid))
    if args.loop:
        response = lsi.lsi_ex(response, args.loop)
    return _report_response(response, args.out)


def _cmd_qwhile(args) -> int:
    try:
        source = qwhile.parse_source(_read(args.file))  # _read's LinalgError passes through
    except qwhile.QWhileError as e:
        raise LinalgError(f"{args.file}: {e}")
    if args.action == "check":
        _emit({"well_formed": True, "in_ports": source.program.in_count,
               "out_ports": source.program.out_count})
        return OK
    response = qwhile.semantics(source.program, **_given(grid_size=args.grid))
    return _report_response(response, args.out)


def _cmd_grover(args) -> int:
    params = kappa.GroverParams(args.B, args.kappa, args.seed, args.max_iter)
    if args.mode == "statevector":
        run = kappa.grover_statevector(params)
        if args.out:
            angles = np.array(run.angles)
            write_csv(args.out, "iteration,angle", "%d,%.17g",
                      [np.arange(1, angles.size + 1), angles])
        _emit(
            {
                "mode": "statevector",
                "halted_at": run.halted_at,
                "iterations": len(run.angles),
                "final_angle": run.angles[-1],
            }
        )
        return OK
    samples, summary = kappa.grover_montecarlo(params, args.trials)
    if args.out:
        # The angle is a function of the halting iteration, so each distinct
        # key (iterations, censored) has one row tail, formatted once.  The
        # keys overwrite the iterations, and the trial numbers the keys.
        key = np.multiply(samples.iterations, 2, out=samples.iterations)
        key += samples.censored
        angle = np.empty(key.max() + 1)
        angle[key] = samples.angle  # any trial's angle stands for its key's
        keys = np.flatnonzero(np.bincount(key))
        tails = np.empty(angle.size, dtype=object)
        tails[keys] = ["%d,%d,%.17g" % row for row in zip(
            (keys >> 1).tolist(), (keys & 1).tolist(), angle[keys].tolist())]
        tails = tails[key]
        key.fill(1)
        write_csv(args.out, "trial,iterations,censored,angle_at_halt", "%d,%s",
                  [np.subtract(np.cumsum(key, out=key), 1, out=key), tails])
    _emit(vars(summary))  # the fields in order, the histogram as its array
    return OK


def _cmd_bound(args) -> int:
    rb = kappa._grover_bound(args.B, args.kappa)
    t_c = kappa.runtime_bound(rb, args.c)
    _emit({"B": args.B, "kappa": rb.kappa, "epsilon": rb.epsilon, "c": args.c, "T": t_c})
    return OK


class _Version(argparse._VersionAction):
    """--version, whose text names the engine's defaults, read only when asked for."""

    def __call__(self, parser, *args):
        cfg = trace.TraceConfig()
        self.version = (f"extrace {__version__} (grid={lsi.DEFAULT_GRID}, "
                        f"series_tol={cfg.series_tol:g}, ki_residual_tol={cfg.ki_residual_tol:g})")
        super().__call__(parser, *args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="extrace")
    parser.add_argument("--version", action=_Version)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="trace a partitioned map over its loop block")
    p.add_argument("file")
    p.add_argument("--method", choices=["series", "ki", "both"], default="both")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-terms", type=int)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("axioms", help="run the randomized trace-axiom suite")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("lsi", help="frequency response of an FIR kernel")
    p.add_argument("file")
    p.add_argument("--grid", type=int)
    p.add_argument("--loop", type=int, default=0, help="trace this many trailing ports")
    p.add_argument("--out", help="write the response as CSV")
    p.set_defaults(func=_cmd_lsi)

    p = sub.add_parser("qwhile", help="check or run a qWhile source file")
    p.add_argument("action", choices=["run", "check"])
    p.add_argument("file")
    p.add_argument("--grid", type=int)
    p.add_argument("--out", help="write the response as CSV")
    p.set_defaults(func=_cmd_qwhile)

    p = sub.add_parser("grover", help="simulate the weakly-measured search loop")
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--mode", choices=["recurrence", "statevector"], default="recurrence")
    p.add_argument("--out", help="write per-trial results as CSV")
    p.set_defaults(func=_cmd_grover)

    p = sub.add_parser("bound", help="print the halting-time bound T_c")
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--c", type=int, default=1)
    p.set_defaults(func=_cmd_bound)

    return parser


_parser = functools.cache(build_parser)  # parse_args leaves the parser unchanged


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except LinalgError as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_INPUT
    except ArithmeticError as e:
        # A trace failure's class: its JSON error kind and the attributes reported with it.
        kind, keys = {
            trace.SeriesDivergence: ("series_divergence", ()),
            trace.KiTraceError: ("not_ki_traceable", ("residual_in", "residual_out")),
            trace.TraceDisagreement: ("trace_failed", ()),
        }.get(type(e), (None, ()))
        if kind is None:
            raise  # an OverflowError or the like is a fault, not a trace failure
        _emit({"error": kind, "message": str(e), **{k: getattr(e, k) for k in keys}})
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
