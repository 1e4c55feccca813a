"""Feedback traces on partitioned contractions.

Two routes to the same value: the path-summing series (aggregate the
direct block plus every loop excursion) and the closed-form witness
construction built from a pseudoinverse of (id - loop block).  On
contractions both are defined and must agree; the closed form is taken
as canonical since it carries no truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    LinalgError,
    PartitionedMap,
    adjoint,
    as_int,
    bracket_norms,
    classify,
    direct_sum,
    draw_contraction,
    fro_norms,
    grouped_norms,
    operator_norm,
    rescale_draws,
    stack_norms,
    stack_pinv,
    swap_matrix,
)

__all__ = [
    "AxiomReport",
    "CnuDecomposition",
    "KiTraceError",
    "SeriesDivergence",
    "TraceConfig",
    "TraceDisagreement",
    "TraceResult",
    "check_trace_axioms",
    "cnu_decompose",
    "ex",
    "ex_kernel_image",
    "ex_series",
    "halmos_dilation",
]

CNU_TOL = 1e-8  # cnu_decompose: contraction test and unitary subspace 1 - s^2 <= CNU_TOL
CNU_CHECK_TOL = 1e-7  # cnu_decompose: off-diagonal mass and unitarity of the split
AXIOM_MAX_DIM = 4  # check_trace_axioms draws every block dimension from 1..AXIOM_MAX_DIM
AXIOM_BLOCK = 256  # check_trace_axioms draws, traces and checks this many cases at a time
SERIES_BLOCK = 1 << 14  # a one-port series block holds at most this many live entries x terms
# Trace routes, kept as indices into this table until a result is returned: a
# contraction flag as an integer is _KI or _BOTH, and nonzero ones take the series.
_ROUTES = np.array(["kernel_image", "both_agree", "series"], dtype=object)
_KI, _BOTH, _SERIES = range(3)


class SeriesDivergence(ArithmeticError):
    """The path series does not converge in norm."""


class TraceDisagreement(ArithmeticError):
    """The series and the closed form give values farther apart than compare_tol."""


class KiTraceError(ArithmeticError):
    """No witness pair exists within tolerance (not ki-traceable)."""

    def __init__(self, msg, residual_in: float, residual_out: float):
        super().__init__(msg)
        self.residual_in = residual_in
        self.residual_out = residual_out


@dataclass(frozen=True)
class TraceConfig:
    series_tol: float = 1e-10
    max_terms: int = 100_000
    ki_residual_tol: float = 1e-8
    compare_tol: float = 1e-8
    blowup: float = 1e6

    def __post_init__(self):
        if not all(0 < t < math.inf for t in (self.series_tol, self.ki_residual_tol,
                                               self.compare_tol, self.blowup)):
            raise LinalgError("tolerances must be positive and finite, and so must blowup")
        as_int(self.max_terms, "max_terms", 1)


@dataclass(frozen=True)
class TraceResult:
    value: np.ndarray
    method: str  # series | kernel_image | both_agree
    terms_used: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class CnuDecomposition:
    unitary_dim: int
    basis_change: np.ndarray
    f0: np.ndarray
    f1: np.ndarray


def _blocks(m: np.ndarray, k: int):
    """f_BA, f_BU, f_UA, f_UU of the matrix, or of every matrix in the
    stack, m, the loop block being the trailing k rows and columns."""
    b, a = m.shape[-2] - k, m.shape[-1] - k
    return m[..., :b, :a], m[..., :b, a:], m[..., b:, :a], m[..., b:, a:]


def _raise_first(errors: dict):
    """Raise the error of the first failing stack entry, with its stack
    position as ``index``."""
    if errors:
        first = min(errors)
        errors[first].index = first
        raise errors[first]


def _tail_ratio(f_uu: np.ndarray) -> np.ndarray:
    """Per-term decay estimate ||P^2||^(1/2dim), P = f_uu^dim.  Contractions
    decay geometrically only after the completely-nonunitary mixing length,
    so a one-step estimate would be too pessimistic.  The probe P itself is
    not needed: ||P^2||^(1/2dim) <= ||P||^(1/dim) always.  An entry whose
    probe overflows has norm inf, so ratio inf, which certifies nothing."""
    dim = f_uu.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        probe = np.linalg.matrix_power(f_uu, dim)
        probe = probe @ probe
    return stack_norms(probe) ** (1.0 / (2 * dim))


def _vector_norms(v: np.ndarray) -> np.ndarray:
    """2-norm of each row or column vector in a stack: its Frobenius norm,
    or its SVD norm where the squares may leave the float range."""
    norm = np.sqrt(np.add.reduce((v.conj() * v).real, axis=(-2, -1)))
    odd = np.flatnonzero(~((norm > 1e-150) & (norm < 1e150)))
    odd = odd[v[odd].any(axis=(-2, -1))]
    norm[odd] = stack_norms(v[odd])
    return norm


def _stop(record, out, sums, last, norms, done, kind, cfg: TraceConfig):
    """Retire the entries ``out`` of a series record (sums, term counts,
    last term norms, convergence flags and errors by entry) at their last
    term, ``last`` for all or one each: an entry of ``kind`` 1 on a
    non-finite term, of kind 2 on a partial sum above blowup, of kind 0
    converged where ``done``."""
    total, terms, term_norm, converged, errors = record
    total[out], terms[out], term_norm[out], converged[out] = sums, last + 1, norms, done
    for i in kind.nonzero()[0]:
        at = last[i] if isinstance(last, np.ndarray) else last
        errors[int(out[i])] = SeriesDivergence(
            f"non-finite entries at series term {at}" if kind[i] == 1 else
            f"partial sum exceeded {cfg.blowup:g} at term {at}; "
            "the series does not converge in norm"
        )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # the event checks catch these
def _one_port_series(f_ba, f_bu, f_ua, f_uu, cfg: TraceConfig, record, ratio, reach, cap):
    """_series on 1x1 loop blocks u, a block of terms per array call, into
    its record.  Term t is u^t C with C = f_BU f_UA of rank one, so its norm
    is exactly |u^t| ||f_BU|| ||f_UA||.  np.cumprod takes the powers u^t in
    term order and np.cumsum the coefficients g_t = sum_{m<=t} u^m of the
    partial sums f_BA + g_t C.  Each entry stops at its first event in a
    block, by _series' rule (a zero term certifies alone), the blow-up
    looked for from the term where the bound reaches the cap on.  Stopped
    entries leave between blocks.  A block runs to the term where its
    slowest entry's norms, falling by the tail ratio, are predicted to meet
    the certificate's bar, and holds at most SERIES_BLOCK live entries x
    terms, or one term."""
    n, tol = f_ba.shape[0], cfg.series_tol
    u, c = f_uu[:, 0, 0], f_bu @ f_ua
    c_norm = _vector_norms(f_bu) * _vector_norms(f_ua)
    need = np.where(ratio < 1.0, np.log(reach / c_norm) / np.log(ratio), math.inf)
    need = np.fmin(np.fmax(need, 0.0), cfg.max_terms)  # NaN where u and ||C|| are 0: no term
    live = np.arange(n)
    # Each live entry's power u^t of its next term t, its g_(t-1) and its bound.
    power, coef, bound = np.ones(n, dtype=complex), np.zeros(n, dtype=complex), fro_norms(f_ba)
    t = 0
    while live.size:
        size = min(cfg.max_terms - t, max(1, SERIES_BLOCK // live.size),
                   max(2, int(need[live].max()) + 2 - t))
        # Term j of the block, term t + j of the series, is row j; each live entry a
        # column.  np.cumprod multiplies in term order as a Python complex product
        # does, but over two rows it takes numpy's array product, which rounds
        # otherwise: a one-term block takes a power it does not judge.
        w = np.empty((max(size, 2) + 1, live.size), dtype=complex)
        w[0], w[1:] = power, u[live]
        np.cumprod(w, axis=0, out=w)  # w[j] = u^(t + j)
        g = np.empty((size + 1, live.size), dtype=complex)
        g[0], g[1:] = coef, w[:size]
        np.cumsum(g, axis=0, out=g)  # g[j + 1] = g_(t + j)
        tn = np.abs(w[:size]) * c_norm[live]
        r = ratio[live]
        cert = (tn <= tol) & (((tn * r / (1.0 - r) <= tol) & (r < 1.0)) | (tn == 0.0))
        certified = cert.any(axis=0)
        end = np.where(certified, cert.argmax(axis=0), size - (t + size == cfg.max_terms))
        # Terms from the bound's first at the cap up to the entry's end are confirmed in
        # turn, a non-finite term first; the bound is nondecreasing.
        at, kind = end.copy(), np.zeros(live.size, dtype=np.int8)  # kind 1 bad, 2 blown
        last_bound = bound + tn.sum(axis=0)
        walk = np.flatnonzero(~(last_bound < cap))
        cross = (np.cumsum(tn[:, walk], axis=0) + bound[walk] < cap).sum(axis=0)
        on = cross <= np.minimum(end[walk], size - 1)
        walk, col = walk[on], cross[on]
        while walk.size:
            cs = c[live[walk]]
            bad = ~np.isfinite(w[col, walk][:, None, None] * cs).all(axis=(-2, -1))
            partial = f_ba[live[walk]] + g[col + 1, walk][:, None, None] * cs
            hit = bad | (bracket_norms(partial, cfg.blowup, cfg.blowup) > cfg.blowup)
            at[walk[hit]], kind[walk[hit]] = col[hit], np.where(bad[hit], 1, 2)
            on = ~hit & (col < np.minimum(end[walk], size - 1))
            walk, col = walk[on], col[on] + 1
        stop = np.flatnonzero(at < size)
        j, out, kind = at[stop], live[stop], kind[stop]
        _stop(record, out, f_ba[out] + g[j + (kind != 1), stop][:, None, None] * c[out], t + j,
              tn[j, stop], certified[stop] & (kind == 0), kind, cfg)
        keep = at == size
        live, power, coef, bound = live[keep], w[size, keep], g[size, keep], last_bound[keep]
        t += size


@np.errstate(over="ignore", invalid="ignore")  # the per-term checks catch a non-finite term
def _series(f_ba, f_bu, f_ua, f_uu, cfg: TraceConfig, exact=True):
    """Partial sums of f_BA + sum_n f_BU f_UU^n f_UA for every stack entry
    at once.  An entry stops at its first event, for both loop widths: a
    term below series_tol with a geometric tail certificate, or zero with
    every later term; a partial sum above blowup; a non-finite term; or the
    max_terms-th term.  Each stop goes through _stop.  A 1x1 loop block
    takes _one_port_series, a block of terms per array call.  A wider one
    takes a term per matmul, and a term is quiet when it is not the last
    and every live entry's ||term||_F is finite, above reach * sqrt(rank) *
    (1 + 1e-9) and keeps the bound ||f_BA||_F + sum of the terms' ||.||_F
    below blowup * (1 - 1e-9): it can neither certify nor blow up, so it
    only adds to the sums.  Other terms take SVD norms where bracket_norms
    leaves the certificate or the blow-up open, but an entry ``exact`` does
    not mark, whose last term norm goes unreported, takes an upper bound as
    its norm where that alone certifies.  Returns the sums, terms, last term
    norms, convergence flags and errors by entry."""
    n = f_ba.shape[0]
    record = (f_ba.copy(), np.zeros(n, dtype=np.int64), np.full(n, math.inf),
              np.zeros(n, dtype=bool), {})
    ratio = _tail_ratio(f_uu)
    # A term can pass the certificate only if its norm is at most this:
    # series_tol * min(1, (1 - ratio) / ratio), 0 where ratio >= 1.
    reach = cfg.series_tol * np.divide(1.0 - ratio, ratio, out=(ratio <= 0.5) * 1.0,
                                       where=(ratio > 0.5) & (ratio < 1.0))
    cap = cfg.blowup * (1 - 1e-9)
    if f_uu.shape[-1] == 1:
        _one_port_series(f_ba, f_bu, f_ua, f_uu, cfg, record, ratio, reach, cap)
        return record
    live = np.arange(n)  # entries still summing; acc holds their sums
    acc = f_ba.copy()
    bound = fro_norms(f_ba)
    quiet = reach * math.sqrt(min(f_ba.shape[1:])) * (1 + 1e-9)  # above it, surely out of reach
    lo = np.where(exact, 0.0, reach)  # 0 keeps an entry's term norms exact
    left = f_bu  # f_BU f_UU^t on the live entries
    for t in range(cfg.max_terms):
        term = left @ f_ua
        fro = fro_norms(term)
        bound += fro
        last = t == cfg.max_terms - 1
        # bound >= fro, so bound < cap also keeps fro finite.
        if not last and ((fro > quiet) & (bound < cap)).all():
            acc += term
            left = left @ f_uu
            continue
        bad = ~np.isfinite(fro)
        if bad.any():
            bad[bad] = ~np.isfinite(term[bad]).all(axis=(-2, -1))
            term[bad] = 0.0
        acc += term
        tn = bracket_norms(term, lo, math.inf if last else reach, fro)
        blown = ~bad & ~(bound < cap)
        if blown.any():
            blown[blown] = bracket_norms(acc[blown], cfg.blowup, cfg.blowup) > cfg.blowup
        if last or (bad | blown | (tn <= cfg.series_tol)).any():
            done = ~bad & ~blown & (tn <= cfg.series_tol)
            with np.errstate(divide="ignore", invalid="ignore"):
                tail = np.where(ratio < 1.0, tn * ratio / (1.0 - ratio), math.inf)
            # A zero term certifies only with the next dim - 1 terms zero too;
            # by Cayley-Hamilton every later term is then zero.
            zero = np.flatnonzero(done & (tn == 0.0))
            if zero.size:
                ahead, z_uu, z_ua = left[zero], f_uu[zero], f_ua[zero]
                vanish = np.ones(zero.size, dtype=bool)
                for _ in range(f_uu.shape[-1] - 1):
                    ahead = ahead @ z_uu
                    vanish &= ~(ahead @ z_ua).any(axis=(-2, -1))
                tail[zero] = np.where(vanish, 0.0, math.inf)
            done &= tail <= cfg.series_tol
            stop = bad | blown | done | last
            _stop(record, live[stop], acc[stop], t, tn[stop], done[stop], (bad + 2 * blown)[stop],
                  cfg)
            stay = ~stop
            if not stay.any():
                break
            if not stay.all():  # a copy changes the layout, by which matmul rounds
                live, acc, bound, ratio = live[stay], acc[stay], bound[stay], ratio[stay]
                reach, quiet, lo = reach[stay], quiet[stay], lo[stay]
                left, f_ua, f_uu = left[stay], f_ua[stay], f_uu[stay]
        left = left @ f_uu
    return record


def _kernel_image(f_ba, f_bu, f_ua, f_uu, contraction, cfg: TraceConfig, exact, parts=()):
    """Closed-form trace via witnesses i, k with f_UA = (id - f_UU) i and
    f_BU = k (id - f_UU), for every stack entry at once, from one SVD of
    h = id - f_UU, whose singular values at or below PINV_CUTOFF count as
    zeros in every loop shape, so unitary loop blocks stay traceable.  The
    input and output residuals and the agreement of the two forms, two
    roundings of f_BU P f_UA with P = h^+, are judged once: on a
    ``contraction`` against 1, elsewhere against the larger of 1 and
    ||f_UA||, ||f_BU|| or ||f_BA|| + ||f_BU|| ||P||_F ||f_UA||.  Residuals
    are exact where ``exact`` marks an entry or where they fail, as is a
    failing agreement.  A non-finite check has norm inf; a non-finite closed
    form fails whatever those norms.  Each part (entry, b, a) of a padded
    stack takes its value on its own b x a views (_trace_grouped).  Returns
    values, residuals and errors."""
    h = np.eye(f_uu.shape[-1]) - f_uu
    h_pinv = stack_pinv(h)
    with np.errstate(over="ignore", invalid="ignore"):  # an entry that overflows fails below
        i_wit = h_pinv @ f_ua
        k_wit = f_bu @ h_pinv
        value = f_ba + k_wit @ f_ua
        for i, b, a in parts:
            value[i, :b, :a] = f_ba[i, :b, :a] + f_bu[i, :b] @ h_pinv[i] @ f_ua[i, :, :a]
        diffs = (h @ i_wit - f_ua, k_wit @ h - f_bu, value - (f_ba + f_bu @ i_wit))
    finite = np.logical_and.reduce([np.isfinite(d).all(axis=(-2, -1)) for d in diffs])
    judged = np.ones((3, contraction.size))  # the bar of each check: input, output, agreement
    expansions = np.flatnonzero(~contraction)
    if expansions.size:
        n_ua, n_bu, n_ba = (stack_norms(x[expansions]) for x in (f_ua, f_bu, f_ba))
        with np.errstate(over="ignore"):  # the forms' gap is rounding of these summands
            summands = n_ba + n_bu * fro_norms(h_pinv[expansions]) * n_ua
        judged[:, expansions] = np.maximum([n_ua, n_bu, summands], 1.0)
    res_in, res_out = (bracket_norms(d, np.where(exact, 0.0, cfg.ki_residual_tol), math.inf) / s
                       for d, s in zip(diffs[:2], judged))
    residual = np.maximum(res_in, res_out)
    agree = bracket_norms(diffs[2], cfg.compare_tol * judged[2], math.inf)
    bad = ~finite | (residual > cfg.ki_residual_tol)
    if bad.any():
        res_in[bad], res_out[bad] = (stack_norms(d[bad]) / s[bad]
                                     for d, s in zip(diffs[:2], judged))
    errors = {}
    for i in np.flatnonzero(bad | (agree > cfg.compare_tol * judged[2])):
        if not finite[i]:
            msg = "not ki-traceable: the closed form is not finite"
        elif bad[i]:
            msg = (f"not ki-traceable: witness residuals {res_in[i]:.3e} (input) / "
                   f"{res_out[i]:.3e} (output) exceed {cfg.ki_residual_tol:g}")
        else:
            msg = f"witness forms disagree by {agree[i]:.3e}"
        errors[int(i)] = KiTraceError(msg, float(res_in[i]), float(res_out[i]))
    return value, residual, errors


def _trace_core(m: np.ndarray, k: int, cfg: TraceConfig, report_gap=False, route=_BOTH, parts=()):
    """Total trace of the loop block, the trailing k rows and columns, of
    every matrix in the stack ``m`` (N, rows, cols).  The contraction test
    is yes or no, ||m|| <= 1 + DEFAULT_TOL.  On the default route,
    contractions take the closed form as the canonical value and the series
    as the cross-check; the rest the closed form or, failing that, the
    series.  The closed form judges a contraction's checks against 1, any
    other's against the larger of 1 and the size of what each explains, and
    fails if not finite.  Route _SERIES runs the series alone with exact
    term norms, _KI the closed form alone with exact residuals.  Returns the
    values (N, b, a) and, per entry, the method, series terms, residual and
    convergence flag; a contraction's residual, its series/closed-form gap,
    is exact only if ``report_gap``.  Raises the first entry's error.
    ``parts`` gives a padded union's entries their own shapes."""
    m = np.asarray(m, dtype=np.complex128)
    if not np.all(np.isfinite(m)):
        raise LinalgError("matrix contains non-finite entries")
    n = m.shape[0]
    blocks = _blocks(m, k)
    routes = np.full(n, route, dtype=np.int8)
    terms = np.zeros(n, dtype=np.int64)
    converged = np.ones(n, dtype=bool)
    if k == 0:
        return blocks[0].copy(), _ROUTES[routes], terms, np.zeros(n), converged
    if route == _SERIES:
        values, terms, residual, converged, errors = _series(*blocks, cfg)
        _raise_first(errors)
        return values, _ROUTES[routes], terms, residual, converged
    limit = 1.0 + DEFAULT_TOL
    contraction = bracket_norms(m, limit, limit) <= limit
    values, residual, errors = _kernel_image(*blocks, contraction, cfg,
                                             (route == _KI) | ~contraction, parts)
    if route == _BOTH:
        # A contraction must pass both routes; any other entry whose closed
        # form fails takes the series value instead.
        routes = contraction.astype(np.int8)
        routes[[i for i in errors if not contraction[i]]] = _SERIES
        errors = {i: e for i, e in errors.items() if contraction[i]}
    idx = routes.nonzero()[0]
    if idx.size == 0:  # every entry took the closed form alone
        _raise_first(errors)
        return values, _ROUTES[routes], terms, residual, converged
    alone = routes[idx] == _SERIES
    # Contiguous copies: matmul rounds by the layout, and the golden bytes were taken on these.
    s_value, s_terms, s_norm, s_converged, s_errors = _series(
        *(x.take(idx, axis=0) for x in blocks), cfg, alone
    )
    for j, e in s_errors.items():
        errors.setdefault(int(idx[j]), e)
    terms[idx] = s_terms
    at = idx[alone]
    values[at], residual[at], converged[at] = s_value[alone], s_norm[alone], s_converged[alone]
    both = np.flatnonzero(~alone)
    at = idx[both]
    diff = values[at] - s_value[both]
    gap = stack_norms(diff) if report_gap else bracket_norms(diff, cfg.compare_tol, math.inf)
    residual[at] = gap
    fail = ~s_converged[both] | (gap > cfg.compare_tol)
    for j, g in zip(both[fail], gap[fail]):
        if not s_converged[j]:
            errors.setdefault(int(idx[j]), SeriesDivergence(
                "series failed to converge on a contraction input "
                f"(last increment {s_norm[j]:.3e})"
            ))
        else:
            errors.setdefault(int(idx[j]), TraceDisagreement(
                "internal consistency failure: series and kernel-image "
                f"values differ by {g:.3e}"
            ))
    _raise_first(errors)
    return values, _ROUTES[routes], terms, residual, converged


def _trace_one(f: PartitionedMap, loop_label: str, cfg: TraceConfig, route) -> TraceResult:
    """The trace of f over its loop block by ``route``, as a TraceResult."""
    (r0, r1), (c0, c1) = f.row_partition.span(loop_label), f.col_partition.span(loop_label)
    if r1 - r0 != c1 - c0:
        raise LinalgError(f"loop block {loop_label!r} is {r1 - r0}x{c1 - c0}; it must be square")
    # The loop block moved to the trailing rows and columns of a one-entry stack.
    rows = np.r_[0:r0, r1 : f.matrix.shape[0], r0:r1]
    cols = np.r_[0:c0, c1 : f.matrix.shape[1], c0:c1]
    values, method, terms, residual, converged = _trace_core(
        f.matrix[np.ix_(rows, cols)][None], r1 - r0, cfg, report_gap=True, route=route)
    return TraceResult(values[0], method[0], int(terms[0]), float(residual[0]), bool(converged[0]))


def ex_series(f: PartitionedMap, loop_label: str, cfg: TraceConfig = TraceConfig()) -> TraceResult:
    """Partial sums of f_BA + sum_n f_BU f_UU^n f_UA with a geometric
    tail certificate as the stopping rule."""
    return _trace_one(f, loop_label, cfg, _SERIES)


def ex_kernel_image(
    f: PartitionedMap, loop_label: str, cfg: TraceConfig = TraceConfig()
) -> TraceResult:
    """Closed-form trace via witnesses i, k with
    f_UA = (id - f_UU) i  and  f_BU = k (id - f_UU)."""
    return _trace_one(f, loop_label, cfg, _KI)


def ex(f: PartitionedMap, loop_label: str, cfg: TraceConfig = TraceConfig()) -> TraceResult:
    """Total trace on contractions: closed form as the canonical value,
    series as the cross-check.  Non-contractions get whichever route
    succeeds."""
    return _trace_one(f, loop_label, cfg, _BOTH)


# ---------------------------------------------------------------------------
# Structure theorems


def halmos_dilation(f: np.ndarray) -> np.ndarray:
    """Embed a contraction f: A -> B into the unitary
    [[-f^H, D_f], [D_{f^H}, f]] on B (+) A.

    Both defects come from one full SVD f = U S V^H:
    D_f = sqrt(id - f^H f) = V sqrt(1 - S^2) V^H and
    D_{f^H} = U sqrt(1 - S^2) U^H, with S zero-padded to the column and row
    count, so f D_f = D_{f^H} f holds by construction."""
    f = np.asarray(f, dtype=np.complex128)
    u, s, vh = np.linalg.svd(f)
    if (s[0] if s.size else 0.0) > 1.0 + DEFAULT_TOL:
        raise LinalgError("halmos_dilation requires a contraction")

    def defect(w: np.ndarray) -> np.ndarray:
        d = np.sqrt(np.clip(1.0 - np.pad(s, (0, w.shape[1] - s.size)) ** 2, 0.0, None))
        return (w * d) @ adjoint(w)

    top = np.hstack([-adjoint(f), defect(adjoint(vh))])
    bot = np.hstack([defect(u), f])
    return np.vstack([top, bot])


def cnu_decompose(f: np.ndarray) -> CnuDecomposition:
    """Split a square contraction into its unitary part and its
    completely nonunitary part.

    The unitary subspace is H_u = ker(id - (f^n)^H f^n) with n = dim f.
    H_u and its complement H_c reduce f, so ||f^n x||^2 = ||x_u||^2 +
    ||f^n x_c||^2.  On H_c the norm-preserving subspaces
    K_m = {y : ||f^m y|| = ||y||} shrink as m grows, and strictly until
    they reach 0: if K_{m+1} = K_m, then f maps K_m isometrically into
    itself, which makes it a unitary piece that reduces f, and H_c has
    none.  So n powers suffice.  One full SVD of f^n gives H_u as the
    right singular vectors with 1 - s^2 <= CNU_TOL; the singular values come
    in descending order, so H_u leads and H_c spans the rest.
    """
    f = np.asarray(f, dtype=np.complex128)
    n = f.shape[0]
    if f.shape[0] != f.shape[1]:
        raise LinalgError("cnu_decompose requires a square matrix")
    if operator_norm(f) > 1.0 + CNU_TOL:
        raise LinalgError("cnu_decompose requires a contraction")

    _, s, vh = np.linalg.svd(np.linalg.matrix_power(f, n))
    k = int(np.count_nonzero(1.0 - s**2 <= CNU_TOL))
    # With no unitary part the standard basis is kept, so f1 is f exactly.
    basis_change = adjoint(vh) if k else np.eye(n, dtype=np.complex128)

    conj = adjoint(basis_change) @ f @ basis_change
    f0 = conj[:k, :k]
    f1 = conj[k:, k:]
    off = max(operator_norm(conj[:k, k:]), operator_norm(conj[k:, :k])) if 0 < k < n else 0.0
    if off > CNU_CHECK_TOL:
        raise LinalgError(
            f"block off-diagonal mass {off:.3e} after basis change; "
            "numerical failure in the unitary/CNU split"
        )
    if k and classify(f0, CNU_CHECK_TOL) != "unitary":
        raise LinalgError("recovered unitary part failed the unitarity check")
    if f1.shape[0]:
        tail = operator_norm(np.linalg.matrix_power(f1, f1.shape[0]))
        if tail >= 1.0:
            raise LinalgError(
                f"completely nonunitary part has ||f1^dim|| = {tail:.6f} >= 1"
            )
    return CnuDecomposition(k, basis_change, f0, f1)


# ---------------------------------------------------------------------------
# Axiom checking


@dataclass
class AxiomCheck:
    name: str
    cases: int = 0
    failures: int = 0
    worst_deviation: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class AxiomReport:
    checks: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json(self) -> dict:
        return {
            name: {
                "cases": c.cases,
                "failures": c.failures,
                "worst_deviation": c.worst_deviation,
                "passed": c.passed,
                "notes": c.notes[:10],
            }
            for name, c in self.checks.items()
        }


_AXIOMS = (
    "naturality_input",
    "naturality_output",
    "dinaturality",
    "superposing",
    "vanishing_i",
    "vanishing_ii",
    "yanking",
)


def _draw_case(case: int, rng: np.random.Generator, draws: list):
    """Draw one case in the checker's fixed order, its contractions going
    on ``draws`` to be rescaled before its traces are built.  Returns its
    context, loop size u, a function building its traces {name: (matrix,
    loop size)} and a function from all traced values (with vanishing II's
    nested one) to each law's lhs - rhs."""
    a, b, u = (int(rng.integers(1, AXIOM_MAX_DIM + 1)) for _ in range(3))
    ctx = f"case {case} (a={a}, b={b}, u={u})"
    f = draw_contraction(b + u, a + u, rng, draws)
    g = draw_contraction(a, a, rng, draws)
    h = draw_contraction(b, b, rng, draws)
    a2, b2 = (int(rng.integers(1, AXIOM_MAX_DIM + 1)) for _ in range(2))
    g2 = draw_contraction(a, a2, rng, draws)
    h2 = draw_contraction(b2, b, rng, draws)
    u2 = int(rng.integers(1, AXIOM_MAX_DIM + 1))
    fd = draw_contraction(b + u2, a + u, rng, draws)
    gd = draw_contraction(u, u2, rng, draws)
    c, d = (int(rng.integers(1, AXIOM_MAX_DIM + 1)) for _ in range(2))
    gs = draw_contraction(d, c, rng, draws)
    fv = draw_contraction(b, a, rng, draws)
    v = int(rng.integers(1, AXIOM_MAX_DIM + 1))
    fw = draw_contraction(b + u + v, a + u + v, rng, draws)

    def traces() -> dict:
        return {
            # ex(f) is shared by both naturality laws and superposing.
            "naturality_input (f)": (f, u),
            # Naturality: h ex(f) g = ex((h + id) f (g + id)); output side with non-square g, h.
            "naturality_input": (direct_sum(h, np.eye(u)) @ f @ direct_sum(g, np.eye(u)), u),
            "naturality_output": (direct_sum(h2, np.eye(u)) @ f @ direct_sum(g2, np.eye(u)), u),
            # Dinaturality: ex^U((id + g) f) = ex^{U'}(f (id + g)).
            "dinaturality (left)": (direct_sum(np.eye(b), gd) @ fd, u),
            "dinaturality (right)": (fd @ direct_sum(np.eye(a), gd), u2),
            # Superposing: g (+) ex(f) = ex(g (+) f).
            "superposing": (direct_sum(gs, f), u),
            # Vanishing I: tracing a zero-dimensional loop is the identity op.
            "vanishing_i": (fv, 0),
            # Vanishing II: ex^U(ex^V(f)) = ex^{U+V}(f); the outer ex^U runs on the inner value.
            "vanishing_ii (inner)": (fw, v),
            "vanishing_ii (flat)": (fw, u + v),
            # Yanking: ex^U(swap) = id.
            "yanking": (swap_matrix(u, u), u),
        }

    def differences(t: dict) -> dict:
        ex_f = t[ctx, "naturality_input (f)"]
        return {
            "naturality_input": h @ ex_f @ g - t[ctx, "naturality_input"],
            "naturality_output": h2 @ ex_f @ g2 - t[ctx, "naturality_output"],
            "dinaturality": t[ctx, "dinaturality (left)"] - t[ctx, "dinaturality (right)"],
            "superposing": direct_sum(gs, ex_f) - t[ctx, "superposing"],
            "vanishing_i": t[ctx, "vanishing_i"] - fv,
            "vanishing_ii": t[ctx, "vanishing_ii"] - t[ctx, "vanishing_ii (flat)"],
            "yanking": t[ctx, "yanking"] - np.eye(u),
        }

    return ctx, u, traces, differences


def _trace_grouped(jobs: dict, cfg: TraceConfig) -> dict:
    """Trace every (matrix, loop size) in ``jobs``, keyed (ctx, name), by one
    _trace_core call per loop size on the union of its matrices in trace
    order, zero-padded to their largest B and A just before the loop rows
    and columns.  Padding moves no norm, term or certificate in exact
    arithmetic, and the series and checks only compare numbers with
    tolerances; each closed-form value is taken on its own shape.  If any
    call raises, the jobs are traced alone in trace order, and the first to
    fail raises as it does alone, its ctx and name leading the message."""
    values = {}
    try:
        for k in dict.fromkeys(k for _, k in jobs.values()):
            keys = [key for key, (_, j) in jobs.items() if j == k]
            mats = [jobs[key][0] for key in keys]
            parts = [(i, m.shape[0] - k, m.shape[1] - k) for i, m in enumerate(mats)]
            b, a = (max(part[j] for part in parts) for j in (1, 2))
            union = np.zeros((len(mats), b + k, a + k), dtype=np.complex128)
            for m, (i, mb, ma) in zip(mats, parts):
                blocks = _blocks(m, k)
                union[i, :mb, :ma], union[i, :mb, a:], union[i, b:, :ma], union[i, b:, a:] = blocks
            out = _trace_core(union, k, cfg, parts=parts)[0]
            values.update((key, out[i, :mb, :ma]) for key, (i, mb, ma) in zip(keys, parts))
    except ArithmeticError:
        for key, (m, k) in jobs.items():
            try:
                values[key] = _trace_core(m[None], k, cfg)[0][0]
            except ArithmeticError as e:
                e.args = (f"{', '.join(key)}: {e}",)
                raise
    return values


def check_trace_axioms(seed: int, n_cases: int, cfg: TraceConfig = TraceConfig()) -> AxiomReport:
    """Sample random contraction instances per axiom and assert the
    Kleene-equality form at cfg.compare_tol, AXIOM_BLOCK cases at a time
    so that memory stays bounded: a block's contractions are drawn, then
    rescaled by one SVD per shape; each of its two trace passes makes one
    _trace_grouped call, and its law deviations take one SVD per shape.
    Each case draws from its own child of SeedSequence(seed), so no byte
    depends on the block size.  Law failures go into the report; the first
    failing trace of the first failing block raises as it does alone."""
    seed, n_cases = as_int(seed, "seed", 0), as_int(n_cases, "n_cases", 0)
    checks = {name: AxiomCheck(name) for name in _AXIOMS}
    seeds = np.random.SeedSequence(seed)
    for start in range(0, n_cases, AXIOM_BLOCK):
        draws, streams = [], seeds.spawn(min(AXIOM_BLOCK, n_cases - start))
        cases = [_draw_case(start + i, np.random.default_rng(ss), draws)
                 for i, ss in enumerate(streams)]
        rescale_draws(draws)
        jobs = {(ctx, name): job for ctx, _, traces, _ in cases for name, job in traces().items()}
        inner = {key: job for key, job in jobs.items() if key[1] == "vanishing_ii (inner)"}
        rest = {key: job for key, job in jobs.items() if key not in inner}
        # Inner traces first, so each nested one joins the batch of its loop size.
        t = _trace_grouped(inner, cfg)
        nested = {(c, "vanishing_ii"): (t[c, "vanishing_ii (inner)"], u) for c, u, _, _ in cases}
        t.update(_trace_grouped({**rest, **nested}, cfg))
        laws = [(ctx, name, diff) for ctx, _, _, differences in cases
                for name, diff in differences(t).items()]
        for (ctx, name, _), deviation in zip(laws, grouped_norms([diff for _, _, diff in laws])):
            check = checks[name]
            check.cases += 1
            check.worst_deviation = max(check.worst_deviation, deviation)
            if deviation > cfg.compare_tol:
                check.failures += 1
                check.notes.append(f"{ctx}: deviation {deviation:.3e}")
    return AxiomReport(checks)
