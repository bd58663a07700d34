"""Newton certificate solver with continuation in the problem size.

The residual map eps(d) has N+1 equations in N-1 unknowns, but its zero is
exact, so no least squares is needed: Newton on the N-1 equations eps_1 ..
eps_{N-1} lands on the same d, and the gate judges all N+1 at every iterate.
eps is exactly quadratic, so the damped Newton step converges quadratically
near the zero. The step is exact and never forms the Jacobian: the recursion
is linearized in three local unknowns per index (prefix and suffix sums, and
the tangent of the backward scan), which with the constraints that define
them make one square banded system, built in LAPACK's band layout and
factored in place, so a step takes O(N) time and memory. Every step is one
solve with a factorization: the Newton step with the one just made, and
chord steps with it at later residuals, kept while each one shrinks
||eps||_2 at least twentyfold. A cold solve starts from the
closed form d_i = sqrt(N) / (2 (N - i)^{3/2}) of closed_form_start, from
which it takes one factored step and four or five chord steps at every size
tested. A sweep solves its first size that way and warm-starts every later
one from up to four recent certificates: each one's ratio to the closed
form, aligned at the last index (where the certificate's boundary layer
depends only on the distance from the end), is extrapolated to the new size
by a cubic in 1/N, which leaves most sizes one Newton step from convergence;
a size whose warm start fails is solved again from the closed form. It
yields each report; writing files is left to its caller.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np

from .rates import RateParams, solve_rate_params
from .recursion import DELTA_TOL, FullCertificate, derive_full

__all__ = [
    "NonConvergence",
    "SolveReport",
    "gauss_newton",
    "closed_form_start",
    "extrapolate_init",
    "sweep",
]

# the convergence gate on max_i |eps_i| (with delta <= DELTA_TOL, verify's),
# and the Gauss-Newton step budget: factored and chord steps together
RESIDUAL_TOL = 1e-13
MAX_ITER = 50
# a chord step is accepted if it shrinks ||eps||_2 to at most this fraction:
# cold and warm starts' chord steps reach 1e-2 or less, while slower ones
# (about 0.3 from a far start) converge faster by refactoring
CHORD_CONTRACTION = 0.05
# certificates a warm start extrapolates from: a cubic in 1/N
CONTINUATION_SOURCES = 4


class NonConvergence(RuntimeError):
    """Gauss-Newton failed: a failed step, stagnation, the step budget, or a
    certificate that is not strictly positive. The message names N."""


@dataclass
class SolveReport:
    """Record of one converged Gauss-Newton run: its strictly positive
    certificate, the band factorizations (`iterations`) and the chord steps
    that reused one. gauss_newton raises NonConvergence rather than return
    any other outcome."""

    cert: FullCertificate
    iterations: int
    chord_steps: int


def _linearized_equations(cert: FullCertificate) -> dict:
    """Equations of the step at cert.d, linear in the local unknowns S, T, Z.

    With the step s, S_i = sum_{l<=i} s_l (i <= N-2, so s_i = S_i - S_{i-1}),
    T_j = sum_{l>=j} dc_l (dc the tangent of c_from_d) and Z the tangent of the
    recursion's scan variable z, every tangent of the recursion reaches only
    indices i-2 .. i+3 (kappa = (2 - alpha) / alpha, rho = 2 alpha - 3):

        dc_i   = 2r ((alpha - 1) S_i + S_{i-1}),  dc_{N-1} = 2r S_{N-2},  dc_N = 0,
        dtl_i  = (S_i - S_{i-1}) suffc_{i+2} + d_i T_{i+2},
        du_i   = kappa (Z_{i+1} + dcsq_i - dtail_i)
                 + (2 dcross_i - (2 + alpha) dlin_i) / alpha,   i < N-1,
        du_{N-1} = -c_N S_{N-2},
        deps_i = du_i - du_{i-1} + dtl_i - od_{i-1} dc_i - c_i S_{i-2},   1 <= i <= N-1,

    in the notation of the recursion (u_i = a_i - b_i, tl_i = d_i
    suffc_{i+2}; `recursion.derive_full` has the step terms csq, cross, lin and
    tail, whose tangents are products of dc with the current c and od).
    The auxiliaries T and Z are tied to S by the constraints

        T_j - T_{j+1} - dc_j = 0,  Z_i - rho Z_{i+1} - dh_i = 0,

    where dh is the tangent of the scan's input h (dh_{N-1} = c_N S_{N-2}).

    Expanded, each equation is a sum of coefficient * unknown terms, and each
    term is one diagonal of the band. The coefficients below are written out
    in c_i, c_{i+1}, od_i, od_{i-1}, suffc_{i+2}, suffc_{i+3}, d_i and d_{i+1};
    the terms of du_{i-1} in deps_i are those of du shifted by one index, and
    its S_{i-2} term cancels -c_i S_{i-2}. Unknowns outside their index range
    are zero (the assembly clips each diagonal), which makes the index masks
    of the recursion implicit: du's S_{i+1} term, say, only meets i <= N-3.
    Returns the forms by equation: "eps" holds deps_1 .. deps_{N-1}, "T" and
    "Z" the constraints that define T and Z; each form maps (unknown, offset)
    to the coefficient of that unknown at index i + offset in equation i, an
    array over i = 0..N (of which "eps" uses 1..N-1) or a scalar.
    """
    N, alpha, r = cert.params.N, cert.params.alpha, cert.params.r
    two_r = 2.0 * r
    rho = 2.0 * alpha - 3.0
    kappa = (2.0 - alpha) / alpha
    c, d = cert.c, cert.d
    c_next = np.zeros(N + 1)
    c_next[:N] = c[1:]
    d_here = np.zeros(N + 1)
    d_here[: N - 1] = d
    d_next = d_here[1:]
    od = np.ones(N + 1)  # od_i = 1 + sum_{j<i} d_j
    od[1:] += np.cumsum(d_here[:-1])
    od_prev = np.ones(N + 1)
    od_prev[1:] = od[:N]
    suffc = np.zeros(N + 4)  # suffc_j = sum_{l>=j} c_l
    np.cumsum(c[::-1], out=suffc[N::-1])
    suffc2, suffc3 = suffc[2 : N + 3], suffc[3 : N + 4]

    # du_i, i <= N-2, by unknown; du_{N-1} = -c_N S_{N-2} is the S_{i-1}
    # term at i = N-1
    lin = two_r * (2.0 + alpha) / alpha * od
    du_s1 = (alpha - 1.0) * (2.0 * kappa * c_next + 2.0 / alpha * c - lin) - kappa * suffc3
    du_s0 = (kappa * (2.0 * c_next + suffc3)
             + 2.0 / alpha * ((alpha - 1.0) * c_next + c) - lin)
    # deps_i: du_i - du_{i-1} + dtl_i - od_{i-1} dc_i
    eps_s0 = du_s0 + suffc2 - two_r * (alpha - 1.0) * od_prev
    eps_s0[1:] -= du_s1[:-1]
    eps_sm1 = -(c_next + suffc2 + two_r * od_prev)
    eps_sm1[1:] -= du_s0[:-1]
    # dh_i: rho (dcsq_i - dtail_i) - 2 dcross_i + 3 dlin_i, and dh_{N-1}
    h_s1 = (alpha - 1.0) * (2.0 * rho * c_next - 2.0 * c + 3.0 * two_r * od) - rho * suffc3
    h_s0 = (rho * (2.0 * c_next + suffc3)
            - 2.0 * ((alpha - 1.0) * c_next + c) + 3.0 * two_r * od)
    return {
        "eps": {("Z", 1): kappa, ("Z", 0): -kappa, ("S", 1): du_s1, ("S", 0): eps_s0,
                ("S", -1): eps_sm1, ("T", 3): -kappa * d_next,
                ("T", 2): (1.0 + kappa) * d_here},
        "T": {("T", 0): 1.0, ("T", 1): -1.0, ("S", 0): two_r * (1.0 - alpha),
              ("S", -1): -two_r},
        "Z": {("Z", 0): 1.0, ("Z", 1): -rho, ("S", 1): -h_s1, ("S", 0): -h_s0,
              ("S", -1): -c_next, ("T", 3): rho * d_next},
    }


# The slots of the square system: three per index j = -2 .. N-1, and unknown
# i of a kind in position _POS[kind] + 3 i, so S_i sits at index i + 1, Z_i
# at index i and T_j at index j - 2. Each equation shares the slot of one
# unknown, named in _ROW: linearized eps_i (i = 1 .. N-1) that of S_{i-1},
# and each constraint that of its own T_j or Z_i. Every equation then
# reaches _KL places back and _KU ahead. The seven slots at the two ends
# that hold no unknown are identity rows.
_POS = {"S": 9, "Z": 7, "T": 2}
_ROW = {"eps": ("S", -1), "T": ("T", 0), "Z": ("Z", 0)}
_KL, _KU = 1, 7


@cache
def _lapack():
    """scipy's compiled LAPACK wrappers, `scipy.linalg._flapack`, the module
    `scipy.linalg.lapack` re-exports, loaded from its file on first use.

    Importing `scipy.linalg` would run the whole package (about 0.25 s and
    27 MB, most of it in array-API and numpy submodules the step never uses);
    this runs only `import scipy`, for its platform set-up, and the extension
    itself, so its `dgbtrf` and `dgbtrs` are the same binaries either way.
    """
    import scipy

    where = os.path.join(scipy.__path__[0], "linalg")
    finder = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader,
                importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled module "
                          f"_flapack in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _factor(cert: FullCertificate):
    """The banded LU of the square system eps_1 .. eps_{N-1} at cert.d,
    J' s = -eps', J' = d (eps_1 .. eps_{N-1}) / d d: (lub, piv) for _solve,
    or None if the factorization meets an exactly zero pivot (dgbtrf's
    info > 0).

    eps(d) = 0 has N+1 equations in N-1 unknowns, but its zero is exact, so
    Newton on the N-1 equations without eps_0 and eps_N lands on the same d;
    gauss_newton's gate judges all N+1. J' is never formed. The linearization
    is written in the local unknowns x = (S, T, Z) of _linearized_equations
    (S the prefix sums of s): its N-1 equations and the 2N constraints that
    tie T and Z to S are 3N-1 equations in the 3N-1 unknowns, in the slots of
    _POS, so each (equation, unknown, offset) term is one constant diagonal
    of the band, written as one strided slice, clipped to the indices where
    both the equation and the unknown exist. One banded LU with partial
    pivoting (dgbtrf; it swaps rows) factors the system in O(N) time and
    memory. The band is allocated in LAPACK's own layout (2 _KL + _KU + 1
    rows in Fortran order, the diagonal at row _KL + _KU), and dgbtrf
    factors it in place, with no copy. An invalid argument (info < 0) raises
    ValueError.
    """
    N = cert.params.N
    size = {"S": N - 1, "T": N, "Z": N}
    diag = _KL + _KU
    # LAPACK's own band layout: entry (i, j) at ab[_KL + _KU + i - j, j], with
    # the top _KL rows free for the fill-in of the factorization, in Fortran
    # order, so that gbtrf factors it in place without a copy
    ab = np.zeros((2 * _KL + _KU + 1, 3 * (N + 2)), order="F")
    # ones on the diagonal of the slots that hold no unknown
    ab[diag] = 1.0
    for kind, first in _POS.items():
        ab[diag, first : first + 3 * size[kind] : 3] = 0.0
    for eq, form in _linearized_equations(cert).items():
        kind, shift = _ROW[eq]
        for (name, off), coef in form.items():
            # the indices i at which the slot of equation i (that of unknown
            # i + shift) and unknown i + off both exist
            lo, hi = max(-shift, -off), min(size[kind] - shift, size[name] - off)
            if lo >= hi:
                continue
            row, col = _POS[kind] + 3 * (lo + shift), _POS[name] + 3 * (lo + off)
            if np.ndim(coef):
                coef = coef[lo:hi]
            ab[diag + row - col, col : col + 3 * (hi - lo) : 3] = coef
    # the package's one scipy use, loaded on the first factorization, so that
    # a process that only verifies never loads scipy
    lub, piv, info = _lapack().dgbtrf(ab, _KL, _KU, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"dgbtrf: argument {-info} is invalid")
    return (lub, piv) if info == 0 else None


def _solve(lu, eps: np.ndarray):
    """The step s for the residual eps through the factorization `lu` of
    _factor, solved by dgbtrs: the Newton step at the iterate that was
    factored, a chord step at a later one. s is the first difference of the
    S slots of the solution. None if dgbtrs reports an error (info != 0) or
    s is not finite."""
    lub, piv = lu
    N = len(eps) - 1
    S = slice(_POS["S"], _POS["S"] + 3 * (N - 1), 3)
    rhs = np.zeros(3 * (N + 2))
    rhs[S] = -eps[1:N]
    sol, info = _lapack().dgbtrs(lub, _KL, _KU, rhs, piv, overwrite_b=1)
    if info != 0:
        return None
    s = np.diff(sol[S], prepend=0.0)
    return s if np.isfinite(s).all() else None


def gauss_newton(params: RateParams, d0) -> SolveReport:
    """Damped Newton on the residual system from the start d0, with chord
    steps that reuse each factorization.

    Each factored iteration factors the band of the N-1 equations
    eps_1 .. eps_{N-1} with _factor, takes the Newton step s that _solve
    gets from it, and accepts the largest damping t in
    {1, 1/2, ..., 2**-20} that strictly decreases ||eps||_2 over all N+1
    equations. The LU is then kept, and the next iterations are chord steps
    (Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM
    1995, sec. 5.4): _solve with the kept LU at the new eps, whose full step
    is accepted while it shrinks ||eps||_2 to at most CHORD_CONTRACTION
    times its norm. eps is exactly quadratic in d, so near a zero these
    steps converge fast, and a cold solve factors once; far from one they
    contract too slowly to pass, and a far start goes on with factored
    steps. The first chord step that falls
    short is discarded, the LU is released, and a new factored step is taken
    from the same iterate. The LU is released before the next band is built
    and when the solve ends. Stops as soon as max_i |eps_i| <= RESIDUAL_TOL
    and delta <= DELTA_TOL (verify's gate), over all N+1 equations: eps_0
    and eps_N, which the step does not solve, are checked at every iterate,
    so parameters off the balancing pair, at which only the square system
    has a zero, never pass. Every trial is derived once, with derive_full,
    and the accepted trial's FullCertificate is kept: its eps opens the next
    iteration, and the last one is the report's certificate. Positivity of
    the derived (a, b, c, d) is checked only at termination.

    Returns
    -------
    SolveReport of the converged, positive certificate; `iterations` counts
    the factored steps and `chord_steps` the accepted chord steps, at most
    MAX_ITER together.

    Raises
    ------
    NonConvergence
        if a factored step fails (singular system or non-finite step), the
        line search stagnates, the step budget is exhausted, or the terminal
        certificate is not strictly positive. A sign-violating result is
        never reported as converged.
    """
    cert = derive_full(params, d0)
    factored = chords = 0
    lu = None
    for it in range(MAX_ITER + 1):
        sup = cert.residual_sup
        norm = float(np.linalg.norm(cert.eps))
        if sup <= RESIDUAL_TOL and cert.delta <= DELTA_TOL:
            if not cert.positive:
                raise NonConvergence(f"residual converged at N={params.N} but certificate "
                                     "data is not strictly positive")
            return SolveReport(cert=cert, iterations=factored, chord_steps=chords)
        if it == MAX_ITER:
            break
        if lu is not None:
            s = _solve(lu, cert.eps)
            trial = None if s is None else derive_full(params, cert.d + s)
            # a NaN norm fails the test too
            if (trial is not None
                    and np.linalg.norm(trial.eps) <= CHORD_CONTRACTION * norm):
                cert = trial
                chords += 1
                continue
            # released before the next band is built
            trial = lu = None
        lu = _factor(cert)
        factored += 1
        s = None if lu is None else _solve(lu, cert.eps)
        if s is None:
            raise NonConvergence(f"Gauss-Newton step failed at N={params.N} (singular system "
                                 f"or non-finite step) with residual sup {sup:.3e}")
        t = 1.0
        while t >= 2.0**-20:
            trial = derive_full(params, cert.d + t * s)
            if np.linalg.norm(trial.eps) < norm:
                cert = trial
                break
            t *= 0.5
        else:
            raise NonConvergence(
                f"line search stagnated at N={params.N} with residual sup {sup:.3e}")
    raise NonConvergence(f"no convergence at N={params.N} within {MAX_ITER} steps "
                         f"(residual sup {sup:.3e})")


def closed_form_start(N: int) -> np.ndarray:
    """The cold start d_i = sqrt(N) / (2 (N - i)^{3/2}), i = 0..N-2: the
    leading-order shape of the certificate, from which gauss_newton needs
    one factored step and four or five chord steps at every N tested, 3..300
    and up to 327680."""
    if N < 3:
        raise ValueError(f"the closed-form start needs N >= 3, got N={N}")
    return np.sqrt(N) / (2.0 * np.arange(N, 1, -1, dtype=float) ** 1.5)


def extrapolate_init(sources, target: int) -> np.ndarray:
    """Warm start for size `target` from up to CONTINUATION_SOURCES solved
    (N, d) pairs, continued as ratios to the closed form.

    Each source's ratio d / closed_form_start(n) is aligned at the last
    index: entry i of size n sits at k = n - i, the distance from the end,
    where the certificate's boundary layer depends on k alone. New leading
    entries take the source's first ratio, and entries past the target's
    start are dropped. The aligned ratios are extrapolated to the target by
    Lagrange interpolation in x = 1/N, multiplied by
    closed_form_start(target), and clamped below at 1e-12 to keep the start
    positive. Source sizes must differ; closed_form_start rejects one below 3.
    """
    if not 1 <= len(sources) <= CONTINUATION_SOURCES:
        raise ValueError(f"need 1 to {CONTINUATION_SOURCES} continuation sources, "
                         f"got {len(sources)}")
    # Python ints throughout: the products in the weights exceed 64 bits
    target = int(target)
    sources = sorted(((int(n), d) for n, d in sources), key=lambda pair: pair[0])
    sizes = [n for n, _ in sources]
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"continuation source sizes must differ, got {sizes}")
    ratio = np.zeros(target - 1)
    for n, d in sources:
        # the Lagrange weight of node 1/n at 1/target, the product over the
        # other nodes j of (1/target - 1/j) / (1/n - 1/j); in integers, so the
        # one division rounds it once
        num = den = 1
        for j in sizes:
            if j != n:
                num *= n * (j - target)
                den *= target * (j - n)
        source = d / closed_form_start(n)
        aligned = np.full(target - 1, source[0])
        tail = min(n, target) - 1
        aligned[-tail:] = source[-tail:]
        ratio += num / den * aligned
    return np.maximum(ratio * closed_form_start(target), 1e-12)


def sweep(sizes) -> Iterator[SolveReport]:
    """Continuation sweep over `sizes`, a strictly increasing sequence of
    problem sizes N >= 3; yields one SolveReport per size, in order.

    The first size is solved from closed_form_start and every later size by
    gauss_newton from extrapolate_init of the CONTINUATION_SOURCES most
    recent certificates (fewer at the start). If that warm-started solve
    raises NonConvergence, the size is solved once more from
    closed_form_start, and the continuation goes on from its certificate.
    Only their (N, d) pairs are kept, so a report the caller drops is freed.
    A caller that writes each report before asking for the next keeps its
    files through an aborted sweep.

    Raises ValueError at the call, before any solve, naming the offending
    size, for a schedule that is empty, does not increase strictly from
    N >= 3, or has a size with no float64 rate parameters (from
    solve_rate_params, which solves each size's pair once). Iterating raises
    NonConvergence, whose message names N, if a size fails from the closed
    form too; the continuation chain is broken at that point and the sweep
    stops.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("a sweep needs at least one size")
    for prev, n in zip([2, *sizes], sizes):  # the first size must exceed 2
        if n <= prev:
            raise ValueError(f"sizes must increase strictly from N >= 3, got N={n}")
    schedule = [solve_rate_params(n) for n in sizes]

    def reports():
        recent: deque = deque(maxlen=CONTINUATION_SOURCES)
        for params in schedule:
            n = params.N
            report = None
            if recent:
                try:
                    report = gauss_newton(params, extrapolate_init(recent, n))
                except NonConvergence:
                    pass
            # the retry runs outside the handler, so that the failed solve's
            # frame, which the exception's traceback holds, is freed first
            if report is None:
                report = gauss_newton(params, closed_form_start(n))
            recent.append((n, report.cert.d))
            yield report

    return reports()
