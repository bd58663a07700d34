"""Gauss-Newton certificate solver with continuation in the problem size.

The residual map eps(d) is overdetermined (N+1 equations, N-1 unknowns) and
exactly quadratic, so damped Gauss-Newton with least-squares steps converges
quadratically near a zero-residual solution. The step is exact and never forms
the Jacobian: the recursion is linearized in a few local unknowns per index
(prefix and suffix sums, and the tangent of the backward scan), and the
constrained least-squares problem is one banded augmented system, built in
LAPACK's band layout and factored in place, so a step takes O(N) time and
memory. A cold solve starts from the closed form
d_i = sqrt(N) / (2 (N - i)^{3/2}) of closed_form_start, from which
Gauss-Newton takes three steps at every size tested. A sweep solves its first
size that way and warm-starts every later one from up to four recent
certificates: each one's ratio to the closed form, aligned at the last index
(where the certificate's boundary layer depends only on the distance from
the end), is extrapolated to the new size by a cubic in 1/N, which leaves
most sizes one Gauss-Newton step from convergence. It yields each report;
writing files is left to its caller.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .rates import RateParams, solve_rate_params
from .recursion import FullCertificate, c_from_d, derive_full

__all__ = [
    "NonConvergence",
    "SolveReport",
    "least_squares_step",
    "gauss_newton",
    "closed_form_start",
    "extrapolate_init",
    "sweep",
]

# the convergence gate on max_i |eps_i|, and the Gauss-Newton step budget
RESIDUAL_TOL = 1e-13
MAX_ITER = 50
# certificates a warm start extrapolates from: a cubic in 1/N
CONTINUATION_SOURCES = 4


class NonConvergence(RuntimeError):
    """Gauss-Newton failed: a failed step, stagnation, iteration budget, or a
    sign-violating terminal certificate. Carries the problem size N."""

    def __init__(self, message: str, N: int | None = None):
        super().__init__(message)
        self.N = N


@dataclass
class SolveReport:
    """Record of one converged Gauss-Newton run and its strictly positive
    certificate; gauss_newton raises NonConvergence rather than return any
    other outcome. `params`, `d`, `residual_sup` and `delta` are read from
    `cert`."""

    cert: FullCertificate
    iterations: int
    res_norms: list[float] = field(default_factory=list)

    @property
    def params(self) -> RateParams:
        return self.cert.params

    @property
    def d(self) -> np.ndarray:
        return self.cert.d

    @property
    def residual_sup(self) -> float:
        return float(np.max(np.abs(self.cert.eps)))

    @property
    def delta(self) -> float:
        return self.cert.delta


def _shifted(v: np.ndarray, k: int) -> np.ndarray:
    """v[i + k] at every i, zero where i + k leaves the array."""
    out = np.zeros_like(v)
    if k >= 0:
        out[: len(v) - k] = v[k:]
    else:
        out[-k:] = v[:k]
    return out


# A linear form is one linearized equation per index i, as a dict that maps
# (unknown, offset) to the coefficient array of that unknown at index
# i + offset. Unknowns outside their index range are zero and are dropped
# when the system is assembled.

def _combine(*terms) -> dict:
    """The form sum(coef * form) over (coef, form) pairs; coef is a scalar or
    an array over the equation index."""
    out: dict = {}
    for coef, form in terms:
        for key, val in form.items():
            out[key] = out[key] + coef * val if key in out else coef * val
    return out


def _shift(form: dict, k: int) -> dict:
    """The form of equation i + k, written at equation i."""
    return {(name, off + k): _shifted(val, k) for (name, off), val in form.items()}


def _linearized_equations(params: RateParams, d: np.ndarray) -> dict:
    """Equations of the step, linear in the local unknowns S, T and Z.

    With the step s, S_i = sum_{l<=i} s_l (i <= N-2, so s_i = S_i - S_{i-1}),
    T_j = sum_{l>=j} dc_l (dc the tangent of c_from_d) and Z the tangent of the
    recursion's scan variable z, every tangent of the recursion reaches only
    indices i-2 .. i+3 (kappa = (2 - alpha) / alpha, rho = 2 alpha - 3):

        dc_i   = 2r ((alpha - 1) S_i + S_{i-1}),  dc_{N-1} = 2r S_{N-2},  dc_N = 0,
        dtl_i  = (S_i - S_{i-1}) suffc_{i+2} + d_i T_{i+2},
        du_i   = kappa (Z_{i+1} + dcsq_i - dtail_i)
                 + (2 dcross_i - (2 + alpha) dlin_i) / alpha,   i < N-1,
        du_{N-1} = -c_N S_{N-2},
        deps_i = du_i - du_{i-1} + dtl_i - od_{i-1} dc_i - c_i S_{i-2},
        deps_N = Z_0 - dc_0 - dtl_0 + c_0 dc_0 / r,

    in the notation of the recursion (u_i = a_i - b_i, tl_i = d_i
    suffc_{i+2}; `recursion.derive_full` has the step terms csq, cross, lin and
    tail, whose tangents are products of dc with the current c and od).
    The auxiliaries T and Z are tied to S by the constraints

        T_j - T_{j+1} - dc_j = 0,  Z_i - rho Z_{i+1} - dh_i = 0,

    where dh is the tangent of the scan's input h (dh_{N-1} = c_N S_{N-2}).
    Returns the forms by equation: "w" holds deps_0 .. deps_{N-1}, "wN"
    deps_N (its index-0 entry), and "yT", "yZ" the two constraints.
    """
    N, alpha, r = params.N, params.alpha, params.r
    two_r = 2.0 * r
    rho = 2.0 * alpha - 3.0
    kappa = (2.0 - alpha) / alpha
    c = c_from_d(params, d)
    index = np.arange(N + 1)
    one = np.ones(N + 1)
    inner = (index <= N - 2).astype(float)  # the steps of the (a, b) recursion
    last = (index == N - 1).astype(float)
    dpad = np.zeros(N + 1)
    dpad[: N - 1] = d
    od = np.ones(N + 1)  # od_i = 1 + sum_{j<i} d_j
    od[1:] += np.cumsum(dpad[:-1])
    suffc = np.zeros(N + 3)
    suffc[: N + 1] = np.cumsum(c[::-1])[::-1]
    c_next = _shifted(c, 1)
    od_prev = _shifted(od, -1)
    od_prev[0] = 1.0

    dc = {("S", 0): two_r * (alpha - 1.0) * inner, ("S", -1): two_r * (inner + last)}
    dc_next = _shift(dc, 1)
    dtl = {("S", 0): suffc[2:], ("S", -1): -suffc[2:], ("T", 2): dpad}
    dcross = _combine((c_next / two_r, dc), (c / two_r, dc_next))
    dlin = _combine((od, dc_next), (c_next, {("S", -1): one}))
    dsq_tail = _combine((c_next / r, dc_next), (-1.0, _shift(dtl, 1)))
    s_last = {("S", -1): c[N] * last}
    dh = _combine((rho * inner, dsq_tail), (-2.0 * inner, dcross),
                  (3.0 * inner, dlin), (1.0, s_last))
    du = _combine((kappa * inner, {("Z", 1): one}), (kappa * inner, dsq_tail),
                  (2.0 / alpha * inner, dcross),
                  (-(2.0 + alpha) / alpha * inner, dlin), (-1.0, s_last))
    return {
        "w": _combine((1.0, du), (-1.0, _shift(du, -1)), (1.0, dtl),
                      (-od_prev, dc), (-c, {("S", -2): one})),
        "wN": _combine((1.0, {("Z", 0): one}), (c / r - 1.0, dc), (-1.0, dtl)),
        "yT": _combine((1.0, {("T", 0): one, ("T", 1): -one}), (-1.0, dc)),
        "yZ": _combine((1.0, {("Z", 0): one, ("Z", 1): -rho * one}), (-1.0, dh)),
    }


# The slots of the augmented system: every index j = -1 .. N has _WIDTH of
# them, and unknown i of a kind sits at index i + at, in position
# _WIDTH (i + at + 1) + rank. w_i is the residual of linearized eps_i and y the
# multipliers of the constraints. w_i, S_i and yZ_i sit one index later, T_j
# one earlier: each equation then reaches at most 9 places to either side,
# and the w slot of index 0 is free and holds wN. The slots at the two ends
# that hold no unknown are identity rows.
_SLOTS = {"w": (1, 0), "T": (-1, 1), "Z": (0, 2), "S": (1, 3), "yT": (0, 4),
          "yZ": (1, 5), "wN": (0, 0)}
_WIDTH = 6


@cache
def _lapack():
    """scipy's compiled LAPACK wrappers, `scipy.linalg._flapack`, the module
    `scipy.linalg.lapack` re-exports, loaded from its file on first use.

    Importing `scipy.linalg` would run the whole package (about 0.25 s and
    27 MB, most of it in array-API and numpy submodules the step never uses);
    this runs only `import scipy`, for its platform set-up, and the extension
    itself, so its `dgbsv` is the same binary either way.
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


def least_squares_step(params: RateParams, d, eps: np.ndarray):
    """The Gauss-Newton step s = argmin ||J s + eps||_2 at d, with J = d eps / d d;
    returns (s, ok).

    J is never formed. The linearization is written in the local unknowns
    x = (S, T, Z) of _linearized_equations (S the prefix sums of s), as A x + eps
    with the constraints C x = 0 that tie T and Z to S, so A restricted to
    C x = 0 is J in the coordinates S. The step solves the augmented system

        [[I, -A, 0], [A^T, 0, C^T], [0, C, 0]] (w, x, y) = (eps, 0, 0)

    in the slots of _SLOTS: six per index, so each (equation, unknown,
    offset) term of the linearization is one constant diagonal of the band,
    written as two strided slices (the -A or C entries and their mirror),
    clipped to the indices where both the equation and the unknown exist.
    Every equation reaches only a few neighbours (half-bandwidth 9), so one
    banded LU solves the system in O(N) time and memory, and s is the first
    difference of S. The band is allocated in LAPACK's own layout (3 half + 1
    rows in Fortran order, the diagonal at row 2 half), and dgbsv factors it
    and solves in place, with no copy. `ok` is False when the factorization
    finds an exactly zero pivot (dgbsv's info > 0) or s is not finite; an
    invalid argument (info < 0) raises ValueError.
    """
    N = params.N
    forms = _linearized_equations(params, np.asarray(d, dtype=float))
    size = {"wN": 1, "S": N - 1}  # every other kind has N unknowns
    first = {kind: _WIDTH * (at + 1) + rank for kind, (at, rank) in _SLOTS.items()}
    half = max(abs(first[eq] - first[name] - _WIDTH * off)
               for eq, form in forms.items() for name, off in form)
    # LAPACK's own band layout: entry (i, j) at ab[2 half + i - j, j], with
    # the top `half` rows free for the fill-in of the factorization, in
    # Fortran order, so that gbsv factors it in place without a copy
    ab = np.zeros((3 * half + 1, _WIDTH * (N + 2)), order="F")
    # ones on the diagonal of w, wN and the empty slots, zeros on that of x, y
    ab[2 * half] = 1.0
    for kind in ("T", "Z", "S", "yT", "yZ"):
        ab[2 * half, first[kind] : first[kind] + _WIDTH * size.get(kind, N) : _WIDTH] = 0.0
    for eq, form in forms.items():
        for (name, off), coef in form.items():
            # the indices i at which equation i and unknown i + off both exist
            lo, hi = max(0, -off), min(size.get(eq, N), size.get(name, N) - off)
            if lo >= hi:
                continue
            row, col = first[eq] + _WIDTH * lo, first[name] + _WIDTH * (lo + off)
            coef = coef[lo:hi]
            # the entry (equation, unknown) is -A or C, its mirror A^T or C^T
            ab[2 * half + row - col, col : col + _WIDTH * len(coef) : _WIDTH] = (
                -coef if eq in ("w", "wN") else coef)
            ab[2 * half + col - row, row : row + _WIDTH * len(coef) : _WIDTH] = coef
    rhs = np.zeros(_WIDTH * (N + 2))
    rhs[first["w"] : first["w"] + _WIDTH * N : _WIDTH] = eps[:N]
    rhs[first["wN"]] = eps[N]
    # the package's one scipy use, loaded on the first step, so that a
    # process that only verifies never loads scipy
    _, _, sol, info = _lapack().dgbsv(half, half, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"dgbsv: argument {-info} is invalid")
    if info > 0:  # an exactly zero pivot
        return None, False
    s = np.diff(sol[first["S"] : first["S"] + _WIDTH * (N - 1) : _WIDTH], prepend=0.0)
    return s, bool(np.isfinite(s).all())


def gauss_newton(params: RateParams, d0) -> SolveReport:
    """Damped Gauss-Newton on the residual system from the start d0.

    Each iteration takes the banded least-squares step s of
    least_squares_step and accepts the largest damping t in
    {1, 1/2, ..., 2**-20} that strictly decreases ||eps||_2.
    Stops as soon as max_i |eps_i| <= RESIDUAL_TOL. Every trial is derived
    once, with derive_full, and the accepted trial's FullCertificate is kept:
    its eps opens the next iteration, and the last one is the report's
    certificate. Positivity of the derived (a, b, c, d) is checked only at
    termination.

    Returns
    -------
    SolveReport of the converged, positive certificate; `iterations` counts
    accepted steps, at most MAX_ITER.

    Raises
    ------
    NonConvergence
        if a step fails (singular system or non-finite step), the line search
        stagnates, the iteration budget is exhausted, or the terminal
        certificate is not strictly positive. A sign-violating result is
        never reported as converged.
    """
    d0 = np.asarray(d0, dtype=float)
    if d0.shape != (params.N - 1,):
        raise ValueError(f"d0 must have shape ({params.N - 1},), got {d0.shape}")
    cert = derive_full(params, d0)
    norms: list[float] = []
    for it in range(MAX_ITER + 1):
        sup = float(np.max(np.abs(cert.eps)))
        norms.append(float(np.linalg.norm(cert.eps)))
        if sup <= RESIDUAL_TOL:
            if not cert.positive:
                raise NonConvergence(
                    f"residual converged at N={params.N} but certificate data "
                    "is not strictly positive",
                    N=params.N,
                )
            return SolveReport(cert=cert, iterations=it, res_norms=norms)
        if it == MAX_ITER:
            break
        s, ok = least_squares_step(params, cert.d, cert.eps)
        if not ok:
            raise NonConvergence(
                f"Gauss-Newton step failed at N={params.N} (singular system or "
                f"non-finite step) with residual sup {sup:.3e}",
                N=params.N,
            )
        t = 1.0
        while t >= 2.0**-20:
            trial = derive_full(params, cert.d + t * s)
            if np.linalg.norm(trial.eps) < norms[-1]:
                cert = trial
                break
            t *= 0.5
        else:
            raise NonConvergence(
                f"line search stagnated at N={params.N} with residual sup {sup:.3e}",
                N=params.N,
            )
    raise NonConvergence(
        f"no convergence at N={params.N} within {MAX_ITER} iterations "
        f"(residual sup {sup:.3e})",
        N=params.N,
    )


def closed_form_start(N: int) -> np.ndarray:
    """The cold start d_i = sqrt(N) / (2 (N - i)^{3/2}), i = 0..N-2: the
    leading-order shape of the certificate, from which Gauss-Newton needs
    three steps at every N tested, 3..300 and up to 327680."""
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
    positive. Sources of equal N must have identical d and count once.
    """
    if not 1 <= len(sources) <= CONTINUATION_SOURCES:
        raise ValueError(f"need 1 to {CONTINUATION_SOURCES} continuation sources, "
                         f"got {len(sources)}")
    # Python ints throughout: the products in the weights exceed 64 bits
    target = int(target)
    shapes: dict[int, np.ndarray] = {}
    for n, d in sorted(sources, key=lambda pair: pair[0]):
        n = int(n)
        if n < 3:
            raise ValueError("source sizes must be >= 3")
        d = np.asarray(d, dtype=float)
        if n in shapes and not np.array_equal(shapes[n], d):
            raise ValueError("equal source sizes require identical vectors")
        shapes[n] = d
    ratio = np.zeros(target - 1)
    for n, d in shapes.items():
        # the Lagrange weight of node 1/n at 1/target, the product over the
        # other nodes j of (1/target - 1/j) / (1/n - 1/j); in integers, so the
        # one division rounds it once
        num = den = 1
        for j in shapes:
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
    problem sizes that starts at N=3; yields one SolveReport per size, in
    order.

    N=3 is solved from closed_form_start and every later size by
    gauss_newton from extrapolate_init of the CONTINUATION_SOURCES most
    recent certificates (fewer at the start).
    Only their (N, d) pairs are kept, so a report the caller drops is freed.
    A caller that writes each report before asking for the next keeps its
    files through an aborted sweep.

    Raises ValueError for a schedule that is empty, does not start at 3 or
    does not increase, and NonConvergence (annotated with the failing N) if
    any solve fails; the continuation chain is broken at that point and the
    sweep stops.
    """
    sizes = list(sizes)
    if sizes[:1] != [3] or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must increase strictly from N=3")
    recent: deque = deque(maxlen=CONTINUATION_SOURCES)
    for n in sizes:
        d0 = extrapolate_init(recent, n) if recent else closed_form_start(n)
        report = gauss_newton(solve_rate_params(n), d0)
        recent.append((n, report.d))
        yield report
