"""Construction and independent verification of low-rank worst-case
certificates for gradient descent with the rate-balancing constant stepsize.

The library is organized around five pieces:

- `rates`: the stepsize/rate pair (alpha(N), r(N)), closed-form worst cases,
  exact 1-D simulations, and the lower-bound envelope.
- `recursion`: one pass from the free vector d to the certificate data
  (a, b, c) and the residuals eps.
- `solver`: damped Gauss-Newton on the overdetermined residual system. A
  cold solve starts from a closed-form shape of the certificate, and a sweep
  over a list of sizes warm-starts each size from the ones before. It, and the
  `scipy.linalg` it needs, load on first use of `pepcert.solver` or of one
  of its names here (`pepcert.sweep`, `pepcert.NonConvergence`, ...), so a
  process that only verifies never imports them.
- `verifier`: symbolic aggregation of the interpolation inequalities against
  the target rate expression: the O(N) oracle `oracle_check`, the dense
  reference (`assemble_lambda`, `aggregate`, `rhs_with_errors`) that tests
  and demos compare it with, and the rank-one slack check, O(N) through
  the slack's factors (dense only for a gram passed in). A certificate's
  `positive` and `delta` give the rate bound r + delta/2.
- `certfile`/`cli`: the pepcert/1 file format and command-line front end.

`pepcert verify` re-derives a file's vectors from d, checks the stored ones
against them, and gates positivity and delta; `--oracle` adds the coefficient
match, in O(N) memory. It builds no (N+2)^2 array and runs no structural
check: criterion 7 of the acceptance suite checks the sparsity pattern, unit
column sum and row/column balance of the matrix `assemble_lambda` builds, and
calls `slack_psd_check`.
"""

import importlib

from .certfile import (
    FORMAT_TAG,
    CertificateFile,
    CertificateFormatError,
    certificate_file,
    default_path,
    params_from_file,
    parse_certificate,
    read_certificate,
    render_certificate,
    write_certificate,
)
from .rates import (
    BALANCE_TOL,
    RateParams,
    SimTrace,
    huber,
    huber_rate,
    lower_bound_envelope,
    quadratic,
    quadratic_rate,
    simulate,
    solve_rate_params,
    solve_rate_params_mp,
)
from .recursion import (
    FullCertificate,
    c_from_d,
    derive_full,
    residual,
)
from .verifier import (
    aggregate,
    assemble_lambda,
    oracle_check,
    oracle_scale,
    rhs_with_errors,
    slack_gram,
    slack_psd_check,
)

__version__ = "0.1.0"

# solver.__all__, resolved by __getattr__ on each lookup
_SOLVER_NAMES = (
    "NonConvergence",
    "SolveReport",
    "least_squares_step",
    "gauss_newton",
    "closed_form_start",
    "extrapolate_init",
    "sweep",
)


def __getattr__(name):
    # import_module, not `from . import solver`, which would call back in here
    # through hasattr. Nothing is cached in globals(), so a name looked up
    # later sees what pepcert.solver holds then, monkeypatches included.
    if name == "solver" or name in _SOLVER_NAMES:
        solver = importlib.import_module(".solver", __name__)
        return solver if name == "solver" else getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "solver", *_SOLVER_NAMES})
