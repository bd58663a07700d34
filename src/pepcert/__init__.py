"""Construction and independent verification of low-rank worst-case
certificates for gradient descent with the rate-balancing constant stepsize.

The library is organized around five pieces:

- `rates`: the stepsize/rate pair (alpha(N), r(N)), closed-form worst cases,
  exact 1-D simulations, and the lower-bound envelope.
- `recursion`: one pass from the free vector d to the certificate data
  (a, b, c) and the residuals eps.
- `solver`: damped Gauss-Newton on the overdetermined residual system, with
  warm-started continuation sweeps over a list of sizes.
- `verifier`: the multiplier matrix, symbolic aggregation of the
  interpolation inequalities against the target rate expression (the oracle),
  and the rank-one slack check. A certificate's `positive` and `delta`
  give the rate bound r + delta/2.
- `certfile`/`cli`: the pepcert/1 file format and command-line front end.

`pepcert verify` re-derives a file's vectors from d, checks the stored ones
against them, and gates positivity and delta; `--oracle` adds the coefficient
match. It runs no structural check: criterion 7 of the acceptance suite
checks the sparsity pattern, unit column sum and row/column balance of the
matrix `assemble_lambda` builds, and calls `slack_psd_check`.
"""

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
from .solver import (
    NonConvergence,
    SolveReport,
    bootstrap_smallest,
    continue_from,
    doubling,
    extrapolate_init,
    gauss_newton,
    least_squares_step,
    resample,
    sweep,
)
from .verifier import (
    LambdaMatrix,
    aggregate,
    assemble_lambda,
    oracle_check,
    oracle_scale,
    rhs_with_errors,
    slack_gram,
    slack_psd_check,
)

__version__ = "0.1.0"
