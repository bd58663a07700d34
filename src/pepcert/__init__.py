"""Construction and independent verification of low-rank worst-case
certificates for gradient descent with the rate-balancing constant stepsize.

The library is organized around five pieces:

- `rates`: the stepsize/rate pair (alpha(N), r(N)), closed-form worst cases,
  exact 1-D simulations, and the lower-bound envelope.
- `recursion`: `derive_full`, one pass from the free vector d to the
  certificate data (a, b, c) and the residuals eps.
- `solver`: damped Newton on N-1 of the N+1 residual equations, whose zero
  is exact, with all N+1 gated. A cold solve starts from a closed-form shape
  of the certificate, and a sweep over a list of sizes warm-starts each size
  from the ones before. Its first band factorization loads scipy's
  compiled LAPACK module (not the `scipy.linalg` package), so a process
  that only verifies never loads scipy.
- `verifier`: symbolic aggregation of the interpolation inequalities against
  the target rate expression, in O(N) time and memory: the oracle
  `oracle_check` and the rank-one slack check `slack_psd_check`, through
  the slack's factors, and `verdict`, what CERTIFIED means. A certificate's
  `positive` and `delta` give the rate bound r + delta/2.
- `certfile`/`cli`: the pepcert/1 format and its checked read; the front end.

`pepcert verify` re-derives a file's vectors from d, checks the stored ones
against them, and certifies the file when every check of `verdict` passes:
positivity and the delta gate, on the recomputed delta and the header's;
`--oracle` adds the coefficient match, in O(N) memory. No part of the
package builds an (N+2)^2 array, and `verify` runs no structural check:
criterion 7 of the acceptance suite checks the sparsity pattern, unit
column sum and row/column balance of the multiplier matrix through the
tests' dense reference, and calls `slack_psd_check`.
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
    read_checked,
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
)
from .recursion import (
    FullCertificate,
    c_from_d,
    derive_full,
)
from .solver import (
    NonConvergence,
    SolveReport,
    closed_form_start,
    extrapolate_init,
    gauss_newton,
    sweep,
)
from .verifier import oracle_check, slack_psd_check, verdict

__version__ = "0.1.0"
