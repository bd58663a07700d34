"""Independent checker for pepcert/1 certificate files.

Shares no code with `pepcert.verifier`, `pepcert.recursion` or
`pepcert.certfile`: it parses the text itself, checks the stepsize/rate pair
with mpmath, enforces the gates, and checks the aggregate identity

    sum_ij lambda_ij Q_ij = f_star - f_N + <h, S> - S^2 / (4 r)
                            + sum_{i<N} eps_i (f_i - f_star) + eps_N / 2 g_0^2,
    S = sum_i c_i g_i,   Q_ij = f_i - f_j - <g_j, x_i - x_j> - 1/2 |g_i - g_j|^2,

with Lambda built from the documented sparsity pattern and the stored
a, b, c, d, eps blocks. The identity is a quadratic polynomial in
(h, g_0..g_N, f_star, f_0..f_N); it is evaluated at seeded random points
(Schwartz-Zippel), and its f-coefficients (row sums minus column sums of
Lambda) are compared entry by entry so that a change in a single multiplier
is caught even when it is too small to show in the evaluated sum.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

SUP_EPS_GATE = 1e-13
DELTA_GATE = 1e-11
ALPHA_ULPS = 4
R_ULPS = 8
ROUNDING = 64 * np.finfo(float).eps
POINTS = 4

_LENGTHS = {"d": -1, "a": 0, "b": -1, "c": 1, "eps": 1}


class Rejected(ValueError):
    """The file is not a valid certificate; the message says why."""


def parse(text: str) -> dict:
    """Fields of a pepcert/1 file: N (int), alpha, r, delta (floats) and the
    five blocks as float arrays. Every block is required and every number
    must be finite."""
    header: dict[str, str] = {}
    blocks: dict[str, list[float]] = {}
    current = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        if line.endswith(":"):
            name = line[:-1]
            if name not in _LENGTHS or name in blocks:
                raise Rejected(f"line {lineno}: unexpected block {name!r}")
            current = blocks[name] = []
        elif current is not None:
            current.append(_finite(line, lineno))
        else:
            key, _, value = line.partition(" ")
            if key in header or not value:
                raise Rejected(f"line {lineno}: bad header line {line!r}")
            header[key] = value.strip()
    if header.pop("format", None) != "pepcert/1":
        raise Rejected("missing format tag pepcert/1")
    if set(header) != {"N", "alpha", "r", "delta"}:
        raise Rejected(f"header keys {sorted(header)}")
    if set(blocks) != set(_LENGTHS):
        raise Rejected(f"blocks {sorted(blocks)}, need {sorted(_LENGTHS)}")
    try:
        n = int(header["N"])
    except ValueError:
        raise Rejected(f"bad N {header['N']!r}")
    if n < 3:
        raise Rejected(f"N={n} below 3")
    out = {"N": n}
    for key in ("alpha", "r", "delta"):
        out[key] = _finite(header[key], key)
    for name, offset in _LENGTHS.items():
        vec = np.array(blocks[name])
        if vec.shape != (n + offset,):
            raise Rejected(f"block {name} has {vec.size} entries, need {n + offset}")
        out[name] = vec
    return out


def _finite(token: str, where) -> float:
    try:
        value = float(token)
    except ValueError:
        raise Rejected(f"{where}: not a number {token!r}")
    if not math.isfinite(value):
        raise Rejected(f"{where}: non-finite value {token!r}")
    return value


def check_rates(n: int, alpha: float, r: float) -> None:
    """alpha must be within ALPHA_ULPS of the root of
    (alpha-1)^(2N) (2N alpha + 1) = 1, and r within R_ULPS of
    1 / (2 (2N alpha + 1)) at that root."""
    with mp.workdps(60):
        a = mp.mpf(alpha)
        for _ in range(3):  # Newton on the log form, from a float-accurate start
            g = 2 * n * mp.log(a - 1) + mp.log(2 * n * a + 1)
            a -= g / (2 * n / (a - 1) + 2 * n / (2 * n * a + 1))
        balance = (a - 1) ** (2 * n) * (2 * n * a + 1) - 1
        if abs(balance) > mp.mpf(10) ** -40:
            raise Rejected(f"mpmath root of the balance equation not found (defect {balance})")
        r_true = 1 / (2 * (2 * n * a + 1))
        alpha_err = float(abs(mp.mpf(alpha) - a))
        r_err = float(abs(mp.mpf(r) - r_true))
    if alpha_err > ALPHA_ULPS * math.ulp(alpha):
        raise Rejected(f"alpha off the balance root by {alpha_err:.3e}")
    if r_err > R_ULPS * math.ulp(r):
        raise Rejected(f"r off 1/(2(2N alpha+1)) by {r_err:.3e}")


def build_lambda(cert: dict) -> np.ndarray:
    """Multiplier matrix over (star, 0..N): row star holds c; a_i at (i, i+1);
    b_i at (i+1, i); d_i c_j at (i, j) for j >= i+2; row N and the star
    column are zero."""
    n = cert["N"]
    lam = np.zeros((n + 2, n + 2))
    lam[0, 1:] = cert["c"]
    for i in range(n - 1):
        lam[1 + i, 3 + i:] = cert["d"][i] * cert["c"][i + 2:]
    idx = np.arange(n)
    lam[1 + idx, 2 + idx] = cert["a"]
    idx = np.arange(n - 1)
    lam[2 + idx, 1 + idx] = cert["b"]
    return lam


def check_identity(cert: dict, rng: np.random.Generator) -> float:
    """Largest deviation of the aggregate identity, relative to its tolerance
    (a value above 1 rejects)."""
    n, alpha, r, eps = cert["N"], cert["alpha"], cert["r"], cert["eps"]
    lam = build_lambda(cert)
    rows, cols = lam.sum(axis=1), lam.sum(axis=0)
    # f-coefficients: rows minus columns of Lambda against the target's
    target = np.empty(n + 2)
    target[0] = 1.0 - eps[:n].sum()
    target[1:n + 1] = eps[:n]
    target[n + 1] = -1.0
    worst = np.max(np.abs(rows - cols - target) / (ROUNDING * (rows + cols + 1.0)))

    # the whole identity at random points; index 0 is the minimizer, where
    # x = g = 0, and x_k = h - alpha sum_{l<k} g_l
    f = rng.standard_normal((n + 2, POINTS))
    g = rng.standard_normal((n + 2, POINTS))
    g[0] = 0.0
    x = np.zeros((n + 2, POINTS))
    x[1] = rng.standard_normal(POINTS)
    x[2:] = x[1] - alpha * np.cumsum(g[1:-1], axis=0)
    lg = lam @ g
    lhs = (f * (rows - cols)[:, None]).sum(0) - (x * lg).sum(0) \
        + (g * x * cols[:, None]).sum(0) \
        - 0.5 * ((g * g * (rows + cols)[:, None]).sum(0) - 2.0 * (g * lg).sum(0))
    h, s = x[1], (cert["c"][:, None] * g[1:]).sum(0)
    rhs = f[0] - f[n + 1] + h * s - s * s / (4.0 * r) \
        + (eps[:n, None] * (f[1:n + 1] - f[0])).sum(0) + 0.5 * eps[n] * g[1] ** 2
    lg_abs = lam @ np.abs(g)
    scale = (np.abs(f) * (rows + cols)[:, None]).sum(0) + (np.abs(x) * lg_abs).sum(0) \
        + (np.abs(g * x) * cols[:, None]).sum(0) \
        + (g * g * (rows + cols)[:, None]).sum(0) + (np.abs(g) * lg_abs).sum(0) \
        + np.abs(h * s) + s * s / (4.0 * r) + 2.0
    return max(float(worst), float(np.max(np.abs(lhs - rhs) / (ROUNDING * scale))))


def check_text(text: str, seed: int) -> dict:
    """Check one certificate; returns its parsed fields, raises Rejected."""
    cert = parse(text)
    n = cert["N"]
    check_rates(n, cert["alpha"], cert["r"])
    for name in ("a", "b", "c", "d"):
        if not (cert[name] > 0).all():
            raise Rejected(f"block {name} is not strictly positive")
    sup = float(np.max(np.abs(cert["eps"])))
    if not sup <= SUP_EPS_GATE:
        raise Rejected(f"sup|eps| {sup:.3e} above {SUP_EPS_GATE}")
    delta = float(np.sum(np.maximum(cert["eps"], 0.0)))
    if not max(delta, cert["delta"]) <= DELTA_GATE:
        raise Rejected(f"delta {max(delta, cert['delta']):.3e} above {DELTA_GATE}")
    worst = check_identity(cert, np.random.default_rng([seed, n]))
    if not worst <= 1.0:
        raise Rejected(f"aggregate identity off by {worst:.3e} times its rounding bound")
    return cert


def check_file(path, seed: int) -> dict:
    with open(path) as fh:
        return check_text(fh.read(), seed)


def edit_entry(text: str, block: str, index: int, edit) -> str:
    """Copy of a certificate text with entry `index` of `block` replaced by
    edit(old_value), which returns the new line."""
    lines = text.split("\n")
    start = lines.index(block + ":") + 1
    lines[start + index] = edit(float(lines[start + index]))
    return "\n".join(lines)


def drop_blocks(text: str, keep=("d",)) -> str:
    """Copy of a certificate text with only the header and the `keep` blocks."""
    out, keeping = [], True
    for line in text.split("\n"):
        if line.endswith(":"):
            keeping = line[:-1] in keep
        if keeping:
            out.append(line)
    return "\n".join(out)
