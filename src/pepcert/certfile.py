"""Line-oriented certificate files (format tag pepcert/1).

A file is exactly what `render_certificate` writes, one item per line:

    format pepcert/1
    N 5
    alpha 1.7...
    r 0.0...
    delta 0.0
    d:
    ...             N-1 values
    a:
    ...             N values
    b:
    ...             N-1 values
    c:
    ...             N+1 values
    eps:
    ...             N+1 values

The five header lines come first and in this order; N >= 3. The d block is
required and is the single source of truth; the a, b, c, eps blocks are
advisory (verification re-derives them), and any of them may be left out,
but those present keep this order. N fixes the length of every block. The
final newline is optional. Blank lines, unknown or reordered keys and
blocks, and text after the last block are rejected, every number must be
finite, and delta, a sum of positive parts of residuals, must not be
negative.

Every number is written as the shortest decimal that round-trips its 64-bit
binary value, so parse(render(x)) is bit-identical. Header values use
Python's repr (2.48e-05, 1e+16); block values use orjson's layout, which is
positional for 1e-5 <= |x| < 1e16 and otherwise writes an exponent with no
plus sign or leading zero (0.0000248, 1e16, 2.5e-8). Block and header
numbers must be JSON numbers, which both writer layouts are.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .rates import RateParams
from .recursion import FullCertificate, derive_full

__all__ = [
    "FORMAT_TAG",
    "CertificateFormatError",
    "CertificateFile",
    "render_certificate",
    "parse_certificate",
    "write_certificate",
    "read_certificate",
    "certificate_file",
    "default_path",
    "params_from_file",
    "read_checked",
]

FORMAT_TAG = "pepcert/1"
CROSS_TOL = 1e-12
_HEADER_KEYS = ("format", "N", "alpha", "r", "delta")
# block names in file order, each with its length minus N
_BLOCKS = (("d", -1), ("a", 0), ("b", -1), ("c", 1), ("eps", 1))


class CertificateFormatError(ValueError):
    """The file does not parse as a pepcert/1 certificate."""


@dataclass
class CertificateFile:
    N: int
    alpha: float
    r: float
    delta: float
    d: np.ndarray
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    c: np.ndarray | None = None
    eps: np.ndarray | None = None


def certificate_file(cert: FullCertificate) -> CertificateFile:
    """File payload for a certificate: stored d plus derived vectors."""
    return CertificateFile(
        N=cert.params.N, alpha=cert.params.alpha, r=cert.params.r,
        delta=cert.delta, d=cert.d, a=cert.a, b=cert.b, c=cert.c, eps=cert.eps,
    )


def _number_lines(vec, what: str) -> str:
    """The entries of `vec` as float64, one shortest round-tripping decimal
    a line, all rendered by one orjson call; ValueError on a NaN or inf,
    which orjson would write as null."""
    import orjson  # rates and envelope never load it

    values = np.ascontiguousarray(vec, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"cannot render the non-finite value in {what}")
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    return text[1:-1].replace(b",", b"\n").decode()


def render_certificate(cf: CertificateFile) -> str:
    """The text of `cf` in the layout of the module docstring. A NaN or inf
    anywhere raises ValueError: no file may hold one."""
    lines = [f"format {FORMAT_TAG}"]
    lines.append(f"N {cf.N}")
    for key in ("alpha", "r", "delta"):
        value = getattr(cf, key)
        if not math.isfinite(value):
            raise ValueError(f"cannot render the non-finite header value {key} {value!r}")
        lines.append(f"{key} {value!r}")
    for name, _ in _BLOCKS:
        vec = getattr(cf, name)
        if vec is None:
            continue
        lines.append(f"{name}:")
        lines.append(_number_lines(vec, f"block '{name}'"))
    return "\n".join(lines) + "\n"


def _json_numbers(lines: list[str]) -> np.ndarray | None:
    """The float64 values of `lines` if each is one JSON number, read by one
    orjson call; else None."""
    import orjson  # rates and envelope never load it

    # a non-ASCII character becomes b"?". Only the outer brackets may survive
    # the guard: no true, null, quotes, inner brackets or whitespace. A comma
    # inside a line gives one value too many.
    data = b"[" + ",".join(lines).encode("ascii", "replace") + b"]"
    if data.translate(None, b"0123456789.eE+-,") != b"[]":
        return None
    try:
        values = orjson.loads(data)
    except orjson.JSONDecodeError:  # bad syntax, or an overflow to infinity
        return None
    return np.array(values, dtype=np.float64) if len(values) == len(lines) else None


def _numbers(lines: list[str], what: str) -> np.ndarray:
    """The finite float64 values of `lines`, one JSON number a line;
    else CertificateFormatError naming `what`."""
    values = _json_numbers(lines)
    # orjson 3.8 rejects an overflow such as 1e999; an orjson that read it as
    # inf would still meet the finiteness check
    if values is not None and np.isfinite(values).all():
        return values
    for line in lines:
        if _json_numbers([line]) is None:
            # float() only words the error: a NaN, an infinity or an overflow
            # such as 1e999 is non-finite, anything else not a number
            try:
                finite = math.isfinite(float(line))
            except ValueError:
                finite = True
            if finite:
                raise CertificateFormatError(f"bad number in {what}: {line!r} is not a JSON number")
            break
    raise CertificateFormatError(f"non-finite value in {what}")


def parse_certificate(text: str) -> CertificateFile:
    """Parse the layout of the module docstring; anything else raises
    CertificateFormatError."""
    lines = text.split("\n")
    if lines[-1] == "":
        del lines[-1]
    header = {}
    for lineno, (key, line) in enumerate(zip(_HEADER_KEYS, lines), start=1):
        label, _, value = line.partition(" ")
        header[key] = value
        if label != key or not value:
            raise CertificateFormatError(f"line {lineno}: expected '{key} VALUE', got {line!r}")
    if len(header) < len(_HEADER_KEYS):
        raise CertificateFormatError(f"missing header key '{_HEADER_KEYS[len(header)]}'")
    if header["format"] != FORMAT_TAG:
        raise CertificateFormatError(f"unsupported format tag {header['format']!r}")
    try:
        n = int(header["N"])
    except ValueError as exc:
        raise CertificateFormatError(f"bad header value: {exc}") from exc
    if n < 3:
        raise CertificateFormatError(f"certificates need N >= 3, got N={n}")
    alpha, r, delta = _numbers([header["alpha"], header["r"], header["delta"]], "header").tolist()
    if delta < 0:  # -0.0 is valid
        raise CertificateFormatError(f"header delta {delta!r} is negative")
    blocks = {}
    pos = len(_HEADER_KEYS)
    for name, offset in _BLOCKS:
        if lines[pos : pos + 1] == [f"{name}:"]:
            end = pos + 1 + n + offset
            if end > len(lines):
                raise CertificateFormatError(f"block '{name}' ends before its {n + offset} values")
            blocks[name] = _numbers(lines[pos + 1 : end], f"block '{name}'")
            pos = end
        elif name == "d":
            raise CertificateFormatError(f"line {pos + 1}: expected the required block 'd:'")
    if pos < len(lines):
        raise CertificateFormatError(f"line {pos + 1}: unexpected {lines[pos]!r}")
    return CertificateFile(N=n, alpha=alpha, r=r, delta=delta, **blocks)


def default_path(outdir, n: int) -> str:
    return os.path.join(os.fspath(outdir), f"cert_N{n:05d}.txt")


def write_certificate(cf: CertificateFile, path) -> str:
    """Write to `path` (for the canonical name, `default_path(outdir, N)`)
    atomically: a temporary file in the same directory replaces the target.
    The text is rendered before that file opens, so a certificate that does
    not render (ValueError) leaves an old file at `path` as it was."""
    os.makedirs(os.path.dirname(os.path.abspath(os.fspath(path))), exist_ok=True)
    text = render_certificate(cf)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return os.fspath(path)


def read_certificate(path) -> CertificateFile:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CertificateFormatError(f"cannot read {path}: {exc}") from exc
    return parse_certificate(text)


def params_from_file(cf: CertificateFile) -> RateParams:
    """Balanced RateParams from stored header values; the balance check
    doubles as a corruption check on (N, alpha, r)."""
    try:
        return RateParams(N=cf.N, alpha=cf.alpha, r=cf.r).check_balance()
    except ValueError as exc:
        raise CertificateFormatError(f"inconsistent rate parameters: {exc}") from exc


def read_checked(path) -> tuple[CertificateFile, FullCertificate]:
    """The read of `pepcert verify` and `plotdata`: the file at `path` and
    the certificate derived from its d, once each stored vector matches it
    to CROSS_TOL; else CertificateFormatError. A finite d whose derivation
    overflows gives NaN vectors, which the gates reject, and no numpy
    warning."""
    cf = read_certificate(path)
    with np.errstate(over="ignore", invalid="ignore"):
        cert = derive_full(params_from_file(cf), cf.d)
    for name in ("a", "b", "c", "eps"):
        stored = getattr(cf, name)
        if stored is None:
            continue
        gap = float(np.max(np.abs(stored - getattr(cert, name))))
        if not gap <= CROSS_TOL:  # a NaN gap is corruption too
            raise CertificateFormatError(
                f"stored {name} in {path} deviates from recomputed by {gap:.3e}")
    return cf, cert
