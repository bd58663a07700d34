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
blocks, and text after the last block are rejected, and delta, a sum of
positive parts of residuals, must not be negative.

Every number is written as the shortest decimal that round-trips its 64-bit
binary value, so parse(render(x)) is bit-identical. Header values use
Python's repr (2.48e-05, 1e+16); block values use orjson's layout, which is
positional for 1e-5 <= |x| < 1e16 and otherwise writes an exponent with no
plus sign or leading zero (0.0000248, 1e16, 2.5e-8). Every value must be
one finite JSON number, which both layouts are, and N a JSON integer. The
parser reads the header's four values with one orjson call. Tag lines are
the only lines with a colon, so it cuts each block out of the text at the
tags and reads it with one more.
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


def _numbers(span: str, lineno: int, what: str) -> list:
    """The values of `span`, one JSON number a line, read by one orjson
    call; else CertificateFormatError naming the first line, counted from
    line `lineno` of the file, that is not one finite JSON number."""
    import orjson  # rates and envelope never load it

    # a non-ASCII character becomes b"?". The guard runs before line breaks
    # become commas, so a line 1,2 cannot pass for two values; it keeps out
    # true, null, NaN, Infinity, quotes, brackets and whitespace, and orjson
    # rejects an overflow such as 1e999, so every value read is finite
    data = span.encode("ascii", "replace")
    stray = data.translate(None, b"0123456789.eE+-\n")
    try:
        if not stray:
            return orjson.loads(b"[" + data.replace(b"\n", b",") + b"]")
        at = data.index(stray[:1])
    except orjson.JSONDecodeError as exc:
        at = exc.pos - 1  # pos counts the opening bracket
    k = data.count(b"\n", 0, at)
    line = span.split("\n")[k]
    raise CertificateFormatError(
        f"line {lineno + k}: {line!r} in {what} is not one finite JSON number")


def parse_certificate(text: str) -> CertificateFile:
    """Parse the layout of the module docstring; anything else raises
    CertificateFormatError."""
    lines = text.split("\n", len(_HEADER_KEYS))
    rest = lines.pop() if len(lines) > len(_HEADER_KEYS) else ""
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
    n, *values = _numbers("\n".join(header[key] for key in _HEADER_KEYS[1:]), 2, "the header")
    if not isinstance(n, int):  # orjson reads a JSON integer as an int
        raise CertificateFormatError(f"line 2: N {header['N']!r} is not an integer")
    if n < 3:
        raise CertificateFormatError(f"certificates need N >= 3, got N={n}")
    alpha, r, delta = np.array(values, dtype=np.float64).tolist()
    if delta < 0:  # -0.0 is valid
        raise CertificateFormatError(f"header delta {delta!r} is negative")
    # Only tag lines hold a colon, so each piece after the first is a block's
    # values and then the next tag line, less its colon. With a final newline
    # the last piece ends in an empty tag.
    tag, *pieces = (rest if rest.endswith("\n") else rest + "\n").split(":\n")
    del rest
    pieces.reverse()  # popped in file order, so each is freed once read
    lineno, blocks = len(_HEADER_KEYS) + 1, {}
    for name, offset in _BLOCKS:
        if tag != name:
            if name == "d":
                raise CertificateFormatError(f"line {lineno}: expected the required block 'd:'")
            continue
        piece, count = pieces.pop(), n + offset
        span, _, tag = piece.rpartition("\n")
        got = piece.count("\n")
        if got < count:
            found = repr(tag + ":") if pieces else "the end of the file"
            raise CertificateFormatError(f"line {lineno + 1 + got}: expected value {got + 1} "
                                         f"of {count} in block '{name}', got {found}")
        if got > count:  # its values are read first, so a bad one is named
            *head, extra, _ = piece.split("\n", count + 1)
            _numbers("\n".join(head), lineno + 1, f"block '{name}'")
            raise CertificateFormatError(
                f"line {lineno + 1 + count}: unexpected {extra!r} after block '{name}'")
        blocks[name] = np.array(_numbers(span, lineno + 1, f"block '{name}'"), dtype=np.float64)
        lineno += 1 + count
    if tag or pieces:
        raise CertificateFormatError(f"line {lineno}: unexpected {tag + ':'!r}")
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
