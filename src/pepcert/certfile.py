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
blocks, and text after the last block are rejected, and every number must
be finite. Numbers render as the shortest decimal that round-trips the
64-bit binary value (Python repr), so parse(render(x)) is bit-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .rates import RateParams
from .recursion import FullCertificate

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
]

FORMAT_TAG = "pepcert/1"
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


def render_certificate(cf: CertificateFile) -> str:
    lines = [f"format {FORMAT_TAG}"]
    lines.append(f"N {cf.N}")
    for key in ("alpha", "r", "delta"):
        lines.append(f"{key} {getattr(cf, key)!r}")
    for name, _ in _BLOCKS:
        vec = getattr(cf, name)
        if vec is None:
            continue
        lines.append(f"{name}:")
        lines.append("\n".join(map(repr, vec.tolist())))
    return "\n".join(lines) + "\n"


def _finite(strings: list[str], what: str) -> np.ndarray:
    try:
        values = np.array(strings, dtype=float)
    except ValueError as exc:
        raise CertificateFormatError(f"bad number in {what}: {exc}") from exc
    if not np.isfinite(values).all():
        raise CertificateFormatError(f"non-finite value in {what}")
    return values


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
    alpha, r, delta = _finite([header["alpha"], header["r"], header["delta"]], "header").tolist()
    blocks = {}
    pos = len(_HEADER_KEYS)
    for name, offset in _BLOCKS:
        if lines[pos : pos + 1] == [f"{name}:"]:
            end = pos + 1 + n + offset
            if end > len(lines):
                raise CertificateFormatError(f"block '{name}' ends before its {n + offset} values")
            blocks[name] = _finite(lines[pos + 1 : end], f"block '{name}'")
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
    atomically: a temporary file in the same directory replaces the target."""
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
