"""Line-oriented certificate files (format tag pepcert/1).

Header of `key value` lines (format, N, alpha, r, delta) followed by labeled
vector blocks, one value per line:

    format pepcert/1
    N 5
    alpha 1.7...
    r 0.0...
    delta 0.0
    d:
    ...
    a:
    ...

Numbers render as the shortest decimal that round-trips the 64-bit binary
value (Python repr), so parse(render(x)) is bit-identical. The d block is
required and is the single source of truth; a, b, c, eps are advisory and
verification re-derives them. Every number must be finite.
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
_HEADER_KEYS = ("N", "alpha", "r", "delta")
_BLOCKS = ("d", "a", "b", "c", "eps")


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

    def __post_init__(self):
        if self.N < 3:
            raise CertificateFormatError(f"certificates need N >= 3, got N={self.N}")
        self.d = np.asarray(self.d, dtype=float)
        if self.d.shape != (self.N - 1,):
            raise CertificateFormatError(
                f"d must have length N-1={self.N - 1}, got {self.d.shape}"
            )
        for name, expect in (("a", self.N), ("b", self.N - 1),
                             ("c", self.N + 1), ("eps", self.N + 1)):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            setattr(self, name, arr)
            if arr.shape != (expect,):
                raise CertificateFormatError(
                    f"{name} must have length {expect}, got {arr.shape}"
                )


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
    for name in _BLOCKS:
        vec = getattr(cf, name)
        if vec is None:
            continue
        lines.append(f"{name}:")
        lines.append("\n".join(map(repr, vec.tolist())))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> CertificateFile:
    header: dict[str, str] = {}
    blocks: dict[str, list[float]] = {}
    current: list[float] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.endswith(":"):
            name = line[:-1]
            if name not in _BLOCKS:
                raise CertificateFormatError(f"line {lineno}: unknown block '{name}'")
            if name in blocks:
                raise CertificateFormatError(f"line {lineno}: duplicate block '{name}'")
            current = blocks.setdefault(name, [])
            continue
        if current is not None:
            try:
                current.append(float(line))
            except ValueError as exc:
                raise CertificateFormatError(
                    f"line {lineno}: bad numeric value {line!r}"
                ) from exc
            continue
        key, _, value = line.partition(" ")
        if not value:
            raise CertificateFormatError(f"line {lineno}: malformed header line {raw!r}")
        if key in header:
            raise CertificateFormatError(f"line {lineno}: duplicate key '{key}'")
        header[key] = value
    if header.get("format") != FORMAT_TAG:
        raise CertificateFormatError(
            f"missing or unsupported format tag {header.get('format')!r}"
        )
    for key in _HEADER_KEYS:
        if key not in header:
            raise CertificateFormatError(f"missing header key '{key}'")
    if "d" not in blocks:
        raise CertificateFormatError("missing required block 'd'")
    try:
        n = int(header["N"])
        alpha = float(header["alpha"])
        r = float(header["r"])
        delta = float(header["delta"])
    except ValueError as exc:
        raise CertificateFormatError(f"bad header value: {exc}") from exc
    kwargs = {name: np.array(vals) for name, vals in blocks.items()}
    for name, vec in (("header", np.array([alpha, r, delta])), *kwargs.items()):
        if not np.isfinite(vec).all():
            raise CertificateFormatError(f"non-finite value in {name!r}")
    return CertificateFile(N=n, alpha=alpha, r=r, delta=delta, **kwargs)


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
    except OSError as exc:
        raise CertificateFormatError(f"cannot read {path}: {exc}") from exc
    return parse_certificate(text)


def params_from_file(cf: CertificateFile) -> RateParams:
    """Balanced RateParams from stored header values; the balance check
    doubles as a corruption check on (N, alpha, r)."""
    try:
        return RateParams(N=cf.N, alpha=cf.alpha, r=cf.r).check_balance()
    except ValueError as exc:
        raise CertificateFormatError(f"inconsistent rate parameters: {exc}") from exc
