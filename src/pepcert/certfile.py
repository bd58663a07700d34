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
one finite JSON number, which both layouts are, and N a JSON integer. Line
ends are "\\n" alone: a carriage return is a stray character.

Tag lines are the only lines with a colon, so a reader cuts the text at
colons: one str.find per tag gives each block's span, with no line split
and no line count. parse_certificate reads the header's four values with
one orjson call and each block with one more, and checks a block's length
from the count of values read. read_checked, the read of `verify`, parses
only the header and d, derives a, b, c and eps, and compares each stored
advisory block with the writer's own rendering of the derived vector. A
block equal to it reads back as exactly that vector, so it passes with no
parse; any other block (an older file's repr layout, an edit, a non-finite
derivation) is parsed and compared to CROSS_TOL. It returns the derived
certificate and the header's delta, what `verifier.verdict` takes: no
stored block leaves this module.
"""

from __future__ import annotations

import contextlib
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
    which orjson writes as null."""
    import orjson  # rates and envelope never load it

    values = np.ascontiguousarray(vec, dtype=np.float64)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    # a number is digits, ".", "-" and "e", so an "n" starts a null; one
    # memchr finds it, where a search for b"null" is many times slower
    if b"n" in text:
        raise ValueError(f"cannot render the non-finite value in {what}")
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


def _cut(text: str) -> tuple[list[str], list[tuple[str, int, int]]]:
    """The header lines of `text`, at most five, and each tag after them as
    (tag, start, stop), in file order. Tag lines are the only lines with a
    colon, so a tag is the text from its line start to a colon that ends a
    line, and no line is split off. text[start:stop] holds the tag's value
    lines, and stop is the index of the line break that ends them: start - 1,
    the tag line's own break, when there are none, and len(text) for a last
    line with no final newline. The first tag is all the text from the end
    of the header to the first such colon."""
    header, start = [], 0
    for _ in _HEADER_KEYS:
        end = text.find("\n", start)
        if end < 0:  # too few lines for a block
            header.append(text[start:])
            start = len(text)
            break
        header.append(text[start:end])
        start = end + 1
    tags, stops, piece = [], [], start
    colon = text.find(":", start)
    while colon >= 0:
        if colon + 1 == len(text) or text[colon + 1] == "\n":
            # the break before the tag line ends the previous tag's values
            line = text.rfind("\n", piece, colon) if tags else -1
            stops.append(line if line >= 0 else piece - 1)
            tags.append((text[max(line + 1, piece) : colon], colon + 2))
            piece = colon + 2
        colon = text.find(":", colon + 1)
    stops.append(len(text) - 1 if text.endswith("\n") else len(text))
    return header, [(tag, begin, stop) for (tag, begin), stop in zip(tags, stops[1:])]


def _header(lines: list[str]) -> tuple[int, float, float, float]:
    """N, alpha, r and delta from the header lines; else
    CertificateFormatError."""
    header = {}
    for lineno, (key, line) in enumerate(zip(_HEADER_KEYS, lines), start=1):
        before, cr, _ = line.partition("\r")
        if cr:
            raise CertificateFormatError(f"line {lineno}: carriage return after "
                                         f"{before!r}; lines end in '\\n' alone")
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
    return n, alpha, r, delta


def _walk(n: int, tags: list[tuple[str, int, int]]):
    """Each block of the cut `tags` in file order, as (name, length, start,
    stop, lineno, after): `lineno` is its tag line's number and `after` the
    tag that follows it, None at the end of the file. A tag out of place
    raises CertificateFormatError once the blocks before it are read, so a
    corrupt file's error names its first fault."""
    lineno, i = len(_HEADER_KEYS) + 1, 0
    if not tags or tags[0][0] != "d":
        raise CertificateFormatError(f"line {lineno}: expected the required block 'd:'")
    for name, offset in _BLOCKS:
        if i < len(tags) and tags[i][0] == name:
            _, start, stop = tags[i]
            i += 1
            after = tags[i][0] if i < len(tags) else None
            yield name, n + offset, start, stop, lineno, after
            lineno += 1 + n + offset
    if i < len(tags):
        raise CertificateFormatError(f"line {lineno}: unexpected {tags[i][0] + ':'!r}")


def _values(text: str, name: str, length: int, start: int, stop: int, lineno: int,
            after: str | None) -> np.ndarray:
    """The values of a block from `_walk`; else CertificateFormatError for
    the fault a line-by-line read meets first. The length is checked from
    the count `_numbers` returns, so the lines are counted only for an
    error."""
    span, what = text[start:stop], f"block '{name}'"
    try:
        values, error = _numbers(span, lineno + 1, what), None
    except CertificateFormatError as exc:
        values, error = [], exc
    if len(values) == length:  # length > 1, so an empty span is never right
        return np.array(values, dtype=np.float64)
    got = text.count("\n", start - 1, stop)
    if got > length:  # its values are read first, so a bad one is named
        lines = span.split("\n", length + 1)
        _numbers("\n".join(lines[:length]), lineno + 1, what)
        raise CertificateFormatError(
            f"line {lineno + 1 + length}: unexpected {lines[length]!r} after {what}")
    if error is not None:  # a line that is not a number comes before a missing one
        raise error
    found = "the end of the file" if after is None else repr(after + ":")
    raise CertificateFormatError(f"line {lineno + 1 + got}: expected value {got + 1} "
                                 f"of {length} in {what}, got {found}")


def parse_certificate(text: str) -> CertificateFile:
    """Parse the layout of the module docstring; anything else raises
    CertificateFormatError."""
    lines, tags = _cut(text)
    n, alpha, r, delta = _header(lines)
    blocks = {block[0]: _values(text, *block) for block in _walk(n, tags)}
    return CertificateFile(N=n, alpha=alpha, r=r, delta=delta, **blocks)


def default_path(outdir, n: int) -> str:
    return os.path.join(os.fspath(outdir), f"cert_N{n:05d}.txt")


def write_certificate(cf: CertificateFile, path) -> str:
    """Write to `path` (for the canonical name, `default_path(outdir, N)`)
    atomically: a temporary file in the same directory replaces the target.
    The text is rendered before that file opens, so a certificate that does
    not render (ValueError) leaves an old file at `path` as it was. The
    directory is made only when the temporary file cannot open without it,
    and the file holds the rendered text byte for byte, "\\n" line ends on
    every platform."""
    text = render_certificate(cf)
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        # the open is inside the try that unlinks tmp, so an interrupt that
        # lands just after it returns leaves no temporary file behind
        try:
            fh = open(tmp, "w", encoding="utf-8", newline="")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            fh = open(tmp, "w", encoding="utf-8", newline="")
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def _read_text(path) -> str:
    """The bytes of the file at `path` decoded as UTF-8, line ends as they
    are: a carriage return is a stray character, not a line break."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CertificateFormatError(f"cannot read {path}: {exc}") from exc


def read_certificate(path) -> CertificateFile:
    return parse_certificate(_read_text(path))


def params_from_file(cf: CertificateFile) -> RateParams:
    """Balanced RateParams from stored header values; the balance check
    doubles as a corruption check on (N, alpha, r)."""
    try:
        return RateParams(N=cf.N, alpha=cf.alpha, r=cf.r).check_balance()
    except ValueError as exc:
        raise CertificateFormatError(f"inconsistent rate parameters: {exc}") from exc


def _is_rendering(text: str, start: int, stop: int, vec: np.ndarray) -> bool:
    """Whether text[start:stop] is the writer's rendering of `vec`, which
    reads back as exactly `vec`; never for a NaN or inf, which has none."""
    try:
        lines = _number_lines(vec, "a derived vector")
    except ValueError:
        return False
    return stop - start == len(lines) and text.startswith(lines, start)


def read_checked(path) -> tuple[FullCertificate, float]:
    """The read of `pepcert verify` and `plotdata`: the certificate derived
    from the d of the file at `path` and the header's delta, the arguments
    of `verifier.verdict`, once each stored vector matches the derivation
    to CROSS_TOL; else CertificateFormatError. Only the header and d are
    parsed. A stored a, b, c or eps block that is, byte for byte, the
    writer's rendering of the derived vector holds exactly that vector, so
    it passes unparsed; any other block (an older file's repr layout, an
    edit) is parsed and compared to CROSS_TOL. The header's rate pair is
    checked before that, so a file with a bad rate pair and a malformed
    advisory block reports the rate pair. A finite d whose derivation
    overflows gives NaN vectors, which the gates reject, and no numpy
    warning."""
    text = _read_text(path)
    lines, tags = _cut(text)
    n, alpha, r, delta = _header(lines)
    blocks = _walk(n, tags)
    cf = CertificateFile(N=n, alpha=alpha, r=r, delta=delta, d=_values(text, *next(blocks)))
    with np.errstate(over="ignore", invalid="ignore"):
        cert = derive_full(params_from_file(cf), cf.d)
    # every block is read before any is compared, as in a full parse
    parsed = [(block[0], _values(text, *block)) for block in blocks
              if not _is_rendering(text, *block[2:4], getattr(cert, block[0]))]
    for name, stored in parsed:
        gap = float(np.max(np.abs(stored - getattr(cert, name))))
        if not gap <= CROSS_TOL:  # a NaN gap is corruption too
            raise CertificateFormatError(
                f"stored {name} in {path} deviates from recomputed by {gap:.3e}")
    return cert, delta
