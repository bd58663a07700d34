import contextlib
import io
import math
import os
import re
import struct
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pepcert import (
    CertificateFile,
    CertificateFormatError,
    certificate_file,
    cli,
    default_path,
    derive_full,
    parse_certificate,
    params_from_file,
    read_certificate,
    read_checked,
    render_certificate,
    solve_rate_params,
    write_certificate,
)
from pepcert import certfile
from pepcert.certfile import CROSS_TOL, _number_lines


def tricky_file():
    params = solve_rate_params(4)
    return CertificateFile(
        N=4, alpha=params.alpha, r=params.r, delta=1e-300,
        d=np.array([math.pi, 1 / 3, 0.1 + 0.2]),
    )


# values whose repr and orjson forms differ in layout, and the extremes
EDGE_VALUES = [1e16, 1e22, 5e-324, 9.999999999999999e-05, 2.5e-08, -0.0,
               1.7976931348623157e308, 2.48e-05]


def edge_file():
    params = solve_rate_params(len(EDGE_VALUES) + 1)
    return CertificateFile(N=params.N, alpha=params.alpha, r=params.r, delta=0.0,
                           d=np.array(EDGE_VALUES))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# every finite float64, drawn by its bit pattern: subnormals and -0.0 too
FINITE_FLOAT64 = st.integers(0, 2**64 - 1).map(
    lambda pattern: struct.unpack("<d", pattern.to_bytes(8, "little"))[0]).filter(math.isfinite)


def one_value_file(x, number):
    """A file for N=3 whose header values and d and a entries are all x (its
    magnitude for delta), each written as number(x)."""
    lines = ["format pepcert/1", "N 3", f"alpha {number(x)}", f"r {number(x)}",
             f"delta {number(abs(x))}", "d:", *[number(x)] * 2, "a:", *[number(x)] * 3]
    return "\n".join(lines) + "\n"


def full_text(small_sweep):
    """A canonical file with every block, for N=5."""
    return render_certificate(certificate_file(small_sweep[5].cert))


class TestRoundTrip:
    def test_bit_identical(self):
        for cf in (tricky_file(), edge_file()):
            text = render_certificate(cf)
            back = parse_certificate(text)
            assert render_certificate(back) == text
            np.testing.assert_array_equal(bits(back.d), bits(cf.d))  # -0.0 too
            assert back.alpha == cf.alpha
            assert back.r == cf.r
            assert back.delta == cf.delta

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(FINITE_FLOAT64)
    @example(-0.0)
    @example(5e-324)
    @example(2.225073858507201e-308)
    @example(1.7976931348623157e308)
    def test_every_float64_in_both_layouts(self, x):
        # orjson's layout, which block values have, and repr's, which header
        # values and the block values of older files have
        orjson_layout = lambda v: _number_lines([v], "x")  # noqa: E731
        for number in (orjson_layout, repr):
            cf = parse_certificate(one_value_file(x, number))
            np.testing.assert_array_equal(bits(np.concatenate([cf.d, cf.a])), bits([x] * 5))
            np.testing.assert_array_equal(bits([cf.alpha, cf.r, cf.delta]), bits([x, x, abs(x)]))

    def test_full_payload_roundtrip(self, small_sweep, tmp_path):
        cf = certificate_file(small_sweep[7].cert)
        path = write_certificate(cf, default_path(tmp_path, cf.N))
        back = read_certificate(path)
        for name in ("d", "a", "b", "c", "eps"):
            np.testing.assert_array_equal(getattr(back, name), getattr(cf, name))
        assert render_certificate(back) == render_certificate(cf)

    def test_render_matches_per_element_form(self, small_sweep):
        # header values are repr(x); each block line parses to the bits of
        # its entry and is the decimal number repr(x) writes, so it carries
        # the same shortest significant digits, in orjson's layout
        for cf in (certificate_file(small_sweep[20].cert), edge_file()):
            lines = render_certificate(cf).splitlines()
            header = [f"{key} {getattr(cf, key)!r}" for key in ("alpha", "r", "delta")]
            assert lines[:5] == ["format pepcert/1", f"N {cf.N}", *header]
            pos = 5
            for name in ("d", "a", "b", "c", "eps"):
                vec = getattr(cf, name)
                if vec is None:
                    continue
                assert lines[pos] == f"{name}:"
                block = lines[pos + 1 : pos + 1 + len(vec)]
                np.testing.assert_array_equal(bits([float(line) for line in block]), bits(vec))
                assert [Decimal(line) for line in block] == [Decimal(repr(x)) for x in vec.tolist()]
                pos += 1 + len(vec)
            assert pos == len(lines)

    def test_derived_vectors_present(self, small_sweep):
        cf = certificate_file(small_sweep[5].cert)
        assert cf.a is not None and cf.b is not None
        assert cf.c is not None and cf.eps is not None
        assert cf.d.shape == (4,)


class TestParseErrors:
    def test_wrong_tag(self):
        text = render_certificate(tricky_file()).replace("pepcert/1", "pepcert/9")
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)

    def test_missing_d_block(self):
        text = "format pepcert/1\nN 4\nalpha 1.7\nr 0.03\ndelta 0.0\n"
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)

    def test_missing_header_key(self):
        cf = tricky_file()
        text = "\n".join(
            line for line in render_certificate(cf).splitlines()
            if not line.startswith("delta")
        )
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_header_cut_names_the_next_key(self, k):
        # the final newline is optional, in the header as after it
        head = "\n".join(render_certificate(tricky_file()).split("\n")[:k])
        error = f"missing header key '{HEADER_KEYS[k]}'"
        for text in (head, head + "\n"):
            assert parse_outcome(parse_certificate, text) == error
            assert parse_outcome(line_by_line_parse, text) == error

    @pytest.mark.parametrize("token, error", [
        ("99999999999999999999",
         "line 11: expected value 5 of 99999999999999999998 in block 'd', got 'a:'"),
        ("-9223372036854775809", "certificates need N >= 3, got N=-9223372036854775809"),
    ], ids=["above", "below"])
    def test_n_past_64_bits_is_a_json_integer(self, small_sweep, tmp_path, token, error):
        # orjson reads such an integer as a float; N is still an integer
        text = full_text(small_sweep).replace("\nN 5\n", f"\nN {token}\n")
        assert parse_outcome(parse_certificate, text) == error
        assert parse_outcome(line_by_line_parse, text) == error
        assert verify_text(text, tmp_path / "n.txt") == (4, f"corrupt certificate: {error}\n")

    def test_bad_number(self):
        text = render_certificate(tricky_file()).replace(repr(math.pi), "not-a-number")
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)

    def test_unknown_block(self):
        text = render_certificate(tricky_file()) + "zz:\n1.0\n"
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)

    def test_duplicate_block(self):
        text = render_certificate(tricky_file()) + "d:\n1.0\n1.0\n1.0\n"
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)

    def test_wrong_vector_length(self, small_sweep):
        # N fixes every block's length: one value too few or too many in any
        # block, required or advisory, is rejected
        lines = full_text(small_sweep).splitlines()
        for name in ("d", "a", "b", "c", "eps"):
            first = lines.index(f"{name}:") + 1
            short = lines[:first] + lines[first + 1 :]
            long = lines[:first] + ["0.5"] + lines[first:]
            for edited in (short, long):
                with pytest.raises(CertificateFormatError):
                    parse_certificate("\n".join(edited) + "\n")

    @pytest.mark.parametrize("name", ["d", "a"])
    def test_bad_value_before_a_missing_one_is_the_first_fault(self, small_sweep, tmp_path,
                                                               name):
        # the block's second value is not a number and its third is gone:
        # the error names the bad line, which comes first, as it does when a
        # block has a value too many
        lines = full_text(small_sweep).split("\n")
        at = lines.index(f"{name}:") + 2
        lines[at] = "oops"
        del lines[at + 1]
        text = "\n".join(lines)
        error = f"line {at + 1}: 'oops' in block '{name}' is not one finite JSON number"
        with pytest.raises(CertificateFormatError, match=re.escape(error)):
            parse_certificate(text)
        path = tmp_path / f"short_{name}.txt"
        assert verify_text(text, path) == (4, f"corrupt certificate: {error}\n")
        with pytest.raises(CertificateFormatError, match=re.escape(error)):
            read_checked(path)

    def test_blocks_out_of_order(self, small_sweep, tmp_path):
        text = full_text(small_sweep)
        head, rest = text.split("a:\n")
        a_block, b_rest = rest.split("b:\n")
        b_block, tail = b_rest.split("c:\n")
        # a after b, last or before c and eps: the full parse, the checked
        # read (which parses only d and matches the rest against the
        # rendering) and verify all stop at the a tag, line 16 for N=5
        error = "line 16: unexpected 'a:'"
        for k, swapped in enumerate([f"{head}b:\n{b_block}a:\n{a_block}",
                                     f"{head}b:\n{b_block}a:\n{a_block}c:\n{tail}"]):
            with pytest.raises(CertificateFormatError, match=re.escape(error)):
                parse_certificate(swapped)
            path = tmp_path / f"swapped{k}.txt"
            assert verify_text(swapped, path) == (4, f"corrupt certificate: {error}\n")
            with pytest.raises(CertificateFormatError, match=re.escape(error)):
                read_checked(path)
        # the required block first, too
        d_block = head.split("d:\n")[1]
        with pytest.raises(CertificateFormatError):
            parse_certificate(head.split("d:\n")[0] + f"a:\n{a_block}d:\n{d_block}")

    def test_blank_line_inside_block(self, small_sweep):
        for name in ("d", "c"):
            text = full_text(small_sweep).replace(f"{name}:\n", f"{name}:\n\n", 1)
            with pytest.raises(CertificateFormatError):
                parse_certificate(text)

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:2] + ["beta 1.5"] + lines[2:],
        lambda lines: [lines[0], lines[2], lines[1]] + lines[3:],
        lambda lines: lines[1:2] + lines[:1] + lines[2:],
    ], ids=["unknown-key", "N-after-alpha", "format-not-first"])
    def test_unknown_or_reordered_header_key(self, edit):
        lines = render_certificate(tricky_file()).splitlines()
        with pytest.raises(CertificateFormatError):
            parse_certificate("\n".join(edit(lines)) + "\n")

    @pytest.mark.parametrize("tail", ["\n", "# comment\n"], ids=["blank-line", "comment"])
    def test_text_after_last_block(self, small_sweep, tail):
        for text in (full_text(small_sweep), render_certificate(tricky_file())):
            with pytest.raises(CertificateFormatError):
                parse_certificate(text + tail)

    def test_d_only_without_final_newline(self):
        # the shape of a file cut down to its header and d block
        cf = tricky_file()
        back = parse_certificate(render_certificate(cf).rstrip("\n"))
        np.testing.assert_array_equal(back.d, cf.d)
        assert back.a is None and back.eps is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(CertificateFormatError):
            read_certificate(tmp_path / "nope.txt")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_block_value(self, bad):
        text = render_certificate(tricky_file()).replace(repr(math.pi), bad)
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)

    @pytest.mark.parametrize("key", ["alpha", "r", "delta"])
    def test_non_finite_header_value(self, key):
        lines = render_certificate(tricky_file()).splitlines()
        lines = [f"{key} nan" if line.startswith(f"{key} ") else line for line in lines]
        with pytest.raises(CertificateFormatError):
            parse_certificate("\n".join(lines) + "\n")

    def test_negative_delta(self):
        # delta sums positive parts; -0.0 is still a zero
        text = render_certificate(tricky_file())
        for value in ("-1e-300", "-1.0"):
            with pytest.raises(CertificateFormatError, match="negative"):
                parse_certificate(text.replace("\ndelta 1e-300\n", f"\ndelta {value}\n"))
        assert parse_certificate(text.replace("\ndelta 1e-300\n", "\ndelta -0.0\n")).delta == 0


class TestAtomicWrite:
    def test_failed_render_keeps_old_file(self, tmp_path, monkeypatch):
        import pepcert.certfile as certfile_mod

        path = write_certificate(tricky_file(), path=tmp_path / "c.txt")
        before = Path(path).read_bytes()

        def broken(cf):
            raise RuntimeError("render failed")

        monkeypatch.setattr(certfile_mod, "render_certificate", broken)
        with pytest.raises(RuntimeError):
            write_certificate(tricky_file(), path=path)
        assert Path(path).read_bytes() == before
        assert os.listdir(tmp_path) == ["c.txt"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["d", "delta", "a", "b", "c", "eps"])
    def test_non_finite_value_keeps_old_file(self, small_sweep, tmp_path, field, bad):
        # no file may hold a NaN or inf, so none is rendered: not in the
        # header, not in d, not in an advisory block
        path = write_certificate(tricky_file(), path=tmp_path / "c.txt")
        before = Path(path).read_bytes()
        cf = certificate_file(small_sweep[5].cert)
        if field == "delta":
            cf.delta = bad
        else:
            vec = getattr(cf, field).copy()  # the fixture's arrays stay intact
            vec[1] = bad
            setattr(cf, field, vec)
        with pytest.raises(ValueError, match="non-finite"):
            write_certificate(cf, path=path)
        assert Path(path).read_bytes() == before
        assert os.listdir(tmp_path) == ["c.txt"]

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = write_certificate(tricky_file(), path=tmp_path / "c.txt")
        before = Path(path).read_bytes()
        cf = tricky_file()
        cf.delta = 0.5

        def broken(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", broken)
        with pytest.raises(OSError):
            write_certificate(cf, path=path)
        monkeypatch.undo()
        assert Path(path).read_bytes() == before
        assert os.listdir(tmp_path) == ["c.txt"]
        write_certificate(cf, path=path)
        assert read_certificate(path).delta == 0.5
        assert os.listdir(tmp_path) == ["c.txt"]

    @pytest.mark.parametrize("where", [[], ["new"]], ids=["existing-dir", "missing-dir"])
    def test_interrupt_just_after_the_open_leaves_no_temporary_file(self, tmp_path,
                                                                    monkeypatch, where):
        # Ctrl-C delivered as the temporary file's open returns: the file is
        # on disk, and the interrupt propagates without leaving it there
        def interrupted(*args, **kwargs):
            open(*args, **kwargs).close()
            raise KeyboardInterrupt

        monkeypatch.setattr(certfile, "open", interrupted, raising=False)
        with pytest.raises(KeyboardInterrupt):
            write_certificate(tricky_file(), path=tmp_path.joinpath(*where, "c.txt"))
        assert os.listdir(tmp_path.joinpath(*where)) == []

    def test_makes_a_missing_directory_only(self, tmp_path, monkeypatch):
        made, real = [], os.makedirs
        monkeypatch.setattr(os, "makedirs", lambda name, **kw: made.append(name) or real(name, **kw))
        write_certificate(tricky_file(), path=tmp_path / "c.txt")
        assert made == []
        path = write_certificate(tricky_file(), path=tmp_path / "new" / "deeper" / "c.txt")
        assert made[0] == str(tmp_path / "new" / "deeper")  # it makes the parents itself
        assert read_certificate(path).N == 4
        assert os.listdir(tmp_path / "new" / "deeper") == ["c.txt"]

    def test_file_holds_the_rendered_text(self, tmp_path):
        # "\n" line ends, whatever a platform's text mode would write
        path = write_certificate(tricky_file(), path=tmp_path / "c.txt")
        assert Path(path).read_bytes() == render_certificate(tricky_file()).encode()


class TestParamsFromFile:
    def test_valid(self):
        cf = tricky_file()
        params = params_from_file(cf)
        assert params.N == 4

    def test_corrupted_alpha(self):
        cf = tricky_file()
        cf.alpha += 1e-6  # breaks the balance equation
        with pytest.raises(CertificateFormatError):
            params_from_file(cf)
        for field, value in (("r", tricky_file().r * (1 + 1e-9)),  # off the common value
                             ("alpha", 2.5), ("alpha", 0.5)):  # outside (1, 2)
            cf = tricky_file()
            setattr(cf, field, value)
            with pytest.raises(CertificateFormatError):
                params_from_file(cf)


# One edit of a file's bytes: (kind, position, position or replacement line).
# Positions are taken modulo the number of lines (bytes, for a truncation).
EDITS = st.one_of(
    st.tuples(st.sampled_from(["delete", "duplicate", "blank", "truncate"]),
              st.integers(0, 10**4), st.none()),
    st.tuples(st.just("swap"), st.integers(0, 10**4), st.integers(0, 10**4)),
    st.tuples(st.just("replace"), st.integers(0, 10**4),
              st.text(max_size=30).map(str.encode) | st.binary(max_size=30)),
)


def edit_bytes(data: bytes, edit) -> bytes:
    kind, where, arg = edit
    if kind == "truncate":
        return data[: where % (len(data) + 1)]
    lines = data.split(b"\n")
    i = where % len(lines)
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "blank":
        lines.insert(i, b"")
    elif kind == "swap":
        j = arg % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i] = arg
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def fuzz_inputs(small_sweep, tmp_path_factory):
    """The canonical N=5 file with every block, with d only and with d, b
    and eps, and a directory for the edited copies."""
    cf = certificate_file(small_sweep[5].cert)
    d_only = CertificateFile(N=cf.N, alpha=cf.alpha, r=cf.r, delta=cf.delta, d=cf.d)
    d_b_eps = CertificateFile(N=cf.N, alpha=cf.alpha, r=cf.r, delta=cf.delta, d=cf.d, b=cf.b,
                              eps=cf.eps)
    texts = [render_certificate(f).encode() for f in (cf, d_only, d_b_eps)]
    return texts, tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 1), st.lists(EDITS, min_size=1, max_size=3))
def test_verify_edited_file(fuzz_inputs, which, edits):
    # whatever the edits, verify exits 0, 3 or 4, and exits 0 only for a
    # positive d with a delta inside the gate
    texts, directory = fuzz_inputs
    data = texts[which]
    for edit in edits:
        data = edit_bytes(data, edit)
    path = directory / "edited.txt"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", str(path)])
    assert code in (0, 3, 4)
    if code == 0:
        cf = read_certificate(path)
        cert = derive_full(params_from_file(cf), cf.d)
        assert cert.positive and cert.delta <= 1e-11


JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")
HEADER_KEYS = ("format", "N", "alpha", "r", "delta")


def line_by_line_parse(text: str) -> CertificateFile:
    """The reference for parse_certificate: the file read one line at a time,
    each fault reported at the first line that shows it. The header's five
    lines are checked for their keys, then the format tag, then its four
    values, N a JSON integer, then N >= 3 and delta >= 0. A block holds the
    lines from its tag line to the next line that ends in a colon."""
    def number(line, lineno, what):
        match = JSON_NUMBER.fullmatch(line)
        if match and math.isfinite(float(line)):
            # JSON reads an integer as an integer, so -0 is +0.0
            return int(line) if match.group(2, 3) == (None, None) else float(line)
        raise CertificateFormatError(
            f"line {lineno}: {line!r} in {what} is not one finite JSON number")

    lines = text.removesuffix("\n").split("\n")  # the final newline is optional
    header, body = lines[:5], lines[5:]
    for lineno, (key, line) in enumerate(zip(HEADER_KEYS, header), start=1):
        before, cr, _ = line.partition("\r")
        if cr:
            raise CertificateFormatError(f"line {lineno}: carriage return after "
                                         f"{before!r}; lines end in '\\n' alone")
        label, _, value = line.partition(" ")
        if label != key or not value:
            raise CertificateFormatError(f"line {lineno}: expected '{key} VALUE', got {line!r}")
    if len(header) < 5:
        raise CertificateFormatError(f"missing header key '{HEADER_KEYS[len(header)]}'")
    tag, *values = [line.partition(" ")[2] for line in header]
    if tag != "pepcert/1":
        raise CertificateFormatError(f"unsupported format tag {tag!r}")
    n = number(values[0], 2, "the header")
    if not isinstance(n, int):
        raise CertificateFormatError(f"line 2: N {values[0]!r} is not an integer")
    alpha, r, delta = [number(v, k, "the header") for k, v in enumerate(values[1:], start=3)]
    if n < 3:
        raise CertificateFormatError(f"certificates need N >= 3, got N={n}")
    if delta < 0:
        raise CertificateFormatError(f"header delta {float(delta)!r} is negative")
    if body[:1] != ["d:"]:
        raise CertificateFormatError("line 6: expected the required block 'd:'")
    blocks, i = {}, 0  # body[i] is line 6 + i
    for name, length in (("d", n - 1), ("a", n), ("b", n - 1), ("c", n + 1), ("eps", n + 1)):
        if i == len(body) or body[i] != f"{name}:":
            continue
        stop = i + 1
        while stop < len(body) and not body[stop].endswith(":"):
            stop += 1
        block, what = body[i + 1 : stop], f"block '{name}'"
        blocks[name] = np.array([number(line, 7 + i + k, what)
                                 for k, line in enumerate(block[:length])], dtype=np.float64)
        if len(block) > length:
            raise CertificateFormatError(
                f"line {7 + i + length}: unexpected {block[length]!r} after {what}")
        if len(block) < length:
            found = "the end of the file" if stop == len(body) else repr(body[stop])
            raise CertificateFormatError(f"line {7 + i + len(block)}: expected value "
                                         f"{len(block) + 1} of {length} in {what}, got {found}")
        i = stop
    if i < len(body):
        raise CertificateFormatError(f"line {6 + i}: unexpected {body[i]!r}")
    return CertificateFile(N=n, alpha=float(alpha), r=float(r), delta=float(delta), **blocks)


def parse_outcome(parse, text):
    """Every number parse(text) reads, floats as their bit patterns, or its
    error message."""
    try:
        cf = parse(text)
    except CertificateFormatError as exc:
        return str(exc)
    return ([cf.N, *bits([cf.alpha, cf.r, cf.delta]).tolist()],
            [None if getattr(cf, name) is None else bits(getattr(cf, name)).tolist()
             for name in ("d", "a", "b", "c", "eps")])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.lists(EDITS, min_size=1, max_size=3))
@example(0, [("truncate", 491, None), ("blank", 29, None)])  # eps: one blank line (30)
@example(1, [("blank", 7, None), ("replace", 8, b"x")])  # a blank line 8, then a stray line
@example(2, [("replace", 7, b"+1"), ("replace", 9, b"1.5x")])  # JSON rejects line 8 first
@example(1, [("replace", 1, b"N 5.0"), ("replace", 2, b"alpha +1")])  # N is no integer
def test_parse_matches_a_line_by_line_read(fuzz_inputs, which, edits):
    # the same values or the same error: a corrupt file's error names its
    # first bad line
    data = fuzz_inputs[0][which]
    for edit in edits:
        data = edit_bytes(data, edit)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return  # read_certificate reports the decoding error
    assert parse_outcome(parse_certificate, text) == parse_outcome(line_by_line_parse, text)


def full_parse_read_checked(path):
    """The checked read as a full parse, the reference for read_checked:
    every block parsed, then each stored vector compared with the
    derivation to CROSS_TOL; the derived certificate and the header's
    delta."""
    cf = read_certificate(path)
    with np.errstate(over="ignore", invalid="ignore"):
        cert = derive_full(params_from_file(cf), cf.d)
    for name in ("a", "b", "c", "eps"):
        stored = getattr(cf, name)
        if stored is None:
            continue
        gap = float(np.max(np.abs(stored - getattr(cert, name))))
        if not gap <= CROSS_TOL:
            raise CertificateFormatError(
                f"stored {name} in {path} deviates from recomputed by {gap:.3e}")
    return cert, cf.delta


def payload_bits(cert, header_delta):
    """Every number of a checked read, floats as their bit patterns."""
    params = cert.params
    return ([params.N, *bits([params.alpha, params.r, header_delta]).tolist()],
            [bits(getattr(cert, name)).tolist() for name in ("d", "a", "b", "c", "eps")])


def checked_outcome(read, path):
    try:
        return payload_bits(*read(path))
    except CertificateFormatError as exc:
        return str(exc)


def record_number_reads(monkeypatch) -> list:
    """Every number orjson reads from now on, in the order read: the
    numbers a reader parses, whatever the helpers that call it."""
    import orjson

    numbers, real = [], orjson.loads

    def loads(data):
        value = real(data)
        numbers.extend(value if isinstance(value, list) else [value])
        return value

    monkeypatch.setattr(orjson, "loads", loads)
    return numbers


def header_and_blocks(cf, *names):
    """The numbers of cf's header, then of its blocks `names`, in file order."""
    return [cf.N, cf.alpha, cf.r, cf.delta,
            *[x for name in names for x in getattr(cf, name).tolist()]]


class TestCheckedRead:
    def test_bit_identical_to_a_full_parse(self, small_sweep, tmp_path):
        for n, report in small_sweep.items():
            cf = certificate_file(report.cert)
            d_only = CertificateFile(N=n, alpha=cf.alpha, r=cf.r, delta=cf.delta, d=cf.d)
            for name, payload in (("full", cf), ("d-only", d_only)):
                path = write_certificate(payload, tmp_path / name / f"{n}.txt")
                assert checked_outcome(read_checked, path) == checked_outcome(
                    full_parse_read_checked, path)

    def test_canonical_file_parses_header_and_d_only(self, small_sweep, tmp_path, monkeypatch):
        cf = certificate_file(small_sweep[12].cert)
        path = write_certificate(cf, tmp_path / "c.txt")
        numbers = record_number_reads(monkeypatch)
        cert, header_delta = read_checked(path)
        assert numbers == header_and_blocks(cf, "d")
        assert header_delta == small_sweep[12].cert.delta
        numbers.clear()
        read_certificate(path)
        assert numbers == header_and_blocks(cf, "d", "a", "b", "c", "eps")

    @pytest.mark.parametrize("rewrite", [
        lambda line: f"{Decimal(line):e}",  # the same value in an equal JSON form
        lambda line: repr(float(line) + CROSS_TOL / 10),  # a value moved within the tolerance
    ], ids=["equal-json-form", "within-tolerance"])
    def test_other_block_is_parsed_and_compared(self, small_sweep, tmp_path, monkeypatch,
                                                rewrite):
        lines = full_text(small_sweep).split("\n")
        at = lines.index("a:") + 2
        edited = rewrite(lines[at])
        assert edited != lines[at]
        lines[at] = edited
        text = "\n".join(lines)
        numbers = record_number_reads(monkeypatch)
        assert verify_text(text, tmp_path / "c.txt") == (0, "")
        cf = certificate_file(small_sweep[5].cert)
        cf.a = np.array([float(line) for line in lines[at - 1 : at - 1 + cf.N]])
        assert numbers == header_and_blocks(cf, "d", "a")
        path = tmp_path / "c.txt"
        assert checked_outcome(read_checked, path) == checked_outcome(
            full_parse_read_checked, path)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 1), st.lists(EDITS, min_size=1, max_size=3))
def test_checked_read_of_edited_file_matches_a_full_parse(fuzz_inputs, which, edits):
    # the same values or the same error, but that the header's rate pair is
    # checked before the advisory blocks are read, so a file with a bad rate
    # pair and a malformed advisory block reports the rate pair
    texts, directory = fuzz_inputs
    data = texts[which]
    for edit in edits:
        data = edit_bytes(data, edit)
    path = directory / "checked.txt"
    path.write_bytes(data)
    outcome = checked_outcome(read_checked, path)
    reference = checked_outcome(full_parse_read_checked, path)
    if outcome != reference:
        assert isinstance(reference, str) and isinstance(outcome, str)
        assert outcome.startswith("inconsistent rate parameters: ")


def verify_text(text: str, path) -> tuple[int, str]:
    path.write_bytes(text.encode())
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(path)])
    return code, err.getvalue()


@pytest.mark.parametrize("token", [
    "true", "false", "null", '"1.0"', "[1]", "{}",
    "1,2", "1 2", " 1.0", "",
    "NaN", "Infinity", "1e999",
    "+1", ".5", "1.", "1_0",
    "1:", "a:", "d:", "eps:",
])
@pytest.mark.parametrize("block", ["d", "a"])
def test_line_that_is_not_one_json_number(fuzz_inputs, block, token):
    # the d-only file for d, where a stray value would otherwise exit 3,
    # the full file for a; either way the file is corrupt, and the error
    # names the line. A line ending in a colon is read as a tag line, which
    # cuts the block short.
    texts, directory = fuzz_inputs
    lines = texts[block == "d"].decode().split("\n")
    lines[lines.index(f"{block}:") + 2] = token
    code, err = verify_text("\n".join(lines), directory / "guard.txt")
    assert code == 4
    assert err.startswith("corrupt certificate: ") and f" in block '{block}'" in err
    assert repr(token) in err


@pytest.mark.parametrize("token", ["+10", "1_0", "010", " 10", "10 ", "\u0661\u0660",
                                   "10.0", "1e1"])
def test_n_that_is_not_one_json_integer(small_sweep, tmp_path, token):
    # N is read as the other numbers are and must be a JSON integer: no
    # plus sign, underscore, leading zero, whitespace, non-ASCII digit,
    # point or exponent
    text = render_certificate(certificate_file(small_sweep[10].cert))
    assert verify_text(text, tmp_path / "ok.txt")[0] == 0
    code, err = verify_text(text.replace("\nN 10\n", f"\nN {token}\n"), tmp_path / "n.txt")
    assert code == 4
    assert err.startswith("corrupt certificate: line 2: ") and repr(token) in err


@pytest.mark.parametrize("zero", ["-0", "-0.0"])
def test_negative_zero_d_entry_fails_verification(fuzz_inputs, zero):
    # orjson reads -0 as the integer 0, which becomes +0.0, and -0.0 as
    # -0.0; neither is positive, so the file fails verification, not parsing
    texts, directory = fuzz_inputs
    lines = texts[1].decode().split("\n")
    lines[lines.index("d:") + 2] = zero
    assert verify_text("\n".join(lines), directory / "zero.txt")[0] == 3


@pytest.mark.parametrize("end, at, error", [
    ("\r\n", None, "line 1: carriage return after 'format pepcert/1'"),
    ("\r", None, "line 1: carriage return after 'format pepcert/1'"),
    ("\r", 2, "line 2: carriage return after 'N 10'"),
], ids=["CRLF", "CR", "CR-line-2"])
def test_carriage_return_line_ends_are_corrupt(small_sweep, tmp_path, end, at, error):
    # a file is read with its line ends as they are: "\n" alone ends a line;
    # `end` replaces the end of line `at` alone, or of every line
    error += "; lines end in '\\n' alone"
    text = render_certificate(certificate_file(small_sweep[10].cert))
    assert verify_text(text, tmp_path / "ok.txt") == (0, "")
    lines = text.split("\n")
    broken = (text.replace("\n", end) if at is None
              else "\n".join(lines[:at]) + end + "\n".join(lines[at:]))
    path = tmp_path / "cr.txt"
    assert verify_text(broken, path) == (4, f"corrupt certificate: {error}\n")
    with pytest.raises(CertificateFormatError, match=re.escape(error)):
        read_certificate(path)
