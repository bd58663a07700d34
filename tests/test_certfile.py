import contextlib
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
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
    render_certificate,
    solve_rate_params,
    write_certificate,
)


def tricky_file():
    params = solve_rate_params(4)
    return CertificateFile(
        N=4, alpha=params.alpha, r=params.r, delta=1e-300,
        d=np.array([math.pi, 1 / 3, 0.1 + 0.2]),
    )


def full_text(small_sweep):
    """A canonical file with every block, for N=5."""
    return render_certificate(certificate_file(small_sweep[5].cert))


class TestRoundTrip:
    def test_bit_identical(self):
        cf = tricky_file()
        text = render_certificate(cf)
        back = parse_certificate(text)
        assert render_certificate(back) == text
        np.testing.assert_array_equal(back.d, cf.d)
        assert back.alpha == cf.alpha
        assert back.r == cf.r
        assert back.delta == cf.delta

    def test_full_payload_roundtrip(self, small_sweep, tmp_path):
        cf = certificate_file(small_sweep[7].cert)
        path = write_certificate(cf, default_path(tmp_path, cf.N))
        back = read_certificate(path)
        for name in ("d", "a", "b", "c", "eps"):
            np.testing.assert_array_equal(getattr(back, name), getattr(cf, name))
        assert render_certificate(back) == render_certificate(cf)

    def test_render_matches_per_element_form(self, small_sweep):
        # the reference rendering: one repr(float(x)) line per entry
        cf = certificate_file(small_sweep[20].cert)
        lines = ["format pepcert/1", f"N {cf.N}"]
        lines += [f"{key} {getattr(cf, key)!r}" for key in ("alpha", "r", "delta")]
        for name in ("d", "a", "b", "c", "eps"):
            lines.append(f"{name}:")
            lines.extend(repr(float(x)) for x in getattr(cf, name))
        expect = "\n".join(lines) + "\n"
        assert render_certificate(cf).encode() == expect.encode()

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

    def test_blocks_out_of_order(self, small_sweep):
        text = full_text(small_sweep)
        head, rest = text.split("a:\n")
        a_block, b_rest = rest.split("b:\n")
        b_block, tail = b_rest.split("c:\n")
        swapped = f"{head}b:\n{b_block}a:\n{a_block}c:\n{tail}"
        with pytest.raises(CertificateFormatError):
            parse_certificate(swapped)
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


class TestAtomicWrite:
    def test_failed_render_keeps_old_file(self, tmp_path, monkeypatch):
        import pepcert.certfile as certfile_mod

        path = write_certificate(tricky_file(), path=tmp_path / "c.txt")
        before = open(path, "rb").read()

        def broken(cf):
            raise RuntimeError("render failed")

        monkeypatch.setattr(certfile_mod, "render_certificate", broken)
        with pytest.raises(RuntimeError):
            write_certificate(tricky_file(), path=path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["c.txt"]

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = write_certificate(tricky_file(), path=tmp_path / "c.txt")
        before = open(path, "rb").read()
        cf = tricky_file()
        cf.delta = 0.5

        def broken(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", broken)
        with pytest.raises(OSError):
            write_certificate(cf, path=path)
        monkeypatch.undo()
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["c.txt"]
        write_certificate(cf, path=path)
        assert read_certificate(path).delta == 0.5
        assert os.listdir(tmp_path) == ["c.txt"]


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
    """The canonical N=5 file with every block and with d only, and a
    directory for the edited copies."""
    cf = certificate_file(small_sweep[5].cert)
    d_only = CertificateFile(N=cf.N, alpha=cf.alpha, r=cf.r, delta=cf.delta, d=cf.d)
    texts = [render_certificate(f).encode() for f in (cf, d_only)]
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
