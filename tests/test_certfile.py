import math
import os

import numpy as np
import pytest

from pepcert import (
    CertificateFile,
    CertificateFormatError,
    certificate_file,
    default_path,
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

    def test_wrong_vector_length(self):
        cf = tricky_file()
        with pytest.raises(CertificateFormatError):
            CertificateFile(N=4, alpha=cf.alpha, r=cf.r, delta=0.0, d=np.ones(7))

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
