"""Image codec + payload invariant tests (input_hint: PSNR ≥ 40 dB, caption equality)."""

import struct
import zlib

import numpy as np
import pytest

from crusty_ray.codecs.images import (
    decode_image, encode_image, phash64, psnr,
)
from crusty_ray.core.hashing import stable_rng


def _pixels(seed=0, w=32, h=24):
    return stable_rng("px", seed).integers(0, 256, (h, w, 3)).astype(np.uint8)


class TestPng:
    def test_lossless_roundtrip(self):
        px = _pixels()
        out = decode_image(encode_image(px, "png"), "png")
        assert np.array_equal(px, out)

    def test_valid_png_signature(self):
        data = encode_image(_pixels(), "png")
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        assert b"IHDR" in data[:32] and data[-8:-4] == b"IEND"


class TestLossy:
    def test_psnr_at_least_40db(self):
        for fmt in ("jpeg", "webp"):
            for seed in range(5):
                px = _pixels(seed)
                out = decode_image(encode_image(px, fmt), fmt)
                assert psnr(px, out) >= 40.0, (fmt, seed)

    def test_deterministic(self):
        px = _pixels(3)
        assert encode_image(px, "jpeg") == encode_image(px, "jpeg")

    def test_shape_preserved(self):
        px = _pixels(1, w=17, h=9)
        assert decode_image(encode_image(px, "webp"), "webp").shape == (9, 17, 3)


def _chunk(tag, body):
    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body)))


_SIG = b"\x89PNG\r\n\x1a\n"
_IHDR = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
_LOSSY = encode_image(_pixels(w=4, h=4), "jpeg")


class TestCorruptPayloads:
    """Bytes from outside the program fail as ValueError, never as an
    assert (stripped by ``python -O``) or a bare struct/zlib error."""

    @pytest.mark.parametrize("fmt,data", [
        ("png", b"\xde\xad\xbe\xef" + encode_image(_pixels(), "png")[4:]),
        ("png", _SIG + struct.pack(">I", 13) + b"IHDR" + _IHDR[:5]),
        ("png", _SIG + _chunk(b"IHDR", _IHDR) + _chunk(b"IDAT", b"not zlib")
         + _chunk(b"IEND", b"")),
        ("png", _SIG + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 6,
                                                   0, 0, 0))),
        ("png", _SIG + _chunk(b"IHDR", struct.pack(">IIBBBBB", 0, 0, 8, 2,
                                                   0, 0, 0))
         + _chunk(b"IDAT", zlib.compress(b"")) + _chunk(b"IEND", b"")),
        ("png", b""),
        ("jpeg", b"XXXX" + _LOSSY[4:]),
        ("webp", _LOSSY[:11]),
    ], ids=["bad_signature", "truncated_ihdr", "bad_zlib",
            "unsupported_color_type", "zero_size", "empty_payload",
            "bad_lossy_magic", "truncated_lossy_header"])
    def test_raises_value_error(self, fmt, data):
        with pytest.raises(ValueError):
            decode_image(data, fmt)

    def test_unknown_format_is_not_implemented(self):
        with pytest.raises(NotImplementedError):
            decode_image(b"GIF89a", "gif")


class TestPhash:
    def test_stable_and_lossy_invariant(self):
        px = _pixels(7, w=40, h=40)
        h1 = phash64(px)
        assert h1 == phash64(px)
        lossy = decode_image(encode_image(px, "jpeg"), "jpeg")
        # hamming distance between orig and lossy-roundtrip phash is tiny
        d = bin((h1 ^ phash64(lossy)) & ((1 << 64) - 1)).count("1")
        assert d <= 4

    def test_int64_range(self):
        h = phash64(_pixels(9))
        assert -(1 << 63) <= h < (1 << 63)

    def test_different_images_differ(self):
        assert phash64(_pixels(1)) != phash64(_pixels(2))


class TestPsnr:
    def test_identical_inf(self):
        px = _pixels()
        assert psnr(px, px) == float("inf")

    def test_known_value(self):
        a = np.zeros((8, 8, 3), np.uint8)
        b = a + 2  # mse=4 → 10*log10(255^2/4) ≈ 42.1
        assert abs(psnr(a, b) - 42.1) < 0.1
