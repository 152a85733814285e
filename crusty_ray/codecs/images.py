"""Deterministic image codecs for the image+caption payload path.

The input contract (BASELINE.json ``input_hint``) is a table
``images(image_id, bytes, w, h, fmt, caption, phash)`` whose decode stage must
satisfy decoded-pixel allclose (PSNR ≥ 40 dB for lossy formats). This container
ships **no image libraries** (no PIL/cv2/libjpeg), so:

- ``png`` is a REAL minimal PNG codec (8-bit RGB, filter type 0, zlib) — the
  bytes are valid PNG files any external tool can open; decode is exact
  (lossless → ``allclose`` exact).
- ``jpeg`` / ``webp`` are deterministic STAND-IN lossy codecs (documented, not
  hidden): 6-bit uniform quantization per channel + zlib. Uniform 6-bit
  quantization has max error 2 per channel → PSNR ≈ 46.9 dB, satisfying the
  ≥ 40 dB invariant while exercising a true lossy round-trip. Swapping in
  libjpeg later only changes `_encode_lossy`/`_decode_lossy`.

All functions are numpy-vectorized per image; the Ray-side plumbing (schema,
binary columns, actor-pool decode stages) treats these as opaque codecs.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_LOSSY_MAGIC = b"CRLS"  # crusty_ray lossy stand-in container


def _png_chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data)) + tag + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def encode_png(pixels: np.ndarray) -> bytes:
    """8-bit RGB HxWx3 → PNG bytes (color type 2, filter 0 every scanline)."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    raw = np.zeros((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 1:] = pixels.reshape(h, w * 3)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(raw.tobytes(), 6))
        + _png_chunk(b"IEND", b"")
    )


def decode_png(data: bytes) -> np.ndarray:
    """Decode the PNG subset `encode_png` emits (8-bit RGB, filter 0)."""
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos, w, h, idat = 8, 0, 0, b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + length]
        if tag == b"IHDR":
            w, h, depth, ctype = struct.unpack(">IIBB", body[:10])
            if depth != 8 or ctype != 2:
                raise ValueError("unsupported PNG subset")
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
        pos += 12 + length
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8).reshape(h, 1 + w * 3)
    if not (raw[:, 0] == 0).all():
        raise ValueError("unsupported PNG filter")
    return raw[:, 1:].reshape(h, w, 3).copy()


def _encode_lossy(pixels: np.ndarray, fmt: str) -> bytes:
    h, w, _ = pixels.shape
    q = (pixels.astype(np.uint16) >> 2).astype(np.uint8)  # 6-bit quantization
    header = _LOSSY_MAGIC + fmt[:4].ljust(4).encode() + struct.pack(">II", w, h)
    return header + zlib.compress(q.tobytes(), 6)


def _decode_lossy(data: bytes) -> np.ndarray:
    if data[:4] != _LOSSY_MAGIC:
        raise ValueError("not a lossy stand-in payload")
    w, h = struct.unpack(">II", data[8:16])
    q = np.frombuffer(zlib.decompress(data[16:]), dtype=np.uint8).reshape(h, w, 3)
    # dequantize to bin centers: v*4 + 2, matching uniform-quantizer reconstruction
    return np.minimum(q.astype(np.uint16) * 4 + 2, 255).astype(np.uint8)


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return encode_png(pixels)
    if fmt in ("jpeg", "webp"):
        return _encode_lossy(pixels, fmt)
    raise ValueError(f"unknown format {fmt!r}")


def decode_image(data: bytes, fmt: str) -> np.ndarray:
    """bytes → HxWx3 uint8 pixels. A corrupt, truncated or empty payload
    raises ``ValueError``; a format with no codec here raises
    ``NotImplementedError``."""
    if fmt == "png":
        decode = decode_png
    elif fmt in ("jpeg", "webp"):
        decode = _decode_lossy
    else:
        raise NotImplementedError(
            f"format {fmt!r} needs an external codec not present in this environment"
        )
    if not data:
        raise ValueError(f"empty {fmt} payload")
    try:
        pixels = decode(data)
    except (struct.error, zlib.error) as e:
        raise ValueError(f"corrupt {fmt} payload: {e}") from e
    if pixels.size == 0:
        raise ValueError(f"{fmt} payload has no pixels")
    return pixels


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0 ** 2 / mse))


def phash64(pixels: np.ndarray, grid: int = 8) -> int:
    """64-bit perceptual hash: grayscale → 8×8 block means → above-median bits.

    Deterministic and resolution-independent enough that the lossy round trip
    preserves it (used as the cheap near-dup key for image rows).
    """
    gray = pixels.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    h, w = gray.shape
    ys = (np.arange(grid + 1) * h) // grid
    xs = (np.arange(grid + 1) * w) // grid
    cells = np.empty((grid, grid))
    for i in range(grid):
        for j in range(grid):
            cells[i, j] = gray[ys[i]:ys[i + 1], xs[j]:xs[j + 1]].mean()
    bits = (cells > np.median(cells)).ravel()
    out = 0
    for bit in bits:
        out = (out << 1) | int(bit)
    # interpret as signed int64 for Arrow int64 columns
    return out - (1 << 64) if out >= (1 << 63) else out
