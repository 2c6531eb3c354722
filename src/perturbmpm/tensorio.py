"""File codecs: the PMPM binary tensor format, binary PGM images, CSV
exports, and sidecar manifests.

Tensor layout (all little-endian):
    magic   4 bytes  b"PMPM"
    version u16      currently 1
    dtype   u16      0 = float64, 1 = uint32
    rank    u32
    dims    rank x u64
    payload row-major (C order) array data

Round trips are bitwise exact.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FormatError

MAGIC = b"PMPM"
VERSION = 1
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<u4")}
_DTYPE_CODES = {np.dtype("<f8"): 0, np.dtype("<u4"): 1}
_U32_MAX = 2 ** 32 - 1


def write_tensor(path, array: np.ndarray) -> None:
    """Write an array as a PMPM tensor; dtype must be float64 or uint32."""
    arr = np.asarray(array, order="C")  # keeps a 0-d array 0-d
    if arr.dtype == np.float64:
        arr = arr.astype("<f8", copy=False)
    elif arr.dtype in (np.uint32, np.int64, np.int32):
        if arr.size and (arr.min() < 0 or arr.max() > _U32_MAX):
            raise FormatError(
                f"integer values must lie in [0, {_U32_MAX}] to be stored "
                f"as uint32, got [{arr.min()}, {arr.max()}]")
        arr = arr.astype("<u4", copy=False)
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise FormatError(f"unsupported tensor dtype {array.dtype}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HHI", VERSION, code, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr)  # the contiguous array's own buffer, not a copy


def read_tensor(path) -> np.ndarray:
    """Read a PMPM tensor file."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != MAGIC:
        raise FormatError(f"{path}: not a PMPM tensor (bad magic)")
    version, code, rank = struct.unpack_from("<HHI", data, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported tensor version {version}")
    if code not in _DTYPES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    header_end = 12 + 8 * rank
    if len(data) < header_end:
        raise FormatError(f"{path}: truncated tensor header")
    dims = struct.unpack_from(f"<{rank}Q", data, 12)
    dtype = _DTYPES[code]
    expected = math.prod(dims) * dtype.itemsize
    payload = data[header_end:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}")
    try:
        return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    except ValueError as exc:  # too many dimensions, or one too large
        raise FormatError(f"{path}: unsupported tensor shape: {exc}") from exc


# -- PGM (binary, 8-bit grayscale) ----------------------------------------

def write_pgm(path, image: np.ndarray) -> None:
    """Write an 8-bit grayscale image, max value 255, in the binary (P5)
    PGM variant."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise FormatError("PGM image must be 2-d")
    data = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(data)


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary (P5) PGM image; returns (image, max_val)."""
    data = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4 and pos < len(data):
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if len(fields) < 4:
        raise FormatError(f"{path}: truncated PGM header")
    if fields[0] != b"P5":
        raise FormatError(
            f"{path}: unsupported PGM variant {fields[0].decode(errors='replace')} "
            "(only binary P5 is supported)")
    if not all(f.isdigit() for f in fields[1:4]):
        raise FormatError(
            f"{path}: PGM width, height and max value must be non-negative "
            "integers")
    width, height, max_val = (int(f) for f in fields[1:4])
    if not 0 < max_val <= 255:
        raise FormatError(f"{path}: unsupported max value {max_val}")
    pos += 1  # single whitespace after max_val
    payload = data[pos:pos + width * height]
    if len(payload) != width * height:
        raise FormatError(f"{path}: truncated PGM payload")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return img.copy(), max_val


def entropy_heatmap_image(entropy: np.ndarray, n_labels: int,
                          shape: tuple[int, int]) -> np.ndarray:
    """Rescale an entropy map from [0, log2 m] bits to 8-bit pixels."""
    top = np.log2(n_labels)
    scaled = np.clip(np.asarray(entropy) / top, 0.0, 1.0) * 255.0
    return np.rint(scaled).reshape(shape)


# -- CSV exports ----------------------------------------------------------

_CSV_BLOCK = 1 << 14  # values formatted and written at a time


def _write_csv(path, header, record, values, keys=()) -> None:
    """Write `header`, then one `record` per row of `values`.

    `record` is the text of one row of `values` (float64, rows x k) as a
    list of pieces: a str is written as it is, and an int j is column j,
    where the key columns `keys` (sliceable sequences of ints, one entry a
    row) come first, written by str, and then the k value columns,
    written by repr.  A marginals record of m labels is the 4 m pieces
    `0, ",l,", l + 1, "\r\n"` for l < m: the rows `i,l,{q[i, l]!r}`.  The
    bytes are those of csv.writer's default dialect: comma-separated, CRLF
    line ends, and no field here needs quoting.

    Rows go `_CSV_BLOCK` values at a time.  A block is one list of pieces,
    records end to end, whose fixed pieces are laid down once; each column
    is converted whole and slice-assigned to its pieces, so no per-row
    string is built, and one join and one write finish the block.
    """
    values = np.asarray(values, dtype=np.float64)
    rows, k = values.shape
    step = max(1, _CSV_BLOCK // k)
    width = len(record)
    columns = [(s, j) for s, j in enumerate(record) if isinstance(j, int)]
    parts = [p if isinstance(p, str) else "" for p in record] \
        * min(step, rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, step):
            block = values[start:start + step]
            if len(block) < step:  # the last block: drop the records past it
                del parts[len(block) * width:]
            text = [list(map(str, key[start:start + step])) for key in keys]
            text += [list(map(repr, column)) for column in block.T.tolist()]
            for s, j in columns:
                parts[s::width] = text[j]
            fh.write("".join(parts))


def write_marginals_csv(path, marginals: np.ndarray) -> None:
    """One `voxel,label,probability` row per entry of an (N, m) field."""
    q = np.asarray(marginals)
    record = [piece for l in range(q.shape[1])
              for piece in (0, f",{l},", l + 1, "\r\n")]
    _write_csv(path, ["voxel", "label", "probability"], record, q,
               keys=(range(len(q)),))


def write_uncertainty_csv(path, entropy: np.ndarray) -> None:
    """One `voxel,entropy_bits` row per voxel of an (N,) map."""
    h = np.asarray(entropy)
    _write_csv(path, ["voxel", "entropy_bits"], [0, ",", 1, "\r\n"],
               h.reshape(len(h), 1), keys=(range(len(h)),))


def write_error_curve_csv(path, curve) -> None:
    rows = curve.rows
    _write_csv(path, ["n_voxels", "n_samples", "sampled_error",
                      "mean_field_error"], [0, ",", 1, ",", 2, ",", 3, "\r\n"],
               np.reshape([(r.sampled_error, r.mean_field_error)
                           for r in rows], (len(rows), 2)),
               keys=([r.n_voxels for r in rows], [r.n_samples for r in rows]))


def write_biomarker_csv(path, report) -> None:
    fields = ["truth_v_pre", "truth_v_post", "truth_eor", "v_pre", "v_post",
              "eor", "v_pre_corrected", "v_post_corrected", "eor_corrected",
              "rtv_error", "rtv_error_corrected", "eor_error",
              "eor_error_corrected"]
    record = [piece for j in range(len(fields)) for piece in (j, ",")]
    record[-1] = "\r\n"
    _write_csv(path, fields, record, [[getattr(report, f) for f in fields]])


# -- manifests ------------------------------------------------------------

def write_manifest(output_path, command: str, config_text: str) -> None:
    """Sidecar text manifest for an output artifact and the package version
    (no timestamps, so identical runs produce identical manifests)."""
    manifest = Path(str(output_path) + ".manifest.txt")
    lines = [f"artifact-version: {__version__}", f"command: {command}",
             "config:"]
    lines += ["  " + line for line in config_text.splitlines()]
    manifest.write_text("\n".join(lines) + "\n")
