import struct
import tracemalloc

import numpy as np
import pytest

from perturbmpm import FormatError, read_pgm, read_tensor, write_pgm, \
    write_tensor
from perturbmpm.tensorio import entropy_heatmap_image, write_manifest


def test_tensor_round_trip_f64(tmp_path):
    path = tmp_path / "t.pmt"
    arr = np.random.default_rng(0).random((6, 2))
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(arr, back)
    # bitwise: writing the read-back array reproduces the file
    path2 = tmp_path / "t2.pmt"
    write_tensor(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_tensor_round_trip_u32_and_rank3(tmp_path):
    path = tmp_path / "t.pmt"
    arr = np.arange(24, dtype=np.uint32).reshape(2, 3, 4)
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.uint32
    assert back.shape == (2, 3, 4)
    assert np.array_equal(arr, back)


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.pmt"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensor_truncated_inside_its_dims(tmp_path):
    path = tmp_path / "t.pmt"
    write_tensor(path, np.zeros((2, 3)))
    path.write_bytes(path.read_bytes()[:20])  # rank 2, one of two dims
    with pytest.raises(FormatError, match="truncated tensor header"):
        read_tensor(path)


def test_tensor_truncated_payload(tmp_path):
    path = tmp_path / "t.pmt"
    write_tensor(path, np.zeros((4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensor_of_rank_65_is_a_format_error(tmp_path):
    path = tmp_path / "t.pmt"
    # numpy arrays hold at most 64 dims: the header reads, the reshape fails
    path.write_bytes(b"PMPM" + struct.pack("<HHI65Q", 1, 0, 65, *[1] * 65)
                     + bytes(8))
    with pytest.raises(FormatError, match="unsupported tensor shape"):
        read_tensor(path)


def test_tensor_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(FormatError):
        write_tensor(tmp_path / "t.pmt", np.zeros(3, dtype=np.complex128))


def test_pgm_round_trip(tmp_path):
    path = tmp_path / "img.pgm"
    img = np.random.default_rng(1).integers(0, 256, (5, 7)).astype(np.uint8)
    write_pgm(path, img)
    back, max_val = read_pgm(path)
    assert max_val == 255
    assert np.array_equal(img, back)


def test_pgm_all_zero_round_trip(tmp_path):
    path = tmp_path / "z.pgm"
    write_pgm(path, np.zeros((2, 2)))
    back, _ = read_pgm(path)
    assert np.array_equal(back, np.zeros((2, 2)))


def test_pgm_reads_any_max_value_from_1_to_255(tmp_path):
    path = tmp_path / "m.pgm"
    for max_val in (1, 15, 255):
        path.write_bytes(b"P5\n2 1\n%d\n" % max_val + bytes([0, max_val]))
        img, got = read_pgm(path)
        assert got == max_val and img.tolist() == [[0, max_val]]
    for max_val in (0, 256):
        path.write_bytes(b"P5\n2 1\n%d\n" % max_val + bytes(2))
        with pytest.raises(FormatError, match="unsupported max value"):
            read_pgm(path)


def test_pgm_comment_handling(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes(4))
    img, max_val = read_pgm(path)
    assert img.shape == (2, 2)


def test_pgm_write_rejects_a_3d_image(tmp_path):
    path = tmp_path / "i.pgm"
    with pytest.raises(FormatError, match="PGM image must be 2-d"):
        write_pgm(path, np.zeros((2, 2, 3)))
    assert not path.exists()


def test_pgm_rejects_ascii_variant(tmp_path):
    path = tmp_path / "p2.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(FormatError) as exc:
        read_pgm(path)
    assert "P2" in str(exc.value)


def test_pgm_rejects_truncation(tmp_path):
    path = tmp_path / "trunc.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(FormatError):
        read_pgm(path)


def test_entropy_heatmap_scaling():
    # uniform 4-label marginals are maximally uncertain: all pixels 255
    entropy = np.full(4, 2.0)
    img = entropy_heatmap_image(entropy, 4, (2, 2))
    assert np.all(img == 255)
    assert np.all(entropy_heatmap_image(np.zeros(4), 4, (2, 2)) == 0)


def test_manifest_deterministic(tmp_path):
    out = tmp_path / "x.pmt"
    write_manifest(out, "sample", "seed = 1\nsamples = 2", "1.0.0")
    first = (tmp_path / "x.pmt.manifest.txt").read_text()
    assert "seed = 1" in first
    assert "sample" in first
    write_manifest(out, "sample", "seed = 1\nsamples = 2", "1.0.0")
    assert (tmp_path / "x.pmt.manifest.txt").read_text() == first


def test_tensor_rejects_integers_outside_u32(tmp_path):
    for values in ([-1], [2 ** 32 + 3], [0, 2 ** 32]):
        with pytest.raises(FormatError):
            write_tensor(tmp_path / "t.pmt", np.array(values, dtype=np.int64))
    write_tensor(tmp_path / "t.pmt", np.array([0, 2 ** 32 - 1]))
    assert read_tensor(tmp_path / "t.pmt").tolist() == [0, 2 ** 32 - 1]


def test_pgm_rejects_non_integer_header_fields(tmp_path):
    path = tmp_path / "bad.pgm"
    for header in (b"P5\nab 2\n255\n", b"P5\n-2 -1\n255\n",
                   b"P5\n2 2\n2.5\n", b"P5\n+2 2\n255\n"):
        path.write_bytes(header + bytes(4))
        with pytest.raises(FormatError):
            read_pgm(path)


def test_tensor_write_does_not_copy_the_payload(tmp_path):
    arr = np.random.default_rng(0).random(1 << 21)  # 16 MiB of float64
    tracemalloc.start()
    try:
        write_tensor(tmp_path / "t.pmt", arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert np.array_equal(read_tensor(tmp_path / "t.pmt"), arr)


@pytest.mark.parametrize("value", [np.float64(2.5), np.uint32(7)])
def test_tensor_round_trip_0d(tmp_path, value):
    path = tmp_path / "t.pmt"
    write_tensor(path, np.array(value))
    back = read_tensor(path)
    assert back.shape == ()
    assert back.dtype == np.array(value).dtype
    assert back == value
