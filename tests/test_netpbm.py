import numpy as np
import pytest

from oracles import traced_peak
from slidebench.errors import FormatError
from slidebench.masks import BinaryMask, read_mask, write_mask
from slidebench.netpbm import read_p5, read_p6, write_p5, write_p6


def test_p5_round_trip(tmp_path, rng):
    gray = rng.integers(0, 256, (13, 7), dtype=np.uint8)
    path = tmp_path / "g.pgm"
    write_p5(path, gray)
    back = read_p5(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, gray)


def test_p6_round_trip(tmp_path, rng):
    rgb = rng.integers(0, 256, (5, 9, 3), dtype=np.uint8)
    path = tmp_path / "c.ppm"
    write_p6(path, rgb)
    assert np.array_equal(read_p6(path), rgb)


def test_p5_header_is_canonical(tmp_path):
    path = tmp_path / "g.pgm"
    write_p5(path, np.zeros((2, 3), dtype=np.uint8))
    assert path.read_bytes().startswith(b"P5\n3 2\n255\n")


def test_read_accepts_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # comment\n 2\n# another\n2   255\n" + bytes(range(4)))
    assert np.array_equal(read_p5(path), np.arange(4, dtype=np.uint8).reshape(2, 2))


def test_read_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P4\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError):
        read_p5(path)


def test_read_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(FormatError):
        read_p5(path)


def test_read_rejects_header_number_too_long_to_convert(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n" + b"9" * 5000 + b" 1\n255\n" + bytes(1))
    with pytest.raises(FormatError, match="malformed netpbm header"):
        read_p5(path)


def test_read_rejects_bad_maxval(tmp_path):
    path = tmp_path / "max.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n" + bytes(2))
    with pytest.raises(FormatError):
        read_p5(path)


def test_p6_rejects_p5_file(tmp_path):
    path = tmp_path / "g.pgm"
    write_p5(path, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(FormatError):
        read_p6(path)


def test_write_p5_rejects_bad_shape(tmp_path):
    with pytest.raises(FormatError):
        write_p5(tmp_path / "x.pgm", np.zeros((2, 2, 3), dtype=np.uint8))


@pytest.mark.parametrize("write, read, shape", [
    (write_p5, read_p5, (700, 1000)),
    (write_p6, read_p6, (700, 1000, 3)),
])
def test_read_holds_one_copy_of_the_raster(tmp_path, rng, write, read, shape):
    raster = rng.integers(0, 256, shape, dtype=np.uint8)
    path = tmp_path / "r.pnm"
    write(path, raster)
    back, peak = traced_peak(lambda: read(path))
    assert np.array_equal(back, raster)
    assert peak <= 1.1 * raster.nbytes, peak / raster.nbytes


@pytest.mark.parametrize("write, magic, shape", [
    (write_p5, b"P5", (700, 1000)),
    (write_p6, b"P6", (700, 1000, 3)),
])
def test_write_holds_no_copy_of_the_raster(tmp_path, rng, write, magic, shape):
    raster = rng.integers(0, 256, shape, dtype=np.uint8)
    path = tmp_path / "r.pnm"
    _, peak = traced_peak(lambda: write(path, raster))
    assert path.read_bytes() == magic + b"\n1000 700\n255\n" + raster.tobytes()
    assert peak <= 0.1 * raster.nbytes, peak / raster.nbytes


def test_write_mask_holds_one_payload(tmp_path, rng):
    data = rng.random((700, 1000)) < 0.5
    path = tmp_path / "m.pgm"
    _, peak = traced_peak(lambda: write_mask(BinaryMask("s", 0, data), path))
    assert path.read_bytes() == b"P5\n1000 700\n255\n" + (data.astype(np.uint8) * 255).tobytes()
    assert np.array_equal(read_mask(path).data, data)
    assert peak <= 1.1 * data.nbytes, peak / data.nbytes


def test_read_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(5))
    with pytest.raises(FormatError, match="raster payload is 5 bytes, expected 4"):
        read_p5(path)


def test_read_accepts_comment_longer_than_64k(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# " + b"x" * (70 * 1024) + b"\n2 2\n255\n" + bytes(range(4)))
    assert np.array_equal(read_p5(path), np.arange(4, dtype=np.uint8).reshape(2, 2))


def test_read_rejects_huge_header_before_allocating(tmp_path):
    path = tmp_path / "huge.ppm"
    path.write_bytes(b"P6\n100000 100000\n255\n" + bytes(12))

    def attempt():
        with pytest.raises(FormatError, match="raster payload is 12 bytes, expected 30000000000"):
            read_p6(path)

    _, peak = traced_peak(attempt)
    assert peak < 1 << 20, peak
