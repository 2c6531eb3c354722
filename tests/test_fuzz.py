"""Fuzz the file readers: any input yields a value or the reader's own
error type (FormatError for data files, ConfigError for configs)."""
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perturbmpm import ConfigError, FormatError, parse_config, read_pgm, \
    read_tensor

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# PMPM headers with small fields, so inputs reach the shape and payload
# checks instead of stopping at the magic.
tensor_files = st.builds(
    lambda version, code, dims, payload: (
        b"PMPM" + struct.pack("<HHI", version, code, len(dims))
        + struct.pack(f"<{len(dims)}Q", *dims) + payload),
    st.sampled_from([0, 1, 2]), st.sampled_from([0, 1, 2, 7]),
    st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2 ** 64 - 1)),
             max_size=4),
    st.binary(max_size=64))

# P5 headers of short tokens, some of them malformed.
pgm_tokens = st.sampled_from([b"2", b"3", b"0", b"255", b"256", b"-1", b"ab",
                              b"2.5", b"1_0", b"#c\n", b""])
pgm_files = st.builds(
    lambda tokens, payload: b"P5\n" + b" ".join(tokens) + b"\n" + payload,
    st.lists(pgm_tokens, max_size=5), st.binary(max_size=16))

config_keys = st.sampled_from(["dims", "labels", "unary", "prob_map",
                               "kernel", "seed", "samples", "backend",
                               "threshold", "iterations", "tol", "epsilon",
                               "delta", "bogus", ""])
config_values = st.lists(st.sampled_from(
    ["1", "2", "0", "-3", "1.5", "nan", "inf", "1e400", "exact", "lattice",
     "x", "18446744073709551616", "a.pgm", "#"]), max_size=3)
config_files = st.lists(st.builds(
    lambda key, values, eq: (key + (" = " if eq else " ") + " ".join(values)),
    config_keys, config_values, st.booleans()), max_size=8).map(
        lambda lines: "\n".join(lines).encode())


@FUZZ
@given(st.one_of(st.binary(max_size=128), tensor_files))
def test_read_tensor_fuzz(tmp_path, data):
    path = tmp_path / "t.pmt"
    path.write_bytes(data)
    try:
        read_tensor(path)
    except FormatError:
        pass


@FUZZ
@given(st.one_of(st.binary(max_size=64), pgm_files))
def test_read_pgm_fuzz(tmp_path, data):
    path = tmp_path / "i.pgm"
    path.write_bytes(data)
    try:
        read_pgm(path)
    except FormatError:
        pass


@FUZZ
@given(st.one_of(st.binary(max_size=128), config_files))
def test_parse_config_fuzz(tmp_path, data):
    path = tmp_path / "run.cfg"
    path.write_bytes(data)
    try:
        parse_config(path)
    except ConfigError:
        pass
