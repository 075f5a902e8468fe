import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitquant import (
    DimensionOverflowError,
    MalformedHeaderError,
    NonFiniteValueError,
    SyntheticSpec,
    as_float_matrix,
    as_float_vector,
    generate,
    load_tensor,
    save_tensor,
)


# --- validation -----------------------------------------------------------


def test_as_float_vector_accepts_lists_and_casts():
    v = as_float_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("bad", [[], [[1.0, 2.0]], [np.nan], [np.inf], [1.0, -np.inf]])
def test_as_float_vector_rejects(bad):
    with pytest.raises(ValueError):
        as_float_vector(bad)


def test_as_float_vector_rejection_messages():
    for bad in ([np.nan], [1.0, np.inf], [-np.inf]):
        with pytest.raises(ValueError, match="vector entries must be finite"):
            as_float_vector(bad)
    with pytest.raises(ValueError, match=r"expected a 1-D vector, got shape \(1, 2\)"):
        as_float_vector([[1.0, 2.0]])
    with pytest.raises(ValueError, match="vector must hold at least one element"):
        as_float_vector([])


@pytest.mark.parametrize("bad", [[1.0, 2.0], [[np.nan]], np.empty((0, 3))])
def test_as_float_matrix_rejects(bad):
    with pytest.raises(ValueError):
        as_float_matrix(bad)


# --- synthetic specs ------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec("cauchy", 10, 0)
    with pytest.raises(ValueError):
        SyntheticSpec("normal", 0, 0)
    with pytest.raises(ValueError):
        SyntheticSpec("normal", 10, 0, (1.0,))
    with pytest.raises(ValueError):
        SyntheticSpec("laplace", 10, 0, (0.0,))
    with pytest.raises(ValueError):
        SyntheticSpec("uniform", 10, 0, (2.0, 2.0))
    with pytest.raises(ValueError):
        SyntheticSpec("lognormal", 10, 0, (0.0, -1.0))
    with pytest.raises(ValueError):
        SyntheticSpec("laplace", 10, 0, (np.inf,))


def test_spec_label():
    assert SyntheticSpec("normal", 5, 0).label() == "normal"
    assert SyntheticSpec("laplace", 5, 0, (1.0,)).label() == "laplace(1)"
    assert SyntheticSpec("uniform", 5, 0, (-1.5, 2.0)).label() == "uniform(-1.5,2)"


def test_generate_is_pure():
    spec = SyntheticSpec("laplace", 1000, 3, (2.0,))
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a, b)
    c = generate(SyntheticSpec("laplace", 1000, 4, (2.0,)))
    assert not np.array_equal(a, c)


def test_generate_uniform_bounds():
    x = generate(SyntheticSpec("uniform", 50_000, 1, (-3.0, 7.0)))
    assert np.all(x > -3.0)
    assert np.all(x < 7.0)
    assert abs(float(np.mean(x)) - 2.0) < 0.1


def test_generate_laplace_moments():
    x = generate(SyntheticSpec("laplace", 200_000, 2, (1.0,)))
    assert abs(float(np.mean(np.abs(x))) - 1.0) < 0.01
    assert abs(float(np.mean(x))) < 0.02


def test_generate_lognormal_has_both_signs():
    x = generate(SyntheticSpec("lognormal", 1000, 5, (0.0, 0.5)))
    assert np.any(x > 0)
    assert np.any(x < 0)
    assert np.all(x != 0)


# --- FQT format -----------------------------------------------------------


@settings(max_examples=60)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=64,
    )
)
def test_fqt_vector_round_trip_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("fqt") / "v.fqt"
    save_tensor(values, path)
    back = load_tensor(path)
    assert np.array_equal(back, np.asarray(values, dtype=np.float32).astype(np.float64))


def test_fqt_matrix_round_trip(tmp_path):
    m = np.arange(12, dtype=np.float64).reshape(3, 4) / 8.0
    path = tmp_path / "m.fqt"
    save_tensor(m, path)
    back = load_tensor(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back, m)


def test_fqt_save_load_is_byte_stable(tmp_path):
    a = tmp_path / "a.fqt"
    b = tmp_path / "b.fqt"
    save_tensor([0.1, -2.5, 3.25], a)
    save_tensor(load_tensor(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_fqt_format_override(tmp_path):
    path = tmp_path / "weights.bin"
    save_tensor([1.0, 2.0], path, fmt="fqt")
    assert np.array_equal(load_tensor(path, fmt="fqt"), [1.0, 2.0])
    with pytest.raises(ValueError):
        load_tensor(path)  # no extension to infer from


def _fqt_blob(rank, dims, payload):
    head = struct.pack("<4sI", b"FQT1", rank)
    head += b"".join(struct.pack("<Q", d) for d in dims)
    return head + payload


def test_fqt_malformed_headers(tmp_path):
    path = tmp_path / "bad.fqt"

    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(MalformedHeaderError):
        load_tensor(path)

    path.write_bytes(_fqt_blob(3, (1, 1, 1), bytes(4)))
    with pytest.raises(MalformedHeaderError):
        load_tensor(path)

    path.write_bytes(_fqt_blob(1, (0,), b""))
    with pytest.raises(MalformedHeaderError):
        load_tensor(path)

    path.write_bytes(struct.pack("<4sI", b"FQT1", 2) + struct.pack("<Q", 4))
    with pytest.raises(MalformedHeaderError):
        load_tensor(path)  # dimension list cut short

    path.write_bytes(_fqt_blob(1, (3,), bytes(8)))
    with pytest.raises(DimensionOverflowError):
        load_tensor(path)  # payload shorter than declared

    path.write_bytes(_fqt_blob(1, (1 << 50,), bytes(16)))
    with pytest.raises(DimensionOverflowError):
        load_tensor(path)  # absurd element count

    path.write_bytes(_fqt_blob(1, (1,), bytes(6)))
    with pytest.raises(MalformedHeaderError):
        load_tensor(path)  # trailing bytes


def test_fqt_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "inf.fqt"
    payload = struct.pack("<2f", 1.0, float("inf"))
    path.write_bytes(_fqt_blob(1, (2,), payload))
    with pytest.raises(NonFiniteValueError):
        load_tensor(path)


def test_save_rejects_non_finite_and_high_rank(tmp_path):
    with pytest.raises(ValueError):
        save_tensor([np.nan], tmp_path / "x.fqt")
    with pytest.raises(ValueError):
        save_tensor(np.zeros((2, 2, 2)), tmp_path / "x.fqt")


def test_fqt_save_rejects_values_beyond_float32_range(tmp_path):
    path = tmp_path / "x.fqt"
    with pytest.raises(ValueError, match="float32 range"):
        save_tensor([1.0, 1e39], path)
    assert not path.exists()
    # The largest float32 and values rounding to it, to a subnormal or to 0
    # are written.
    top = float(np.finfo(np.float32).max)
    values = [top, -top * (1 + 2.0**-26), 1e-40, 1e-46]
    save_tensor(values, path)
    assert np.array_equal(load_tensor(path), np.asarray(values, dtype=np.float32))


# --- CSV format -----------------------------------------------------------


@settings(max_examples=60)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=32,
    )
)
def test_csv_round_trip_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "v.csv"
    save_tensor(values, path)
    assert np.array_equal(load_tensor(path), np.asarray(values, dtype=np.float64))


def test_csv_accepts_newline_separated(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1.5\n2.5\n-3\n")
    assert np.array_equal(load_tensor(path), [1.5, 2.5, -3.0])


def test_csv_rejects_matrix(tmp_path):
    with pytest.raises(ValueError):
        save_tensor(np.ones((2, 2)), tmp_path / "m.csv")


def test_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(MalformedHeaderError):
        load_tensor(path)
    path.write_text("1.0,zebra,3.0")
    with pytest.raises(MalformedHeaderError):
        load_tensor(path)
    path.write_text("1.0,nan")
    with pytest.raises(NonFiniteValueError):
        load_tensor(path)
    path.write_bytes(b"\xff\xfe1\x00,\x002\x00")
    with pytest.raises(MalformedHeaderError, match="does not decode"):
        load_tensor(path)


def test_unknown_format_token(tmp_path):
    with pytest.raises(ValueError):
        save_tensor([1.0], tmp_path / "x.dat", fmt="hdf5")
