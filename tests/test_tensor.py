import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitquant import (
    ConditionCurve,
    DimensionOverflowError,
    LloydQuantizer,
    MalformedHeaderError,
    NonFiniteValueError,
    PackedQuantizedVector,
    QuantizedDotResult,
    Rank1Factorization,
    ScaledBinaryQuantization,
    SplitMix64,
    SyntheticSpec,
    as_float_matrix,
    as_float_vector,
    condition_curve,
    energy_profile,
    generate,
    load_tensor,
    normal_condition_curve,
    pack_quantization,
    quantize_greedy,
    quantize_lloyd,
    quantize_ls2,
    quantized_dot,
    rank1_binary,
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


@pytest.mark.parametrize(
    "spec",
    [
        SyntheticSpec("uniform", 4, 0, (-1e308, 1e308)),
        SyntheticSpec("laplace", 4, 0, (1e308,)),
        SyntheticSpec("lognormal", 4, 0, (800.0, 1.0)),
    ],
    ids=lambda spec: spec.label(),
)
def test_generate_rejects_a_draw_beyond_float64(spec):
    # Every parameter is finite; the drawn values overflow, with no warning.
    with pytest.raises(ValueError, match=rf"^{re.escape(spec.label())} draws values beyond"):
        generate(spec)


# The data and the grid below are invalid as well: a non-integer count is
# refused first, before any work on them.
_nan = np.full((2, 4), np.nan)


@pytest.mark.parametrize(
    "call",
    [
        lambda: quantize_lloyd(_nan[0], 2.5),
        lambda: quantize_greedy(_nan[0], 2.5),
        lambda: condition_curve(_nan[0], 2.5),
        lambda: normal_condition_curve(1.5),
        lambda: energy_profile(_nan, 1.5),
        lambda: SyntheticSpec("normal", 8, 1.5),
        lambda: SyntheticSpec("normal", 10.5, 0),
        lambda: SplitMix64(1.5),
        lambda: SplitMix64(0).words(2.5),
    ],
    ids=[
        "lloyd-k", "greedy-k", "curve-grid", "normal-curve-grid", "energy-top_r",
        "spec-seed", "spec-n", "rng-seed", "rng-count",
    ],
)
def test_integer_arguments_refuse_other_numbers(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


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
    path.write_text("  1.5 , 2.5\r\n-3\n\n")
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
    # float() alone reads '1_0' as 10 and Arabic-Indic digits as 12.
    for text, token in (("1_0,3", "1_0"), ("3,١٢,4", "١٢"), ("1_0,١٢,3", "1_0")):
        path.write_text(text)
        with pytest.raises(MalformedHeaderError, match=f"bad numeric token '{token}'"):
            load_tensor(path)
    # An empty field is a missing value, not a shorter vector.
    for text in ("1,,2", "1, ,2", "1,2,", ",1", "1\n\n2"):
        path.write_text(text)
        with pytest.raises(MalformedHeaderError, match="bad numeric token ''"):
            load_tensor(path)
    path.write_text(" \n ")
    with pytest.raises(MalformedHeaderError, match="empty CSV"):
        load_tensor(path)
    path.write_bytes(b"\xff\xfe1\x00,\x002\x00")
    with pytest.raises(MalformedHeaderError, match="does not decode"):
        load_tensor(path)


def test_unknown_format_token(tmp_path):
    with pytest.raises(ValueError):
        save_tensor([1.0], tmp_path / "x.dat", fmt="hdf5")
    with pytest.raises(ValueError, match="pass fmt='fqt' or 'csv'"):
        save_tensor([1.0], tmp_path / "x.dat")


# --- records ----------------------------------------------------------------


_X = [generate(SyntheticSpec("normal", 200, seed)) for seed in (0, 1)]
_RECORDS = {
    "ls2": lambda x: quantize_ls2(x),
    "lloyd": lambda x: quantize_lloyd(x, 2),
    "packed": lambda x: pack_quantization(quantize_ls2(x)),
    "dot": lambda x: quantized_dot(*[pack_quantization(quantize_ls2(x))] * 2),
    "rank1": lambda x: rank1_binary(x.reshape(20, 10)),
    # Magnitudes of at least 1 leave lower_mean NaN at the first thresholds.
    "curve": lambda x: condition_curve(np.abs(x) + 1.0, 20),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_compare_by_value(name):
    build = _RECORDS[name]
    a, b, other = build(_X[0]), build(_X[0]), build(_X[1])
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object()
    with pytest.raises(TypeError):
        hash(a)


def test_record_equality_skips_the_lloyd_reseed_count():
    lq = quantize_lloyd([0.0, 1.0, 2.0, 4.0, 5.0], 2)
    arrays = [lq.codebook.copy(), lq.thresholds.copy(), lq.codes.copy()]
    assert lq == LloydQuantizer(*arrays, lq.iterations, lq.converged, lq.reseeds + 1)
    assert lq != LloydQuantizer(*arrays, lq.iterations + 1, lq.converged, lq.reseeds)


# Each record type with caller buffers for its array fields, its other
# arguments, and inputs whose cast to the stored dtype would change a value,
# as (field named in the error, arguments replaced).
_OWNERS = {
    "ScaledBinaryQuantization": (
        ScaledBinaryQuantization,
        {"levels": [2.0, 1.0], "planes": np.array([[1, -1, 1], [1, 1, -1]], dtype=np.int8)},
        {"method": "ls2"},
        [
            # Promotion rounds 2**53 + 1 to float64 alike; only a round trip
            # shows the change.  2**63 - 1 rounds to 2**63, beyond int64.
            ("levels", {"levels": np.array([2**53 + 1, 1])}),
            ("levels", {"levels": np.array([2**63 - 1, 1])}),
        ],
    ),
    "LloydQuantizer": (
        LloydQuantizer,
        {"codebook": [-1.0, 1.0], "thresholds": [0.0], "codes": [0, 1, 1]},
        {"iterations": 1, "converged": True},
        [
            ("codes", {"codes": [0.7, 1.2]}),
            ("codes", {"codes": [np.nan, 1.0, 1.0]}),
            ("codes", {"codes": [2.0**63, 0.0, 1.0]}),
        ],
    ),
    "PackedQuantizedVector": (
        PackedQuantizedVector,
        {"levels": [1.0], "words": np.array([[0b101]], dtype=np.uint64)},
        {"n": 3},
        [
            ("words", {"words": [[1.9]], "n": 1}),
            ("words", {"words": np.array([[-1]], dtype=np.int64), "n": 64}),
        ],
    ),
    "QuantizedDotResult": (
        QuantizedDotResult,
        {"cross_terms": [[3, -1]]},
        {"value": 2.0},
        [("cross_terms", {"cross_terms": [[1.5]]})],
    ),
    "Rank1Factorization": (
        Rank1Factorization,
        {"u": [1.0], "v": [0.6, 0.8], "signs": np.array([[1, -1]], dtype=np.int8)},
        {"sigma": 1.0},
        [
            ("signs", {"signs": [[1.5, 1.0]]}),
            ("signs", {"signs": np.array([[257, 1]], dtype=np.int64)}),
            # NaN and inf have no int8 value, and their casts must not warn.
            ("signs", {"signs": [[np.nan, 1.0]]}),
            ("signs", {"signs": [[-np.inf, 1.0]]}),
        ],
    ),
    "ConditionCurve": (
        ConditionCurve,
        {"v": [0.5, 1.0], "lower_mean": [np.nan, 0.5], "upper_mean": [1.0, 1.5], "average": [0.5, 1.0]},
        {"intersections": (), "optimum": np.nan},
        [],
    ),
}


@pytest.mark.parametrize("name", sorted(_OWNERS))
def test_records_own_read_only_copies(name):
    cls, arrays, others, lossy = _OWNERS[name]
    buffers = {field: np.array(value) for field, value in arrays.items()}
    record = cls(**buffers, **others)
    for field, buf in buffers.items():
        buf.flat[0] = 7
        stored = getattr(record, field)
        assert np.array_equal(stored, arrays[field], equal_nan=True), field
        assert not stored.flags.writeable, field
        with pytest.raises(ValueError):
            stored.flat[0] = 0
    for field, replaced in lossy:
        with pytest.raises(ValueError, match=f"^{field} must hold "):
            cls(**{**arrays, **others, **replaced})
