import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitquant import (
    DimensionOverflowError,
    MalformedHeaderError,
    NonFiniteValueError,
    PackedQuantizedVector,
    ScaledBinaryQuantization,
    SplitMix64,
    load_packed,
    pack_quantization,
    quantize_greedy,
    quantized_dot,
    quantized_matmul,
    save_packed,
    unpack_quantization,
)

from oracles import brute_pm1_dot, row_major_level_sum

sign_lists = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=300)


def random_quantization(n, k, seed):
    rng = SplitMix64(seed)
    levels = np.sort(rng.uniform_open01(k) * 3.0)[::-1].copy()
    planes = np.stack([rng.signs(n) for _ in range(k)])
    return ScaledBinaryQuantization(levels, planes, "greedy")


def random_packed(n, k, seed):
    return pack_quantization(random_quantization(n, k, seed))


def packed_planes(*planes):
    """Unit-level packed vector with one plane per sign list."""
    return pack_quantization(ScaledBinaryQuantization(np.ones(len(planes)), planes, "greedy"))


def plane_dot(a, b):
    """Integer product of two sign lists through the k=1 packed dot."""
    return int(quantized_dot(packed_planes(a), packed_planes(b)).cross_terms[0, 0])


def plane(pq, i):
    """Plane i of ``pq`` as a unit-level one-plane vector."""
    return PackedQuantizedVector(levels=[1.0], words=pq.words[i : i + 1], n=pq.n)


# --- packing --------------------------------------------------------------


@given(sign_lists)
def test_pack_unpack_round_trip(signs):
    pq = packed_planes(signs)
    assert pq.n == len(signs)
    assert pq.words.shape == (1, (len(signs) + 63) // 64)
    assert unpack_quantization(pq).tolist() == signs


@given(sign_lists, st.randoms(use_true_random=False))
def test_plane_dot_matches_integer_oracle(signs, rnd):
    other = [rnd.choice([-1, 1]) for _ in signs]
    assert plane_dot(signs, other) == brute_pm1_dot(signs, other)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 256])
def test_plane_dot_word_boundaries(n):
    ones = [1] * n
    assert plane_dot(ones, ones) == n
    alt = [1 if i % 2 == 0 else -1 for i in range(n)]
    assert plane_dot(ones, alt) == (n + 1) // 2 - n // 2
    assert plane_dot(alt, alt) == n


def test_pack_rejects_bad_entries():
    for bad in ([0, 1], [2], [1.5, -1.0], [], [[1, -1]]):
        with pytest.raises(ValueError):
            packed_planes(bad)


def test_bitplane_rejects_nonzero_padding():
    def vector(words, n):
        words = np.array(words, dtype=np.uint64)
        return PackedQuantizedVector(levels=np.ones(len(words)), words=words, n=n)

    with pytest.raises(ValueError):
        vector([[0xFF]], 4)
    # A full word is fine.
    vector([[0xFFFFFFFFFFFFFFFF]], 64)
    with pytest.raises(ValueError):
        vector([[1, 0]], 64)
    # Only the second plane is dirty.
    with pytest.raises(ValueError):
        vector([[0x0F], [0x1F]], 4)


def test_plane_dot_length_mismatch():
    with pytest.raises(ValueError):
        plane_dot([1, 1], [1, 1, 1])


# --- packed vectors -------------------------------------------------------


def test_pack_quantization_round_trip(vector_battery):
    for x in vector_battery[:6]:
        q = quantize_greedy(x, 3)
        pq = pack_quantization(q)
        assert pq.k == 3 and pq.n == x.size
        recon = unpack_quantization(pq)
        direct = q.levels @ q.planes.astype(np.float64)
        assert np.array_equal(recon, direct)


def test_packed_vector_validation():
    p2 = packed_planes([1, -1]).words
    p3 = packed_planes([1, -1, 1]).words
    # Planes of two and three elements: the third bit is padding at n=2.
    with pytest.raises(ValueError):
        PackedQuantizedVector(levels=np.array([1.0, 0.5]), words=np.concatenate([p2, p3]), n=2)
    with pytest.raises(ValueError):
        PackedQuantizedVector(levels=np.array([-1.0]), words=p2, n=2)
    with pytest.raises(ValueError):
        PackedQuantizedVector(levels=np.array([1.0, 0.5]), words=p2, n=2)
    with pytest.raises(ValueError):
        PackedQuantizedVector(levels=np.array([1.0]), words=p2, n=65)
    with pytest.raises(ValueError):
        PackedQuantizedVector(levels=np.array([1.0]), words=p2, n=0)


@pytest.mark.parametrize(
    "levels,words,n,message",
    [
        ([np.nan], [[1]], 2, "levels must be finite and nonnegative"),
        ([np.inf], [[1]], 2, "levels must be finite and nonnegative"),
        ([-0.5], [[1]], 2, "levels must be finite and nonnegative"),
        ([1.0, np.nan], [[1], [1]], 2, "levels must be finite and nonnegative"),
        ([1.0], [[1, 0]], 2, "expected words of shape \\(1, 1\\) for 1 planes of 2 bits"),
        ([1.0], [1], 2, "expected words of shape"),
        ([1.0, 1.0], [[1]], 2, "expected words of shape \\(2, 1\\)"),
        ([[1.0]], [[1]], 2, "need one level per plane"),
        ([], np.zeros((0, 1)), 2, "need one level per plane"),
        ([1.0], [[1]], 0, "a packed vector needs at least one element"),
        ([1.0], [[0b100]], 2, "padding bits beyond n must be zero"),
    ],
)
def test_packed_vector_rejections(levels, words, n, message):
    with pytest.raises(ValueError, match=message):
        PackedQuantizedVector(
            levels=np.array(levels), words=np.array(words, dtype=np.uint64), n=n
        )


def test_packed_vector_stores_its_own_copies():
    words = np.array([[0b101]], dtype=np.uint64)
    levels = np.array([1.0])
    pq = PackedQuantizedVector(levels=levels, words=words, n=3)
    words[0, 0] = 0xFF  # would set padding bits beyond n = 3
    levels[0] = 2.0
    assert pq.words[0, 0] == 0b101 and pq.levels[0] == 1.0
    assert unpack_quantization(pq).tolist() == [1.0, -1.0, 1.0]


# --- quantized dot products -----------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 200, 257])
@pytest.mark.parametrize("ka,kw", [(1, 1), (1, 3), (2, 2), (3, 2)])
def test_quantized_dot_matches_float_reference(n, ka, kw):
    a = random_packed(n, ka, seed=n * 31 + ka)
    b = random_packed(n, kw, seed=n * 37 + kw)
    got = quantized_dot(a, b)
    reference = float(np.dot(unpack_quantization(a), unpack_quantization(b)))
    assert got.value == pytest.approx(reference, rel=1e-12, abs=1e-9)
    assert got.cross_terms.shape == (ka, kw)
    assert got.cross_terms.dtype == np.int64


def test_cross_terms_are_the_plane_dots():
    a = random_packed(100, 2, seed=1)
    b = random_packed(100, 3, seed=2)
    result = quantized_dot(a, b)
    for i in range(2):
        for j in range(3):
            assert result.cross_terms[i, j] == quantized_dot(plane(a, i), plane(b, j)).cross_terms[0, 0]
    assert np.all(np.abs(result.cross_terms) <= 100)
    with pytest.raises(ValueError):
        result.cross_terms[0, 0] = 0


def test_quantized_dot_length_mismatch():
    with pytest.raises(ValueError):
        quantized_dot(random_packed(10, 1, 1), random_packed(11, 1, 1))


# 20 rows of 256 two-plane columns over 1024 elements span three row blocks
# of the kernel; 3 x 3 planes give nine terms per entry.
@pytest.mark.parametrize(
    "m,p,n,ka,kw", [(5, 4, 150, 3, 2), (20, 256, 1024, 2, 2), (6, 5, 200, 3, 3)]
)
def test_matmul_is_bitwise_the_scalar_path(m, p, n, ka, kw):
    rows = [random_packed(n, ka, seed=100 + i) for i in range(m)]
    cols = [random_packed(n, kw, seed=200 + j) for j in range(p)]
    out = quantized_matmul(rows, cols)
    assert out.shape == (m, p)
    for i in range(m):
        for j in range(p):
            assert out[i, j] == quantized_dot(rows[i], cols[j]).value


def spread_quantization(n, k, seed):
    """Random planes under levels spread over several binades, so that a
    different summation order rounds differently."""
    rng = SplitMix64(seed)
    levels = np.ldexp(rng.uniform_open01(k), rng.words(k).astype(np.int64) % 40 - 20)
    planes = np.stack([rng.signs(n) for _ in range(k)])
    return ScaledBinaryQuantization(levels, planes, "greedy")


# The examples put ka * kw >= 8 terms in each entry and, at 3 x 3 planes of
# 64 columns over 2500 elements, five rows per block of the kernel.
@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 12),
    p=st.integers(1, 24),
    n=st.integers(1, 700),
    ka=st.integers(1, 4),
    kw=st.integers(1, 4),
    seed=st.integers(0, 2**32),
)
@example(m=12, p=64, n=2500, ka=3, kw=3, seed=1)
@example(m=9, p=48, n=3000, ka=4, kw=2, seed=2)
@example(m=3, p=2, n=65, ka=4, kw=4, seed=3)
def test_kernel_sums_in_row_major_order(m, p, n, ka, kw, seed):
    rows = [spread_quantization(n, ka, seed + i) for i in range(m)]
    cols = [spread_quantization(n, kw, seed + m + j) for j in range(p)]
    packed_rows = [pack_quantization(q) for q in rows]
    packed_cols = [pack_quantization(q) for q in cols]
    out = quantized_matmul(packed_rows, packed_cols)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            cross = r.planes.astype(np.int64) @ c.planes.T.astype(np.int64)
            expected = row_major_level_sum(r.levels.tolist(), c.levels.tolist(), cross.tolist())
            dot = quantized_dot(packed_rows[i], packed_cols[j])
            assert np.array_equal(dot.cross_terms, cross)
            assert dot.value == expected
            assert out[i, j] == expected


def test_matmul_against_float_reference():
    rows = [random_packed(64, 2, seed=300 + i) for i in range(3)]
    cols = [random_packed(64, 2, seed=400 + j) for j in range(3)]
    out = quantized_matmul(rows, cols)
    xf = np.stack([unpack_quantization(r) for r in rows])
    wf = np.stack([unpack_quantization(c) for c in cols])
    np.testing.assert_allclose(out, xf @ wf.T, rtol=1e-12, atol=1e-9)


def test_matmul_shape_validation():
    with pytest.raises(ValueError):
        quantized_matmul([], [random_packed(10, 1, 1)])
    with pytest.raises(ValueError):
        quantized_matmul([random_packed(10, 1, 1)], [random_packed(12, 1, 1)])
    with pytest.raises(ValueError):
        quantized_matmul(
            [random_packed(10, 1, 1), random_packed(10, 2, 1)],
            [random_packed(10, 1, 1)],
        )


def test_matmul_memory_is_bounded_by_a_row_block():
    # 512 x 512 over 256 elements at 2 x 2 planes: holding every cross term
    # at once would take 8 MiB on top of the 2 MiB output.
    rows = [random_packed(256, 2, seed=500 + i) for i in range(512)]
    cols = [random_packed(256, 2, seed=1500 + j) for j in range(512)]
    tracemalloc.start()
    try:
        out = quantized_matmul(rows, cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 3 * 2**20


# --- BQT1 files -----------------------------------------------------------


@pytest.mark.parametrize("n,k", [(1, 1), (64, 2), (65, 3), (300, 2), (100, 64)])
def test_bqt_round_trip_exact(tmp_path, n, k):
    q = random_quantization(n, k, seed=n + k)
    pq = pack_quantization(q)
    path = tmp_path / "q.bqt"
    save_packed(pq, path)
    back = load_packed(path)
    assert np.array_equal(back.levels, pq.levels)
    assert back.n == pq.n and back.k == pq.k
    assert np.array_equal(back.words, pq.words)
    padding = -n % 64
    expected = struct.pack("<4sIQ", b"BQT1", k, n) + q.levels.astype("<f8").tobytes()
    for signs in q.planes:
        bits = np.concatenate([signs > 0, np.zeros(padding, dtype=bool)])
        expected += np.packbits(bits, bitorder="little").tobytes()
    assert path.read_bytes() == expected


def test_bqt_save_rejects_more_planes_than_it_loads(tmp_path):
    path = tmp_path / "wide.bqt"
    with pytest.raises(ValueError, match="BQT1 holds at most 64 planes, got 65"):
        save_packed(random_packed(70, 65, seed=3), path)
    assert not path.exists()


def test_bqt_malformed_files(tmp_path):
    path = tmp_path / "bad.bqt"
    pq = random_packed(70, 2, seed=9)
    save_packed(pq, path)
    good = path.read_bytes()

    path.write_bytes(b"XQT1" + good[4:])
    with pytest.raises(MalformedHeaderError):
        load_packed(path)

    path.write_bytes(struct.pack("<4sIQ", b"BQT1", 0, 70) + good[16:])
    with pytest.raises(MalformedHeaderError):
        load_packed(path)

    path.write_bytes(struct.pack("<4sIQ", b"BQT1", 2, 1 << 50) + good[16:])
    with pytest.raises(DimensionOverflowError):
        load_packed(path)

    path.write_bytes(good[:-8])
    with pytest.raises(DimensionOverflowError):
        load_packed(path)

    path.write_bytes(good + b"\x00")
    with pytest.raises(MalformedHeaderError):
        load_packed(path)


def test_bqt_rejects_bad_levels_and_padding(tmp_path):
    path = tmp_path / "bad.bqt"
    pq = random_packed(70, 2, seed=10)
    save_packed(pq, path)
    good = bytearray(path.read_bytes())

    negative = good.copy()
    negative[16:24] = struct.pack("<d", -1.0)
    path.write_bytes(bytes(negative))
    with pytest.raises(NonFiniteValueError):
        load_packed(path)

    infinite = good.copy()
    infinite[16:24] = struct.pack("<d", float("inf"))
    path.write_bytes(bytes(infinite))
    with pytest.raises(NonFiniteValueError):
        load_packed(path)

    # Set a padding bit in the last word of the first plane (70 bits -> the
    # second word of each plane holds 6 live bits).
    corrupt = good.copy()
    first_plane_last_word = 16 + 16 + 8  # header, two levels, word 0
    stored = struct.unpack_from("<Q", corrupt, first_plane_last_word)[0]
    struct.pack_into("<Q", corrupt, first_plane_last_word, stored | (1 << 63))
    path.write_bytes(bytes(corrupt))
    with pytest.raises(MalformedHeaderError, match="plane 0 has nonzero padding bits"):
        load_packed(path)

    corrupt = good.copy()
    second_plane_last_word = first_plane_last_word + 16
    struct.pack_into("<Q", corrupt, second_plane_last_word, 1 << 6)
    path.write_bytes(bytes(corrupt))
    with pytest.raises(MalformedHeaderError, match="plane 1 has nonzero padding bits"):
        load_packed(path)


def test_bqt_truncated_header(tmp_path):
    path = tmp_path / "tiny.bqt"
    path.write_bytes(b"BQT1\x01")
    with pytest.raises(MalformedHeaderError):
        load_packed(path)
