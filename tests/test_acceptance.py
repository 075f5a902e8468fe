"""Acceptance gate: one test per shipped claim, one printed line each.

Every test prints `[criterion N] label: PASS/FAIL (measurement)` on the real
terminal (bypassing capture) so a plain ``pytest -v`` run shows the measured
numbers next to the verdicts.
"""

import time

import numpy as np
import pytest

from bitquant import (
    ScaledBinaryQuantization,
    SplitMix64,
    SyntheticSpec,
    angle,
    energy_profile,
    generate,
    objective,
    pack_quantization,
    quantize_greedy,
    quantize_ls1,
    quantize_ls2,
    quantize_lloyd,
    quantize_ternary,
    quantized_dot,
    quantized_matmul,
    rank1_binary,
    reconstruct,
    unpack_quantization,
)

from conftest import make_vectors
from oracles import exhaustive_two_bit_mse, sym3_top_eigenvalue, ternary_best_on_grid


def report(capsys, num, label, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[criterion {num}] {label}: {status} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


def test_criterion_1_one_bit_normal_angle(capsys):
    started = time.perf_counter()
    x = generate(SyntheticSpec("normal", 1_000_000, 0))
    q = quantize_ls1(x)
    degrees = angle(x, reconstruct(q)).degrees
    elapsed = time.perf_counter() - started
    deviation = abs(degrees - 37.0797)
    ok = deviation < 0.3 and elapsed < 5.0
    report(
        capsys, 1, "1-bit normal angle",
        ok, f"angle={degrees:.4f} deg, target 37.0797 +- 0.3, {elapsed:.2f}s",
    )


def test_criterion_2_rank1_energy_ratio(capsys):
    started = time.perf_counter()
    big = generate(SyntheticSpec("normal", 1_000_000, 1)).reshape(1000, 1000)
    ratio_big = energy_profile(big, 1).ratio_1
    small = generate(SyntheticSpec("normal", 900, 6)).reshape(30, 30)
    ratio_small = energy_profile(small, 1).ratio_1
    elapsed = time.perf_counter() - started
    dev_big = abs(ratio_big - 0.6366)
    dev_small = abs(ratio_small - 0.6366)
    ok = dev_big <= 0.01 and dev_small <= 0.05 and elapsed < 30.0
    report(
        capsys, 2, "rank-1 energy ratio 2/pi",
        ok,
        f"1000x1000 ratio={ratio_big:.4f} (|d|={dev_big:.4f}<=0.01), "
        f"30x30 ratio={ratio_small:.4f} (|d|={dev_small:.4f}<=0.05), {elapsed:.2f}s",
    )


def test_criterion_3_two_bit_matches_exhaustive_scan(capsys):
    started = time.perf_counter()
    vectors = make_vectors(500, 48, base_seed=1000, min_n=2)
    worst = 0.0
    for x in vectors:
        got = objective(x, quantize_ls2(x)).mse
        bound = exhaustive_two_bit_mse(x)
        worst = max(worst, got - bound)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 60.0
    report(
        capsys, 3, "2-bit equals exhaustive cut scan",
        ok, f"500 vectors n<=48, worst excess={worst:.3e} (<=1e-9), {elapsed:.2f}s",
    )


def test_criterion_4_dominance_chain_and_greedy_monotonicity(capsys):
    vectors = make_vectors(1000, 200, base_seed=5000, min_n=8)
    violations = 0
    monotonicity_breaks = 0
    for x in vectors:
        e2 = objective(x, quantize_ls2(x)).mse
        others = (
            objective(x, quantize_greedy(x, 2)).mse,
            objective(x, quantize_ternary(x)).mse,
            objective(x, quantize_ls1(x)).mse,
        )
        # The dominance inequality holds in exact arithmetic; when a rival
        # lands on the same optimum the two objective evaluations can differ
        # in the last ulp, so violations are counted beyond a float-path
        # slack far below any genuine gap.
        violations += sum(e2 > e + 1e-12 * max(1.0, e) for e in others)
        q8 = quantize_greedy(x, 8)
        recon = np.zeros_like(x)
        previous = float(np.mean(x * x))
        for level, plane in zip(q8.levels, q8.planes):
            recon = recon + level * plane.astype(np.float64)
            err = float(np.mean((x - recon) ** 2))
            if err > previous * (1.0 + 1e-12) + 1e-18:
                monotonicity_breaks += 1
            previous = err
    ok = violations == 0 and monotonicity_breaks == 0
    report(
        capsys, 4, "2-bit dominates greedy-2/ternary/1-bit",
        ok,
        f"1000 vectors, dominance violations={violations}, "
        f"greedy k<=8 monotonicity breaks={monotonicity_breaks}",
    )


def test_criterion_5_ternary_fixed_point_and_grid(capsys):
    vectors = make_vectors(200, 300, base_seed=9000, min_n=5)
    fixed_point_failures = 0
    grid_beats = 0
    for x in vectors:
        q = quantize_ternary(x)
        v = float(q.levels[0])
        mags = np.sort(np.abs(x))
        upper = mags[np.searchsorted(mags, v, side="right"):]
        if v != 0.5 * float(np.mean(upper)):
            fixed_point_failures += 1
        base = objective(x, q).mse
        grid = np.linspace(0.0, float(mags[-1]), 2001)
        if ternary_best_on_grid(x, grid) < base - 1e-9:
            grid_beats += 1
    ok = fixed_point_failures == 0 and grid_beats == 0
    report(
        capsys, 5, "ternary level is an exact fixed point",
        ok,
        f"200 vectors, exactness failures={fixed_point_failures}, "
        f"2001-point grid improvements beyond 1e-9: {grid_beats}",
    )


def test_criterion_6_rank1_sign_pattern_optimality(capsys):
    started = time.perf_counter()
    patterns = np.array(
        [[(idx >> b) & 1 for b in range(9)] for idx in range(512)], dtype=np.float64
    )
    patterns = (2.0 * patterns - 1.0).reshape(512, 3, 3)
    rng = SplitMix64(0xA11)
    worst_pattern_excess = 0.0   # any sign pattern capturing more energy than sign(X)
    worst_solver_deficit = 0.0   # power iteration falling short of the closed form
    for _ in range(200):
        x = rng.normal(9).reshape(3, 3)
        mags = np.abs(x)
        oracle_best = sym3_top_eigenvalue(mags.T @ mags)
        f = rank1_binary(x, tol=1e-14, max_iters=100_000)
        flipped = x[None, :, :] * patterns
        grams = np.einsum("sij,sik->sjk", flipped, flipped)
        best_other = max(sym3_top_eigenvalue(grams[s]) for s in range(512))
        worst_pattern_excess = max(worst_pattern_excess, best_other - oracle_best)
        worst_solver_deficit = max(worst_solver_deficit, abs(f.sigma**2 - oracle_best))
    elapsed = time.perf_counter() - started
    ok = worst_pattern_excess <= 1e-9 and worst_solver_deficit <= 1e-9
    report(
        capsys, 6, "sign(X) is the optimal sign pattern",
        ok,
        f"200 3x3 matrices x 512 patterns: worst rival-pattern excess="
        f"{worst_pattern_excess:.3e}, worst solver-vs-oracle gap="
        f"{worst_solver_deficit:.3e} (both <=1e-9), {elapsed:.2f}s",
    )


def test_criterion_7_packed_kernels_match_float(capsys):
    started = time.perf_counter()
    rng = SplitMix64(0xD07)
    worst = 0.0
    widths = [1, 2, 3]
    for trial in range(10_000):
        n = 1 + int(rng.words(1)[0] % 257)
        ka = widths[trial % 3]
        kw = widths[(trial // 3) % 3]

        def draw(k):
            levels = np.sort(rng.uniform_open01(k) * 2.0)[::-1].copy()
            signs = [rng.signs(n) for _ in range(k)]
            return pack_quantization(ScaledBinaryQuantization(levels, np.stack(signs), "greedy"))

        a = draw(ka)
        b = draw(kw)
        got = quantized_dot(a, b).value
        ref = float(np.dot(unpack_quantization(a), unpack_quantization(b)))
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    dots_ok = worst <= 1e-9

    m, n, p, k = 64, 256, 32, 2
    a_mat = SplitMix64(0).normal(m * n).reshape(m, n)
    b_mat = SplitMix64(1).normal(n * p).reshape(n, p)
    rows = [pack_quantization(quantize_greedy(a_mat[i], k)) for i in range(m)]
    cols = [pack_quantization(quantize_greedy(b_mat[:, j], k)) for j in range(p)]
    packed = quantized_matmul(rows, cols)
    reference = np.stack([unpack_quantization(r) for r in rows]) @ np.stack(
        [unpack_quantization(c) for c in cols], axis=1
    )
    gemm_dev = float(np.max(np.abs(packed - reference))) / max(
        1.0, float(np.max(np.abs(reference)))
    )
    elapsed = time.perf_counter() - started
    ok = dots_ok and gemm_dev < 1e-6
    report(
        capsys, 7, "packed kernels are exact",
        ok,
        f"10^4 dots n in [1,257], ka/kw in {{1,2,3}}: worst rel dev={worst:.3e} "
        f"(<=1e-9); 64x256x32 2-bit gemm dev={gemm_dev:.3e} (<1e-6), {elapsed:.2f}s",
    )


FROZEN_LEVELS = {
    "normal": {"ls2": (0.981598821568, 0.528818786931), "ternary": 0.612003180962},
    "laplace(1)": {"ls2": (1.593624260040, 1.000000000000), "ternary": 1.000000000000},
}


def test_criterion_8_population_fixed_points(capsys):
    cases = [
        ("normal", SyntheticSpec("normal", 2_000_000, 0)),
        ("laplace(1)", SyntheticSpec("laplace", 2_000_000, 0, (1.0,))),
    ]
    details = []
    worst = 0.0
    for label, spec in cases:
        x = generate(spec)
        v1, v2 = quantize_ls2(x).levels
        t1, t2 = FROZEN_LEVELS[label]["ls2"]
        vt = float(quantize_ternary(x).levels[0])
        tt = FROZEN_LEVELS[label]["ternary"]
        rels = (abs(v1 - t1) / t1, abs(v2 - t2) / t2, abs(vt - tt) / tt)
        worst = max(worst, *rels)
        details.append(f"{label}: ls2 rel dev {rels[0]:.2e}/{rels[1]:.2e}, ternary {rels[2]:.2e}")
    ok = worst <= 0.01
    report(
        capsys, 8, "sample levels hit population fixed points",
        ok, f"{'; '.join(details)}; worst={worst:.2e} (<=1%)",
    )


def test_criterion_9_scope_statement(capsys):
    # The package quantizes tensors and verifies kernel exactness at desk
    # scale; it deliberately ships no model training, fine-tuning, or
    # network-accuracy machinery, so end-task accuracy claims are out of
    # scope here.
    import bitquant

    surface = [name.lower() for name in dir(bitquant)]
    training_words = ("train", "finetune", "fine_tune", "sgd", "backprop", "epoch")
    leaked = [n for n in surface if any(w in n for w in training_words)]
    ok = not leaked
    report(
        capsys, 9, "scope statement",
        ok,
        "out of scope: model training / fine-tuning / end-task accuracy; "
        "this library covers tensor-level quantization, kernels, and analysis only",
    )
