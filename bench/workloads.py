"""The benchmark's three workloads.

Each workload has the same shape:

* ``prepare(lib, case_id)`` synthesizes one case's inputs and computes their
  references with plain numpy (``reference.py``).  It runs outside the timed
  region, except that gemm-pipeline draws its matrices through the library's
  rng there, which is set-up work.
* ``run(lib, case)`` is one timed pass.  It calls bitquant only through
  ``lib`` (see ``spans.library``) and returns the outputs.
* ``check(case, out)`` compares the outputs with the references and returns a
  :class:`Gates` tally.

Workloads whose cost depends on the data draw fresh inputs for every pass
(``fresh_inputs``), so a run's median pass time averages over many inputs of
its seed rather than hanging on one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

_U64_MASK = (1 << 64) - 1


def sub_seed(seed: int, case_id: int, index: int) -> int:
    """Seed of input ``index`` of case ``case_id`` in the run seeded ``seed``."""
    return ((seed * 1_000_003 + case_id) * 16 + index) & _U64_MASK


@dataclass
class Gates:
    """Tally of gated operations.

    ``failed`` counts operations that raised a documented solver error or
    failed a gate; ``wrong`` counts only the gate failures, i.e. outputs that
    were produced but are not correct.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.notes.append(what)

    def raised(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(what)

    def add(self, other: "Gates") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes.extend(other.notes)


# ---------------------------------------------------------------------------
# fit-long: the analyze sweep over a few long vectors


@dataclass(frozen=True)
class FitLongSize:
    n: int
    grid: int
    greedy_k: int = 4
    lloyd_k: int = 2


class FitLong:
    """ls1, ls2, ternary and greedy-4 fits, each scored with objective and
    angle, plus a condition curve, on a normal, a laplace(1) and a
    lognormal(0, 0.75) vector; Lloyd-2 on the normal vector only."""

    name = "fit-long"
    fresh_inputs = True
    distributions = (("normal", ()), ("laplace", (1.0,)), ("lognormal", (0.0, 0.75)))
    sizes = {"full": FitLongSize(n=1 << 18, grid=400), "tiny": FitLongSize(n=4096, grid=50)}

    def __init__(self, bq, seed: int, size: str, workdir: Path):
        self.bq = bq
        self.seed = seed
        self.size = self.sizes[size]

    def work(self) -> dict:
        s = self.size
        fits = len(self.distributions) * 4 + 1
        return {"fit_elems": fits * s.n}

    def prepare(self, lib, case_id: int) -> list:
        s = self.size
        vectors = []
        for index, (dist, params) in enumerate(self.distributions):
            spec = self.bq.SyntheticSpec(dist, s.n, sub_seed(self.seed, case_id, index), params)
            x = ref.synthesize(dist, s.n, spec.seed, params)
            mags = np.sort(np.abs(x))
            greedy_levels, greedy_recon = ref.greedy(x, s.greedy_k)
            ls2 = ref.ls2_levels(mags)
            v = ref.ternary_level(mags)
            levels = {
                "ls1": greedy_levels[:1],
                "ls2": np.array(ls2),
                "ternary": np.array([v, v]),
                "greedy": greedy_levels,
            }
            recons = {
                "ls1": greedy_levels[0] * ref.signs(x),
                "ls2": ref.fold(x, ls2),
                "ternary": ref.fold(x, (v, v)),
                "greedy": greedy_recon,
            }
            vectors.append({
                "spec": spec,
                "x": x,
                "mags": mags,
                "levels": levels,
                "mse": {m: ref.mse(x, r) for m, r in recons.items()},
                "angle": {m: ref.angle_degrees(x, r) for m, r in recons.items()},
            })
        return vectors

    def run(self, lib, case: list) -> dict:
        s = self.size
        out = []
        for index, vec in enumerate(case):
            x = lib.tensor.generate(vec["spec"])
            fits = {
                "ls1": lib.quantizers.ls1(x),
                "ls2": lib.quantizers.ls2(x),
                "ternary": lib.quantizers.ternary(x),
                "greedy": lib.quantizers.greedy(x, s.greedy_k),
            }
            if index == 0:
                fits["lloyd"] = lib.quantizers.lloyd(x, s.lloyd_k)
            scores = {
                m: (lib.quantizers.objective(x, q).mse,
                    lib.analysis.angle(x, lib.quantizers.reconstruct(q)).degrees)
                for m, q in fits.items()
            }
            curve = lib.analysis.condition_curve(x, s.grid)
            out.append({"x": x, "fits": fits, "scores": scores, "curve": curve})
        return {"vectors": out}

    def check(self, case: list, out: dict) -> Gates:
        g = Gates()
        for vec, got in zip(case, out["vectors"]):
            label = vec["spec"].label()
            x = vec["x"]
            g.gate(np.array_equal(got["x"], x), f"generate {label}")
            for method, q in got["fits"].items():
                mse, degrees = got["scores"][method]
                if method == "lloyd":
                    recon = q.codebook[q.codes]
                    ok = (
                        q.converged
                        and ref.lloyd_violation(x, q.codebook, q.codes) <= 1e-9
                        and ref.close(mse, ref.mse(x, recon), 1e-12)
                        and ref.close(degrees, ref.angle_degrees(x, recon), 1e-9)
                    )
                    g.gate(ok, f"lloyd {label}")
                    continue
                ok = (
                    ref.close(q.levels, vec["levels"][method], 1e-9)
                    and ref.close(mse, vec["mse"][method], 1e-9)
                    and ref.close(degrees, vec["angle"][method], 1e-9)
                )
                if method == "ternary":
                    v = float(q.levels[0])
                    ok = ok and v == ref.ternary_fixed_point(vec["mags"], v)
                if method == "ls1" and label == "normal" and x.size >= 100_000:
                    ok = ok and abs(degrees - ref.NORMAL_LS1_DEGREES) < 0.3
                g.gate(ok, f"{method} {label}")
            g.gate(self._curve_ok(got["curve"], vec), f"condition_curve {label}")
        return g

    def _curve_ok(self, curve, vec) -> bool:
        """The sampled means match numpy at every threshold, and the best
        intersection is the crossing of the optimal two-plane fit.

        Bisection may settle on a jump of the empirical curve a data point or
        so from the exact fixed point, which moves the split error by O(1/n)
        relative; the gate allows 4/n.  Over 900 vectors the largest gap was
        0.71/n at n = 4096 and 0.10/n at n = 20000."""
        v, lower, upper = ref.condition_curve(vec["mags"], self.size.grid)
        best = min(curve.intersections, key=lambda s: (s.objective, s.v), default=None)
        return (
            ref.close(curve.v, v, 1e-12)
            and np.array_equal(np.isnan(curve.lower_mean), np.isnan(lower))
            and ref.close(np.nan_to_num(curve.lower_mean), np.nan_to_num(lower), 1e-9)
            and ref.close(curve.upper_mean, upper, 1e-9)
            and best is not None
            and ref.close(best.objective, vec["mse"]["ls2"], 4.0 / vec["x"].size)
        )


# ---------------------------------------------------------------------------
# gemm-pipeline: quantize -> BQT -> load -> matmul, then single dots


@dataclass(frozen=True)
class GemmSize:
    m: int
    n: int
    p: int
    dots: int
    ka: int = 2
    kw: int = 2


class GemmPipeline:
    """Activations (m x n) quantized greedy-2 per row and weights (n x p)
    quantized ls2 per column; both packed, the weights written to and read
    back from BQT1 files, multiplied packed, queried by single dots, and
    checked against a float product of the reconstructions."""

    name = "gemm-pipeline"
    fresh_inputs = False
    sizes = {
        "full": GemmSize(m=256, n=1024, p=256, dots=1024),
        "tiny": GemmSize(m=6, n=100, p=5, dots=12),
    }

    def __init__(self, bq, seed: int, size: str, workdir: Path):
        self.bq = bq
        self.seed = seed
        self.size = self.sizes[size]
        self.paths = [workdir / f"gemm-w{j}.bqt" for j in range(self.size.p)]

    def work(self) -> dict:
        s = self.size
        return {"macs": s.m * s.n * s.p}

    def prepare(self, lib, case_id: int) -> dict:
        s = self.size
        seeds = [sub_seed(self.seed, 0, i) for i in range(3)]
        a = lib.rng.normal(self.bq.SplitMix64(seeds[0]), s.m * s.n).reshape(s.m, s.n)
        w = lib.rng.normal(self.bq.SplitMix64(seeds[1]), s.n * s.p).reshape(s.n, s.p)
        a_ref = ref.normal(seeds[0], s.m * s.n).reshape(s.m, s.n)
        w_ref = ref.normal(seeds[1], s.n * s.p).reshape(s.n, s.p)
        a_levels, a_hat = ref.greedy(a_ref, s.ka)
        w_cols = np.ascontiguousarray(w.T)
        w_levels = np.array([ref.ls2_levels(np.sort(np.abs(c))) for c in w_ref.T])
        w_hat = np.stack([ref.fold(c, lv) for c, lv in zip(w_ref.T, w_levels)], axis=1)
        picks = ref.splitmix_words(seeds[2], 0, 2 * s.dots).reshape(2, s.dots)
        return {
            "a": a,
            "w_cols": w_cols,
            "inputs_ok": np.array_equal(a, a_ref) and np.array_equal(w, w_ref),
            "a_levels": a_levels,
            "w_levels": w_levels,
            "product": a_hat @ w_hat,
            "pairs": list(zip((picks[0] % s.m).tolist(), (picks[1] % s.p).tolist())),
        }

    def run(self, lib, case: dict) -> dict:
        s = self.size
        rows = [lib.bitkernel.pack(lib.quantizers.greedy(row, s.ka)) for row in case["a"]]
        cols = [lib.bitkernel.pack(lib.quantizers.ls2(col)) for col in case["w_cols"]]
        for col, path in zip(cols, self.paths):
            lib.bitkernel.save_packed(col, path)
        loaded = [lib.bitkernel.load_packed(path) for path in self.paths]
        product = lib.bitkernel.matmul(rows, loaded)
        values = []
        latency_ns = []
        for i, j in case["pairs"]:
            start = time.perf_counter_ns()
            values.append(lib.bitkernel.dot(rows[i], loaded[j]).value)
            latency_ns.append(time.perf_counter_ns() - start)
        a_hat = np.stack([lib.bitkernel.unpack(r) for r in rows])
        w_hat = np.stack([lib.bitkernel.unpack(c) for c in loaded], axis=1)
        float_product = lib.numpy.matmul(a_hat, w_hat)
        return {
            "rows": rows,
            "cols": cols,
            "loaded": loaded,
            "product": product,
            "values": values,
            "latency_ns": latency_ns,
            "float_product": float_product,
        }

    def check(self, case: dict, out: dict) -> Gates:
        bq = self.bq
        g = Gates()
        g.gate(case["inputs_ok"], "rng normal inputs")
        for i, row in enumerate(out["rows"]):
            g.gate(ref.close(row.levels, case["a_levels"][i], 1e-12), f"greedy row {i}")
        for j, col in enumerate(out["cols"]):
            g.gate(ref.close(col.levels, case["w_levels"][j], 1e-9), f"ls2 column {j}")
        for j, (col, back) in enumerate(zip(out["cols"], out["loaded"])):
            same = (
                back.k == col.k and back.n == col.n
                and np.array_equal(back.levels, col.levels)
                and np.array_equal(bq.unpack_quantization(back), bq.unpack_quantization(col))
            )
            g.gate(same, f"BQT round trip {j}")
        product = out["product"]
        expected = case["product"]
        scale = max(1.0, float(np.max(np.abs(expected))))
        deviation = max(float(np.max(np.abs(product - expected))),
                        float(np.max(np.abs(product - out["float_product"])))) / scale
        g.gate(deviation <= 1e-9, f"matmul deviation {deviation:.3e}")
        for (i, j), value in zip(case["pairs"], out["values"]):
            g.gate(value == product[i, j], f"dot ({i}, {j})")
        return g


# ---------------------------------------------------------------------------
# matrix-io: the energy path plus tensor file round trips


@dataclass(frozen=True)
class MatrixSize:
    rows: int
    cols: int
    top: int
    csv_n: int


def column_scales(cols: int) -> np.ndarray:
    """Per-column scales 0.9**j, floored at 0.1: a few dominant channels over
    a flat floor.  The leading singular values of |X| then stand apart by
    about 10 % each.  On a matrix of equal column scales the leading values
    lie in a near-degenerate bulk, where ``energy_profile`` top-8 runs out of
    its power iterations on a few per cent of inputs (see README)."""
    return np.maximum(0.9 ** np.arange(cols), 0.1)


class MatrixIO:
    """A laplace(1) matrix with per-column scales written to and read back
    from FQT, profiled for its top singular energies, fitted rank-1 binary
    and channel-mean, with both residuals; plus a CSV round trip of a
    laplace(1) vector."""

    name = "matrix-io"
    fresh_inputs = True
    sizes = {
        "full": MatrixSize(rows=1000, cols=1000, top=8, csv_n=1 << 16),
        "tiny": MatrixSize(rows=40, cols=24, top=4, csv_n=256),
    }

    def __init__(self, bq, seed: int, size: str, workdir: Path):
        self.bq = bq
        self.seed = seed
        self.size = self.sizes[size]
        self.fqt_path = workdir / "matrix.fqt"
        self.csv_path = workdir / "vector.csv"

    def work(self) -> dict:
        return {}

    def prepare(self, lib, case_id: int) -> dict:
        s = self.size
        seeds = [sub_seed(self.seed, case_id, i) for i in range(2)]
        scales = column_scales(s.cols)
        x = ref.laplace(seeds[0], s.rows * s.cols, 1.0).reshape(s.rows, s.cols) * scales
        stored = x.astype(np.float32).astype(np.float64)
        mags = np.abs(stored)
        # Eigenvalues of |X|^T |X|: the squared singular values of |X|.
        energies = np.linalg.eigvalsh(mags.T @ mags)[::-1]
        channel = mags - np.mean(mags, axis=1, keepdims=True)
        return {
            "matrix_spec": self.bq.SyntheticSpec("laplace", s.rows * s.cols, seeds[0], (1.0,)),
            "vector_spec": self.bq.SyntheticSpec("laplace", s.csv_n, seeds[1], (1.0,)),
            "scales": scales,
            "x": x,
            "stored": stored,
            "v": ref.laplace(seeds[1], s.csv_n, 1.0),
            "energies": energies[: s.top],
            "total": float(np.sum(mags * mags)),
            "channel_residual": float(np.sum(channel * channel)),
        }

    def run(self, lib, case: dict) -> dict:
        s = self.size
        unconverged = self.bq.ConvergenceError
        x = lib.tensor.generate(case["matrix_spec"]).reshape(s.rows, s.cols) * case["scales"]
        lib.tensor.fqt_save(x, self.fqt_path)
        stored = lib.tensor.fqt_load(self.fqt_path)
        try:
            profile = lib.rank1.energy_profile(stored, s.top)
        except unconverged:
            profile = None
        try:
            best = lib.rank1.rank1_binary(stored)
            best_residual = lib.rank1.residual_fro2(stored, best)
        except unconverged:
            best = best_residual = None
        channel = lib.rank1.channel_mean_rank1(stored)
        channel_residual = lib.rank1.residual_fro2(stored, channel)
        v = lib.tensor.generate(case["vector_spec"])
        lib.tensor.csv_save(v, self.csv_path)
        v_back = lib.tensor.csv_load(self.csv_path)
        return {
            "x": x, "stored": stored, "profile": profile, "best": best,
            "best_residual": best_residual, "channel_residual": channel_residual,
            "v": v, "v_back": v_back,
        }

    def check(self, case: dict, out: dict) -> Gates:
        g = Gates()
        g.gate(np.array_equal(out["x"], case["x"]), "generate matrix")
        g.gate(np.array_equal(out["stored"], case["stored"]), "FQT round trip")
        profile = out["profile"]
        if profile is None:
            g.raised("energy_profile did not converge")
        else:
            g.gate(ref.close(profile.singular_energies, case["energies"], 1e-8)
                   and ref.close(profile.total, case["total"], 1e-12), "energy_profile")
        if out["best"] is None:
            g.raised("rank1_binary did not converge")
        else:
            top = case["energies"][0]
            g.gate(ref.close(out["best"].sigma ** 2, top, 1e-9)
                   and ref.close(out["best_residual"], case["total"] - top, 1e-6),
                   "rank1_binary")
        g.gate(ref.close(out["channel_residual"], case["channel_residual"], 1e-9),
               "channel_mean_rank1")
        g.gate(np.array_equal(out["v"], case["v"]), "generate vector")
        g.gate(np.array_equal(out["v_back"], out["v"]), "CSV round trip")
        return g


WORKLOADS = {w.name: w for w in (FitLong, GemmPipeline, MatrixIO)}
