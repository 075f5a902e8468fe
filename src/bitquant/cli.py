"""Command line interface.

Subcommands cover the full pipeline: ``gen`` writes synthetic tensors,
``quantize`` fits and serializes a quantization, ``analyze`` sweeps methods
against data specs, ``curve`` samples conditional-mean curves, ``energy``
profiles matrices for rank-1 binary quantization, ``gemm-check`` verifies
the packed matmul against a float reference, and ``bench`` times the packed
kernel.

Summaries go to stdout as single-line JSON; data artifacts go to files.
Exit codes: 0 success, 1 usage or parameter errors, 2 malformed or
mismatched input data, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .analysis import (
    _fit,
    condition_curve,
    emit_report,
    normal_condition_curve,
    parse_method,
    run_sweep,
)
from .bitkernel import (
    kernel_bench,
    pack_quantization,
    quantized_matmul,
    save_packed,
    unpack_quantization,
)
from .errors import ConvergenceError, TensorFileError
from .quantizers import (
    LloydQuantizer,
    lloyd_to_scaled_binary,
    objective,
    quantize_greedy,
    reconstruct,
)
from .rank1 import channel_mean_rank1, energy_profile, rank1_binary, residual_fro2
from .rng import SplitMix64
from .tensor import SyntheticSpec, generate, load_tensor, save_tensor


class _UsageError(Exception):
    """Bad flag combination or parameter value (exit 1)."""


class _DataError(Exception):
    """Input data violates a shape or content contract (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


_DIST_RE = re.compile(r"([a-z-]+)(?:\(([^()]*)\))?")


def _parse_dist(token: str) -> tuple[str, tuple]:
    """Parse a distribution token like ``normal`` or ``laplace(1)``."""
    m = _DIST_RE.fullmatch(token.strip().lower())
    if not m:
        raise _UsageError(f"cannot parse distribution {token!r}")
    name, inner = m.group(1), m.group(2)
    if name == "standard-normal":
        name = "normal"
    params: tuple = ()
    if inner:
        try:
            params = tuple(float(p) for p in inner.split(","))
        except ValueError as exc:
            raise _UsageError(f"bad parameter in distribution {token!r}") from exc
    return name, params


def _load_vector(path, fmt=None) -> np.ndarray:
    """Load a tensor and flatten it row-major into a vector."""
    return load_tensor(path, fmt).reshape(-1)


def cmd_quantize(args) -> int:
    x = _load_vector(args.input, args.format)
    try:
        parsed = parse_method(args.method, ks=(args.bits,) if args.bits else ())
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    family, k = parsed[0]
    if args.bits is not None and args.bits != k:
        raise _UsageError(f"method {args.method!r} is {k}-bit, but --bits {args.bits} given")
    q = _fit(family, k, x)
    if isinstance(q, LloydQuantizer):
        # The Lloyd codebook is not a sum of sign planes; serialize the
        # closest k-plane form derived from its binary cluster codes.
        q = lloyd_to_scaled_binary(q)
    save_packed(pack_quantization(q), args.out)
    if args.recon:
        save_tensor(reconstruct(q), args.recon)
    _emit(
        {
            "method": family,
            "k": k,
            "n": int(x.size),
            "mse": objective(x, q).mse,
            "levels": [float(v) for v in q.levels],
            "out": args.out,
        }
    )
    return 0


def cmd_gen(args) -> int:
    name, params = _parse_dist(args.dist)
    if (args.n is None) == (args.shape is None):
        raise _UsageError("exactly one of --n or --shape is required")
    if args.shape is not None:
        m, n = args.shape
        if m < 1 or n < 1:
            raise _UsageError("--shape dimensions must be positive")
        total = m * n
    else:
        total = args.n
    spec = SyntheticSpec(distribution=name, n=total, seed=args.seed, params=params)
    data = generate(spec)
    if args.shape is not None:
        data = data.reshape(args.shape)
    save_tensor(data, args.out)
    _emit(
        {
            "out": args.out,
            "distribution": spec.label(),
            "n": total,
            "seed": args.seed,
        }
    )
    return 0


def cmd_analyze(args) -> int:
    specs = []
    for token in args.spec:
        head, sep, tail = token.rpartition(":")
        if not sep:
            raise _UsageError(f"spec {token!r} must look like dist:n")
        name, params = _parse_dist(head)
        try:
            n = int(tail)
        except ValueError as exc:
            raise _UsageError(f"bad element count in spec {token!r}") from exc
        for s in range(args.seeds):
            specs.append(
                SyntheticSpec(
                    distribution=name, n=n, seed=args.base_seed + s, params=params
                )
            )
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        raise _UsageError("--methods must name at least one method")
    ks = tuple(int(b) for b in args.bits.split(",")) if args.bits else ()
    report = run_sweep(specs, methods, ks)
    for failure in report.failures:
        print(f"row failed: {failure}", file=sys.stderr)
    emit_report(report, args.out, args.report_format)
    _emit({"rows": len(report.rows), "failures": len(report.failures), "out": args.out})
    return 0


def cmd_curve(args) -> int:
    if (args.input is None) == (args.dist is None):
        raise _UsageError("exactly one of --in or --dist is required")
    if args.grid < 2:
        raise _UsageError("--grid must be at least 2")
    if args.dist is not None:
        if args.dist.strip().lower() not in ("normal", "standard-normal"):
            raise _UsageError("analytic curves support only the normal distribution")
        curve = normal_condition_curve(args.grid)
    else:
        x = _load_vector(args.input)
        if not np.any(x):
            raise _DataError("condition curve is undefined for all-zero data")
        curve = condition_curve(x, args.grid)
    lines = ["v,lower_mean,upper_mean,average"]
    for i in range(curve.v.size):
        lower = curve.lower_mean[i]
        lower_field = "" if math.isnan(lower) else format(lower, ".17g")
        lines.append(
            f"{format(curve.v[i], '.17g')},{lower_field},"
            f"{format(curve.upper_mean[i], '.17g')},{format(curve.average[i], '.17g')}"
        )
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _emit(
        {
            "intersections": [
                {"v": s.v, "objective": s.objective} for s in curve.intersections
            ],
            "optimum": None if math.isnan(curve.optimum) else curve.optimum,
            "out": args.out,
        }
    )
    return 0


def cmd_energy(args) -> int:
    data = load_tensor(args.input)
    if data.ndim != 2:
        raise _DataError("energy profiling requires a matrix input")
    m, n = data.shape
    top = args.top if args.top is not None else min(8, m, n)
    if not 1 <= top <= min(m, n):
        raise _UsageError(f"--top must be in [1, {min(m, n)}]")
    profile = energy_profile(data, top)
    best = rank1_binary(data)
    channel = channel_mean_rank1(data)
    report = {
        "shape": [int(m), int(n)],
        "singular_energies": list(profile.singular_energies),
        "total": profile.total,
        "ratio_1": profile.ratio_1,
        "remainder": profile.remainder,
        "rank1_sigma": best.sigma,
        "rank1_residual_fro2": residual_fro2(data, best),
        "channel_mean_residual_fro2": residual_fro2(data, channel),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _emit({"ratio_1": profile.ratio_1, "out": args.out})
    return 0


def cmd_gemm_check(args) -> int:
    m, n, p = args.m, args.n, args.p
    if min(m, n, p) < 1:
        raise _UsageError("matrix dimensions must be positive")
    if args.ka < 1 or args.kw < 1:
        raise _UsageError("plane counts must be positive")
    a = SplitMix64(args.seed).normal(m * n).reshape(m, n)
    b = SplitMix64(args.seed + 1).normal(n * p).reshape(n, p)
    rows = [pack_quantization(quantize_greedy(a[i], args.ka)) for i in range(m)]
    cols = [pack_quantization(quantize_greedy(b[:, j], args.kw)) for j in range(p)]
    packed = quantized_matmul(rows, cols)
    a_hat = np.stack([unpack_quantization(r) for r in rows])
    b_hat = np.stack([unpack_quantization(c) for c in cols], axis=1)
    reference = a_hat @ b_hat
    scale = max(1.0, float(np.max(np.abs(reference))))
    deviation = float(np.max(np.abs(packed - reference))) / scale
    ok = deviation < 1e-6
    _emit(
        {
            "m": m,
            "n": n,
            "p": p,
            "ka": args.ka,
            "kw": args.kw,
            "max_relative_deviation": deviation,
            "pass": ok,
        }
    )
    return 0 if ok else 2


def cmd_bench(args) -> int:
    _emit(kernel_bench(args.n, args.ka, args.kw, args.reps))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="bitquant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="fit a quantizer and write a BQT1 file")
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("--format", choices=("fqt", "csv"), default=None)
    q.add_argument("--method", required=True)
    q.add_argument("--bits", type=int, default=None)
    q.add_argument("--out", required=True)
    q.add_argument("--recon", default=None, help="optional reconstruction output")
    q.set_defaults(handler=cmd_quantize)

    g = sub.add_parser("gen", help="write a synthetic tensor")
    g.add_argument("--dist", required=True)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--shape", type=int, nargs=2, default=None, metavar=("M", "N"))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(handler=cmd_gen)

    a = sub.add_parser("analyze", help="sweep methods over synthetic specs")
    a.add_argument("--spec", action="append", required=True, help="dist:n, repeatable")
    a.add_argument("--methods", required=True, help="comma-separated method tokens")
    a.add_argument("--bits", default=None, help="bit widths for greedy/lloyd")
    a.add_argument("--seeds", type=int, default=1)
    a.add_argument("--base-seed", type=int, default=0)
    a.add_argument("--out", required=True)
    a.add_argument("--format", dest="report_format", choices=("csv", "json"), default="csv")
    a.set_defaults(handler=cmd_analyze)

    c = sub.add_parser("curve", help="sample a conditional-mean condition curve")
    c.add_argument("--in", dest="input", default=None)
    c.add_argument("--dist", default=None, help="'normal' for the analytic curve")
    c.add_argument("--grid", type=int, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(handler=cmd_curve)

    e = sub.add_parser("energy", help="rank-1 energy profile of a matrix")
    e.add_argument("--in", dest="input", required=True)
    e.add_argument("--top", type=int, default=None)
    e.add_argument("--out", required=True)
    e.set_defaults(handler=cmd_energy)

    gc = sub.add_parser("gemm-check", help="verify packed matmul against floats")
    gc.add_argument("--m", type=int, default=64)
    gc.add_argument("--n", type=int, default=256)
    gc.add_argument("--p", type=int, default=32)
    gc.add_argument("--ka", type=int, default=2)
    gc.add_argument("--kw", type=int, default=2)
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(handler=cmd_gemm_check)

    b = sub.add_parser("bench", help="time the packed kernel against floats")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--ka", type=int, default=1)
    b.add_argument("--kw", type=int, default=1)
    b.add_argument("--reps", type=int, default=200)
    b.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"bitquant: {exc}", file=sys.stderr)
        return 1
    except _DataError as exc:
        print(f"bitquant: {exc}", file=sys.stderr)
        return 2
    except TensorFileError as exc:
        print(f"bitquant: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"bitquant: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"bitquant: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bitquant: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
