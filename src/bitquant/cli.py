"""Command line interface.

Subcommands cover the full pipeline: ``gen`` writes synthetic tensors,
``quantize`` fits and serializes a quantization, ``analyze`` sweeps methods
against data specs, ``curve`` samples conditional-mean curves, and ``energy``
profiles matrices for rank-1 binary quantization.

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
    _finite,
    condition_curve,
    emit_report,
    normal_condition_curve,
    parse_method,
    run_sweep,
)
from .bitkernel import _check_planes, _packed_bytes, pack_quantization
from .errors import ConvergenceError, TensorFileError
from .quantizers import (
    _FAMILIES,
    LloydQuantizer,
    lloyd_to_scaled_binary,
    objective,
    reconstruct,
)
from .rank1 import channel_mean_rank1, energy_profile, rank1_binary, residual_fro2
from .tensor import (
    SyntheticSpec,
    _number,
    _tensor_bytes,
    _write_file,
    generate,
    load_tensor,
    save_tensor,
)


class _DataError(Exception):
    """Input data violates a shape or content contract (exit 2)."""


# Exit code of a failed subcommand, by the first matching type; others propagate.
_EXIT_CODES = (
    (_DataError, 2), (TensorFileError, 2), (OSError, 2), (ConvergenceError, 3), (ValueError, 1)
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload: dict) -> None:
    print(json.dumps(_finite(payload), allow_nan=False))


_DIST_RE = re.compile(r"([a-z-]+)(?:\(([^()]*)\))?")


def _parse_dist(token: str) -> tuple[str, tuple]:
    """Parse a distribution token like ``normal`` or ``laplace(1)``."""
    m = _DIST_RE.fullmatch(token.strip().lower())
    if not m:
        raise ValueError(f"cannot parse distribution {token!r}")
    name, inner = m.group(1), m.group(2)
    if name == "standard-normal":
        name = "normal"
    params: tuple = ()
    if inner:
        try:
            params = tuple(_number(p, float) for p in inner.split(","))
        except ValueError as exc:
            raise ValueError(f"bad parameter in distribution {token!r}") from exc
    return name, params


def cmd_quantize(args) -> int:
    x = load_tensor(args.input).reshape(-1)
    family, k = parse_method(args.method)
    # A width BQT1 cannot hold is refused before the fit pays for it.
    _check_planes(k)
    q = _FAMILIES[family][0](x, k)
    if isinstance(q, LloydQuantizer):
        # The Lloyd codebook is not a sum of sign planes; serialize the
        # closest k-plane form derived from its binary cluster codes.
        q = lloyd_to_scaled_binary(q)
    # Both files are encoded, and so checked, before either is written.
    files = [(args.out, _packed_bytes(pack_quantization(q)))]
    if args.recon:
        files.append((args.recon, _tensor_bytes(reconstruct(q), args.recon)))
    for path, blob in files:
        _write_file(path, blob)
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
    if len(args.shape) > 2 or min(args.shape) < 1:
        raise ValueError("--shape takes one or two positive dimensions")
    spec = SyntheticSpec(
        distribution=name, n=math.prod(args.shape), seed=args.seed, params=params
    )
    save_tensor(generate(spec).reshape(args.shape), args.out)
    _emit(
        {
            "out": args.out,
            "distribution": spec.label(),
            "n": spec.n,
            "seed": args.seed,
        }
    )
    return 0


def cmd_analyze(args) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    specs = []
    for token in args.spec:
        head, sep, tail = token.rpartition(":")
        if not sep:
            raise ValueError(f"spec {token!r} must look like dist:n")
        name, params = _parse_dist(head)
        try:
            n = _number(tail, int)
        except ValueError as exc:
            raise ValueError(f"bad element count in spec {token!r}") from exc
        for s in range(args.seeds):
            specs.append(
                SyntheticSpec(
                    distribution=name, n=n, seed=args.base_seed + s, params=params
                )
            )
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        raise ValueError("--methods must name at least one method")
    report = run_sweep(specs, methods)
    for failure in report.failures:
        print(f"row failed: {failure}", file=sys.stderr)
    emit_report(report, args.out)
    _emit({"rows": len(report.rows), "failures": len(report.failures), "out": args.out})
    return 0


def cmd_curve(args) -> int:
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    if args.dist is not None:
        if _parse_dist(args.dist) != ("normal", ()):
            raise ValueError("analytic curves support only the normal distribution")
        curve = normal_condition_curve(args.grid)
    else:
        x = load_tensor(args.input).reshape(-1)
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
    _write_file(args.out, ("\n".join(lines) + "\n").encode())
    _emit(
        {
            "intersections": [
                {"v": s.v, "objective": s.objective} for s in curve.intersections
            ],
            "optimum": curve.optimum,
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
        raise ValueError(f"--top must be in [1, {min(m, n)}]")
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
    _write_file(args.out, (json.dumps(_finite(report), indent=2, allow_nan=False) + "\n").encode())
    _emit({"ratio_1": profile.ratio_1, "out": args.out})
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="bitquant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="fit a quantizer and write a BQT1 file")
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("--method", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--recon", default=None, help="optional reconstruction output")
    q.set_defaults(handler=cmd_quantize)

    g = sub.add_parser("gen", help="write a synthetic tensor")
    g.add_argument("--dist", required=True)
    g.add_argument("--shape", type=_number, nargs="+", required=True, help="N or M N")
    g.add_argument("--seed", type=_number, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(handler=cmd_gen)

    a = sub.add_parser("analyze", help="sweep methods over synthetic specs")
    a.add_argument("--spec", action="append", required=True, help="dist:n, repeatable")
    a.add_argument("--methods", required=True, help="comma-separated method tokens")
    a.add_argument("--seeds", type=_number, default=1)
    a.add_argument("--base-seed", type=_number, default=0)
    a.add_argument("--out", required=True, help="JSON if the name ends in .json, else CSV")
    a.set_defaults(handler=cmd_analyze)

    c = sub.add_parser("curve", help="sample a conditional-mean condition curve")
    source = c.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="input")
    source.add_argument("--dist", help="'normal' for the analytic curve")
    c.add_argument("--grid", type=_number, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(handler=cmd_curve)

    e = sub.add_parser("energy", help="rank-1 energy profile of a matrix")
    e.add_argument("--in", dest="input", required=True)
    e.add_argument("--top", type=_number, default=None)
    e.add_argument("--out", required=True)
    e.set_defaults(handler=cmd_energy)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"bitquant: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
