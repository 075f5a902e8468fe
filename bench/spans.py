"""Spans around the benchmark's calls into bitquant, and the per-layer
metrics derived from them.

The workloads call the library only through :func:`library`, whose
attributes are named ``<module>.<function>`` after the layer and function
they reach.  Untraced, each attribute is the library function itself, so
untraced passes pay nothing.  Traced, each call is wrapped in a span that
records its name, start, end, parent, workload and pass id, plus the work it
was handed (elements, bytes, words).  Spans stay in memory until the run
ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from types import SimpleNamespace

import numpy as np

# Layers are the modules of src/bitquant.  ``cli`` is an argparse shell over
# the same calls and is not measured separately.
LAYERS = ("rng", "tensor", "quantizers", "bitkernel", "rank1", "analysis")

WORD_BITS = 64


def _elems(args, result):
    return {"elems": int(np.size(args[0]))}


def _file_bytes(path_arg):
    def work(args, result):
        return {"bytes": os.path.getsize(args[path_arg])}

    return work


def _rng_words(args, result):
    # Box-Muller consumes one stream word per output, rounded up to pairs.
    return {"words": 2 * ((int(args[1]) + 1) // 2)}


def _lloyd(args, result):
    return {"elems": int(np.size(args[0])), "iterations": int(result.iterations)}


def _matmul(args, result):
    """Computed cost of a packed product of m rows by p columns of n
    elements with ka and kw planes.

    Every output entry takes ka * kw binary plane products (cross terms) of
    ceil(n / 64) XNOR/popcount words each.  Bytes moved are the compulsory
    traffic: both packed operands read once and the float64 output written
    once.  Both ignore caches and are labelled computed.
    """
    rows, cols = args
    m, p, n, ka, kw = len(rows), len(cols), rows[0].n, rows[0].k, cols[0].k
    n_words = -(-n // WORD_BITS)
    cross = m * p * ka * kw
    return {
        "cross_terms": cross,
        "words": cross * n_words,
        "bytes": (m * ka + p * kw) * n_words * 8 + m * p * 8,
    }


def _functions(bq):
    """Span name -> (callable, work counter) for every call the workloads make."""
    return {
        "rng.normal": (lambda stream, count: stream.normal(count), _rng_words),
        "tensor.generate": (bq.generate, lambda a, r: {"elems": int(r.size)}),
        "tensor.fqt_save": (lambda x, path: bq.save_tensor(x, path, "fqt"), _file_bytes(1)),
        "tensor.fqt_load": (lambda path: bq.load_tensor(path, "fqt"), _file_bytes(0)),
        "tensor.csv_save": (lambda x, path: bq.save_tensor(x, path, "csv"), _file_bytes(1)),
        "tensor.csv_load": (lambda path: bq.load_tensor(path, "csv"), _file_bytes(0)),
        "quantizers.ls1": (bq.quantize_ls1, _elems),
        "quantizers.ls2": (bq.quantize_ls2, _elems),
        "quantizers.ternary": (bq.quantize_ternary, _elems),
        "quantizers.greedy": (bq.quantize_greedy, _elems),
        "quantizers.lloyd": (bq.quantize_lloyd, _lloyd),
        "quantizers.objective": (bq.objective, _elems),
        "quantizers.reconstruct": (bq.reconstruct, lambda a, r: {"elems": int(r.size)}),
        "bitkernel.pack": (bq.pack_quantization, None),
        "bitkernel.unpack": (bq.unpack_quantization, None),
        "bitkernel.save_packed": (bq.save_packed, _file_bytes(1)),
        "bitkernel.load_packed": (bq.load_packed, _file_bytes(0)),
        "bitkernel.matmul": (bq.quantized_matmul, _matmul),
        "bitkernel.dot": (bq.quantized_dot, None),
        "rank1.energy_profile": (bq.energy_profile, None),
        "rank1.rank1_binary": (bq.rank1_binary, None),
        "rank1.channel_mean_rank1": (bq.channel_mean_rank1, None),
        "rank1.residual_fro2": (bq.residual_fro2, None),
        "analysis.angle": (bq.angle, None),
        "analysis.condition_curve": (bq.condition_curve, _elems),
        # The float baseline of the packed product; timed, but not a layer.
        "numpy.matmul": (np.matmul, None),
    }


class Tracer:
    """In-memory span recorder for one workload.

    A span is ``[name, start_ns, end_ns, parent, workload, pass_id, work]``
    where ``parent`` indexes the enclosing span (-1 at the top).
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.pass_id = "setup"
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.workload, self.pass_id, None])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name, fn, count_work):
        def traced(*args):
            index = self.begin(name)
            try:
                result = fn(*args)
            finally:
                self.end(index)
            if count_work is not None:
                self.spans[index][6] = count_work(args, result)
            return result

        return traced

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "workload", "pass", "work")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def library(bq, tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespace ``lib.<module>.<function>`` over the calls the workloads
    make, traced when a tracer is given."""
    modules: dict[str, dict] = {}
    for name, (fn, count_work) in _functions(bq).items():
        module, _, function = name.partition(".")
        call = fn if tracer is None else tracer.wrap(name, fn, count_work)
        modules.setdefault(module, {})[function] = call
    return SimpleNamespace(**{m: SimpleNamespace(**f) for m, f in modules.items()})


# ---------------------------------------------------------------------------
# Per-layer metrics

# (metric name, unit, better).  Every name is emitted on every workload; a
# layer a workload bypasses reads 0.
PER_LAYER = [
    *[
        (f"quantizers.{m}.{stat}", unit, "lower")
        for m in ("ls1", "ls2", "ternary", "greedy", "lloyd")
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("ns_per_elem", "ns/elem"))
    ],
    ("quantizers.lloyd.iterations", "count", "lower"),
    ("quantizers.objective.self_s", "s", "lower"),
    ("quantizers.reconstruct.self_s", "s", "lower"),
    ("bitkernel.pack.calls", "count", "lower"),
    ("bitkernel.pack.self_s", "s", "lower"),
    ("bitkernel.unpack.self_s", "s", "lower"),
    ("bitkernel.save_packed.self_s", "s", "lower"),
    ("bitkernel.save_packed.bytes", "B", "lower"),
    ("bitkernel.load_packed.self_s", "s", "lower"),
    ("bitkernel.load_packed.bytes", "B", "lower"),
    ("bitkernel.matmul.self_s", "s", "lower"),
    ("bitkernel.matmul.cross_terms", "count", "lower"),
    ("bitkernel.matmul.ns_per_cross_term", "ns", "lower"),
    ("bitkernel.matmul.words_computed", "count", "lower"),
    ("bitkernel.matmul.bytes_computed", "B", "lower"),
    ("bitkernel.matmul.words_per_byte", "1/B", "higher"),
    ("bitkernel.matmul.over_blas", "ratio", "lower"),
    ("bitkernel.dot.calls", "count", "lower"),
    ("bitkernel.dot.self_s", "s", "lower"),
    *[
        (f"rank1.{f}.self_s", "s", "lower")
        for f in ("energy_profile", "rank1_binary", "channel_mean_rank1", "residual_fro2")
    ],
    ("tensor.generate.calls", "count", "lower"),
    ("tensor.generate.self_s", "s", "lower"),
    ("tensor.generate.ns_per_elem", "ns/elem", "lower"),
    *[
        (f"tensor.{f}.{stat}", unit, better)
        for f in ("fqt_save", "fqt_load", "csv_save", "csv_load")
        for stat, unit, better in (("self_s", "s", "lower"), ("bytes", "B", "lower"),
                                   ("mb_per_s", "MB/s", "higher"))
    ],
    ("rng.normal.calls", "count", "lower"),
    ("rng.normal.self_s", "s", "lower"),
    ("rng.normal.ns_per_word", "ns/word", "lower"),
    ("analysis.angle.self_s", "s", "lower"),
    ("analysis.condition_curve.calls", "count", "lower"),
    ("analysis.condition_curve.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def self_times(spans) -> list[float]:
    """Self time of every span in seconds: its duration minus the part of
    it that its direct children cover (children never overlap)."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    return [(s[2] - s[1] - c) * 1e-9 for s, c in zip(spans, child_ns)]


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, setups: int, pairs: list) -> dict:
    """Per-layer metrics from the spans of one traced run; ``pairs`` holds
    the (untraced, traced) pass times of each case.

    Counts and times are per unit of work: per traced pass for functions a
    pass calls, per setup for functions only set-up calls (the inputs of
    gemm-pipeline).  Rates divide summed work by summed self time.
    """
    selfs = self_times(tracer.spans)
    groups: dict[tuple, dict] = {}
    for span, self_s in zip(tracer.spans, selfs):
        phase = "setup" if span[5] == "setup" else "pass"
        g = groups.setdefault((span[0], phase), {"calls": 0, "self_s": 0.0, "work": {}})
        g["calls"] += 1
        g["self_s"] += self_s
        for key, value in (span[6] or {}).items():
            g["work"][key] = g["work"].get(key, 0) + value

    passes = len(pairs)

    def stats(name):
        """Summed calls, self time and work of ``name`` per unit."""
        if (name, "pass") in groups:
            g, units = groups[(name, "pass")], passes
        elif (name, "setup") in groups:
            g, units = groups[(name, "setup")], setups
        else:
            return 0.0, 0.0, {}
        return g["calls"] / units, g["self_s"] / units, {k: v / units for k, v in g["work"].items()}

    out = {}
    for metric, unit, _ in PER_LAYER:
        prefix, stat = metric.rsplit(".", 1)
        if prefix == "trace":
            continue
        calls, self_s, work = stats(prefix)
        elems, words, nbytes = work.get("elems", 0), work.get("words", 0), work.get("bytes", 0)
        cross = work.get("cross_terms", 0)
        value = {
            "calls": calls,
            "self_s": self_s,
            "ns_per_elem": _rate(self_s * 1e9, elems),
            "ns_per_word": _rate(self_s * 1e9, words),
            "iterations": work.get("iterations", 0),
            "bytes": nbytes,
            "mb_per_s": _rate(nbytes / 1e6, self_s),
            "cross_terms": cross,
            "ns_per_cross_term": _rate(self_s * 1e9, cross),
            "words_computed": words,
            "bytes_computed": nbytes,
            "words_per_byte": _rate(words, nbytes),
            "over_blas": _rate(self_s, stats("numpy.matmul")[1]),
        }[stat]
        out[metric] = {"value": float(value), "unit": unit}

    layer_self = sum(
        g["self_s"] for (name, phase), g in groups.items()
        if phase == "pass" and name.split(".")[0] in LAYERS
    )
    # Each case runs untraced and then traced, so a pair shares its inputs
    # and nearly its machine state.
    out["trace.overhead_s"] = {"value": statistics.median(t - u for u, t in pairs), "unit": "s"}
    out["trace.coverage"] = {"value": _rate(layer_self, sum(t for _, t in pairs)), "unit": "ratio"}
    return out
