"""Memory budgets: the peak a call allocates, per element of its input.

numpy reports its buffers to ``tracemalloc``, so a call's peak above the
memory already held before it measures its temporaries and its result.
Each budget is the peak measured when it was set, with numpy 2.4, plus one
float64 temporary (8 B per element) of headroom and a small constant for
Python objects and short arrays.  A change that adds a full-length
temporary beyond that headroom fails here.
"""

import tracemalloc
from functools import partial

import pytest

from bitquant import (
    SyntheticSpec,
    angle,
    condition_curve,
    energy_profile,
    generate,
    objective,
    pack_quantization,
    quantize_greedy,
    quantize_lloyd,
    quantize_ls1,
    quantize_ls2,
    quantize_ternary,
    rank1_binary,
    reconstruct,
    residual_fro2,
    unpack_quantization,
)

N = 1 << 16
_HEADROOM = 8.0
_CONSTANT = 32 * 1024

# name: (the call, set up from the 2^16-element normal vector x or the
# 256x256 laplace matrix m, and its measured B per element, or per entry).
_BUDGETS = {
    "reconstruct k=1": (lambda x, m: partial(reconstruct, quantize_greedy(x, 1)), 16),
    "reconstruct k=2": (lambda x, m: partial(reconstruct, quantize_greedy(x, 2)), 24),
    "reconstruct k=4": (lambda x, m: partial(reconstruct, quantize_greedy(x, 4)), 40),
    "reconstruct k=8": (lambda x, m: partial(reconstruct, quantize_greedy(x, 8)), 72),
    "unpack k=2": (
        lambda x, m: partial(unpack_quantization, pack_quantization(quantize_ls2(x))), 26
    ),
    "unpack k=8": (
        lambda x, m: partial(unpack_quantization, pack_quantization(quantize_greedy(x, 8))), 80
    ),
    "objective k=2": (lambda x, m: partial(objective, x, quantize_ls2(x)), 24),
    "ls1": (lambda x, m: partial(quantize_ls1, x), 11),
    "ls2": (lambda x, m: partial(quantize_ls2, x), 49),
    "ternary": (lambda x, m: partial(quantize_ternary, x), 49),
    "greedy-4": (lambda x, m: partial(quantize_greedy, x, 4), 36),
    "lloyd-2": (lambda x, m: partial(quantize_lloyd, x, 2), 33),
    "condition_curve grid 50": (lambda x, m: partial(condition_curve, x, 50), 51),
    "angle": (lambda x, m: partial(angle, x, reconstruct(quantize_ls2(x))), 24),
    "energy_profile": (lambda x, m: partial(energy_profile, m, 8), 16),
    "rank1_binary": (lambda x, m: partial(rank1_binary, m), 12.3),
    "residual_fro2": (lambda x, m: partial(residual_fro2, m, rank1_binary(m)), 10),
}


@pytest.fixture(scope="module")
def data():
    x = generate(SyntheticSpec("normal", N, 3))
    m = generate(SyntheticSpec("laplace", N, 4, (1.0,))).reshape(256, 256)
    return x, m


def _peak(call) -> int:
    """Bytes ``call`` allocates at its peak, after one warm call."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", list(_BUDGETS))
def test_peak_memory_stays_within_budget(name, data):
    setup, per_element = _BUDGETS[name]
    budget = (per_element + _HEADROOM) * N + _CONSTANT
    peak = _peak(setup(*data))
    assert peak <= budget, f"{name}: {peak / N:.2f} B/elem, budget {budget / N:.2f}"
