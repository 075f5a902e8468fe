#!/usr/bin/env python3
"""Regenerate the population-level constants frozen into the test suite.

For the standard normal and unit-scale Laplace distributions this script
finds every threshold v that reproduces itself through the conditional-mean
conditions used by the two-bit and ternary solvers,

    two-bit:  v = (E[|X| given |X| <= v] + E[|X| given |X| > v]) / 2
    ternary:  v =  E[|X| given |X| > v] / 2

using closed-form conditional means (error functions for the normal, taken
from ``bitquant.analysis``; memoryless exponential tails for the Laplace).
These curves are continuous, so the analytic condition curve's root finder
(sign changes on a grid over (0, 8], refined by bisection) finds the roots.
Each root is scored by the population mean squared error of the induced
reconstruction so the global optimum is identified.  Run

    PYTHONPATH=src python3 tools/population_roots.py

from the repository root and compare against the constants in
tests/test_acceptance.py.
"""

import math

import numpy as np

from bitquant.analysis import (
    _normal_lower_mean,
    _normal_upper_mean,
    _refine_and_collect,
    normal_split_mse,
)

# --- laplace, scale 1 (|X| is Exponential(1)) ------------------------------


def laplace_lower_mean(v):
    mass = -math.expm1(-v)
    if mass == 0.0:
        return 0.0
    return (mass - v * math.exp(-v)) / mass


def laplace_upper_mean(v):
    return v + 1.0


def laplace_mse(v1, v2):
    e = math.exp(-v1)
    m0l = 1.0 - e
    m1l = m0l - v1 * e
    m2l = 2.0 - e * (v1 * v1 + 2.0 * v1 + 2.0)
    m0h = e
    m1h = (v1 + 1.0) * e
    m2h = e * (v1 * v1 + 2.0 * v1 + 2.0)
    lo, hi = v1 - v2, v1 + v2
    return (m2l - 2 * lo * m1l + lo * lo * m0l) + (m2h - 2 * hi * m1h + hi * hi * m0h)


# --- root finding ----------------------------------------------------------


GRID = np.arange(1, 16001) * 8.0 / 16000


def report(name, lower, upper, mse):
    print(f"== {name} ==")

    def g2(v):
        return 0.5 * (lower(v) + upper(v)) - v

    best = None
    for v1 in _refine_and_collect(GRID, g2):
        v2 = 0.5 * (upper(v1) - lower(v1))
        e = mse(v1, v2)
        print(f"  two-bit root: v1={v1:.12f} v2={v2:.12f} mse={e:.12f}")
        if best is None or e < best[0]:
            best = (e, v1, v2)
    e, v1, v2 = best
    print(f"  two-bit GLOBAL: v1={v1:.12f} v2={v2:.12f} mse={e:.12f}")

    def gt(v):
        return 0.5 * upper(v) - v

    for v in _refine_and_collect(GRID, gt):
        print(f"  ternary root: v={v:.12f} mse={mse(v, v):.12f}")


if __name__ == "__main__":
    report("standard normal", _normal_lower_mean, _normal_upper_mean, normal_split_mse)
    report("laplace(1)", laplace_lower_mean, laplace_upper_mean, laplace_mse)
