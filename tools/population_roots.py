#!/usr/bin/env python3
"""Regenerate the population-level constants frozen into the test suite.

For the standard normal and unit-scale Laplace distributions this script
finds every threshold v that reproduces itself through the conditional-mean
conditions used by the two-bit and ternary solvers,

    two-bit:  v = (E[|X| given |X| <= v] + E[|X| given |X| > v]) / 2
    ternary:  v =  E[|X| given |X| > v] / 2

from closed-form conditional moments of |X|: error functions for the normal,
taken from ``bitquant.analysis``, and memoryless exponential tails for the
Laplace.  The library's population curve finds the roots and scores each by
its population mean squared error.  Run

    PYTHONPATH=src python3 tools/population_roots.py

from the repository root and compare against the constants in
tests/test_acceptance.py.
"""

import math

import numpy as np

from bitquant import analysis

def laplace_moments(v):
    """Mass, first and second moment of |X|, X Laplace(1), at or below v and
    above v: |X| is Exponential(1), so E[|X|^2] = 2."""
    e = math.exp(-v)
    m0_lo = -math.expm1(-v)
    m2_hi = e * (v * v + 2.0 * v + 2.0)
    return m0_lo, m0_lo - v * e, 2.0 - m2_hi, e, (v + 1.0) * e, m2_hi


GRID = np.arange(1, 16001) * 8.0 / 16000


def report(name, moments):
    print(f"== {name} ==")
    curve = analysis._population_curve(moments, GRID)
    lines = {}
    for s in curve.intersections:
        v2 = analysis._two_bit_levels(*analysis._population_means(moments, s.v))[1]
        lines[s.v] = f"v1={s.v:.12f} v2={v2:.12f} mse={s.objective:.12f}"
        print(f"  two-bit root: {lines[s.v]}")
    print(f"  two-bit GLOBAL: {lines[curve.optimum]}")

    def gt(v):
        return analysis._threshold(0.0, analysis._population_means(moments, v)[1]) - v

    for v in analysis._refine_and_collect(GRID, gt):
        print(f"  ternary root: v={v:.12f} mse={analysis._population_mse(moments, v, v):.12f}")


if __name__ == "__main__":
    report("standard normal", analysis._normal_moments)
    report("laplace(1)", laplace_moments)
