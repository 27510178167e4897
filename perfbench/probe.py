"""Speed probe: a fixed amount of work shaped like a camopt solve.

The speed of the machine the benchmark was written on drifts by up to 40%
within minutes, and flips between two states 1.6 times apart within
seconds, through load the benchmark cannot see or control (the other
tenants of the host).  A solve and the probes timed just before and after
it share that state, so the benchmark divides it out (see ``run.py``).
The probe uses no camopt code, so a change to camopt cannot change it.

Its work mixes what a solve spends time on:

- interpreter-bound Python with small dense solves;
- Python float allocation and random reads over 4 MB, more than a core's
  L2 cache, which feel contention for the shared L3;
- truncated order-2 jet products in 9 variables (55 coefficients, through
  index triples, as ``camopt.dajet`` multiplies) and sparse LU solves, the
  two kernels of relinearization and the cone solver.

In two sets of ten 25 s runs of each workload, during strong drift, the
run medians of unscaled solve times spread by 15% to 45% of their median
(first to third quartile), and solve times scaled by the two probes around
each solve by 3% to 19%.  In two sets of ten 34 s runs, unscaled medians
spread by 10% to 30% and scaled means by 7% to 19%; in the calmer set the
probe did not remove all of the noise, and on ``tpoc-1cdm`` none of it.
"""

from __future__ import annotations

import time
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg


def _jet_triples(n_vars=9, order=2):
    """(i, j, k) index arrays: monomial i times monomial j is monomial k."""
    exps = [(0,) * n_vars]
    for deg in range(1, order + 1):
        for combo in combinations_with_replacement(range(n_vars), deg):
            e = [0] * n_vars
            for v in combo:
                e[v] += 1
            exps.append(tuple(e))
    index = {e: i for i, e in enumerate(exps)}
    triples = [(i, j, index[tuple(a + b for a, b in zip(ei, ej))])
               for i, ei in enumerate(exps) for j, ej in enumerate(exps)
               if sum(ei) + sum(ej) <= order]
    return len(exps), *(np.array(t) for t in zip(*triples))


class Probe:
    """Times one fixed unit of work per call and keeps every time in
    ``samples``; build once, call between solves."""

    def __init__(self):
        self.samples = []
        rng = np.random.default_rng(0)
        d = rng.standard_normal((40, 40))
        self.dense = d @ d.T + 40.0 * np.eye(40)
        self.table = rng.standard_normal(500_000)
        self.gather = rng.integers(0, 500_000, 250_000, dtype=np.int32)
        self.size, self.ti, self.tj, self.tk = _jet_triples()
        n = 1500
        self.kkt = sparse.diags(
            [np.full(n, 4.0), np.full(n - 1, -1.0), np.full(n - 1, -1.0),
             np.full(n - 30, -0.5), np.full(n - 30, -0.5)],
            [0, 1, -1, 30, -30], format="csc")

    def _jet_mul(self, a, b):
        return np.bincount(self.tk, weights=a[self.ti] * b[self.tj],
                           minlength=self.size)

    def __call__(self):
        """Do the unit of work and record the seconds it took."""
        tic = time.perf_counter()
        for _ in range(5):
            acc = 0.0
            for i in range(20_000):
                acc = (acc + i) * 0.5
            for _ in range(100):
                np.linalg.solve(self.dense, self.dense[0])
        for _ in range(8):
            sum([float(i) * 1.5 for i in range(50_000)])
            self.table[self.gather].sum()
        a = np.linspace(0.1, 1.0, self.size)
        b = np.linspace(1.0, 0.1, self.size)
        for _ in range(5000):
            a = self._jet_mul(self._jet_mul(a, b) + b, a)
            a /= np.abs(a).max()  # no overflow and no subnormals
        for _ in range(4):
            sparse_linalg.splu(self.kkt).solve(np.ones(self.kkt.shape[0]))
        self.samples.append(time.perf_counter() - tic)
