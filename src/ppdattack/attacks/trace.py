"""Attack trace records, and the CSV writer for the output files.

Every output file goes through :func:`write_csv` except the gradient check's
samples CSV, which ``harness.gradcheck.write_gradcheck_samples_csv`` builds
from whole columns; it writes the same bytes ``csv.writer`` would.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


def format_float(v):
    """A CSV cell for a number: the repr of a Python float round-trips exactly,
    keeping CSV output bit-identical across reruns with the same seed."""
    return repr(float(v))


def write_csv(path, header, rows):
    """Write a header row, then ``rows`` (any iterable of cell sequences)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@dataclass
class AttackTrace:
    """Record of one attack run.

    ``iterates`` has T+1 rows (the initial point plus one per iteration);
    ``objectives`` has one Monte-Carlo objective estimate per iteration, at
    the point the iteration steps from: ``objectives[t - 1]`` is taken at
    ``iterates[t - 1]``.
    Multilevel runs additionally carry ``levels_used`` (per iteration, the
    list of levels drawn) and ``sample_cost`` (posterior draws consumed).
    """

    iterates: np.ndarray
    objectives: np.ndarray
    final_x: np.ndarray
    final_residual: float
    levels_used: list = field(default=None)
    sample_cost: list = field(default=None)

    @property
    def n_iters(self):
        return len(self.objectives)

    def instance(self, k):
        """Instance ``k`` of a lockstep point attack, as its one-instance trace:
        column k of the iterates (T+1, K, p) and objectives (T, K)."""
        if self.iterates.ndim != 3:
            raise ValueError("this is a one-instance trace, with no instance axis to cut;"
                             " use it as it is, e.g. trace.write_csv(path)")
        return AttackTrace(iterates=self.iterates[:, k], objectives=self.objectives[:, k],
                           final_x=self.final_x[k], final_residual=float(self.final_residual[k]))

    def total_sample_cost(self):
        return int(np.sum(self.sample_cost)) if self.sample_cost is not None else 0

    def write_csv(self, path):
        """Write the trace.

        Columns: ``iteration, objective, x_0..x_{p-1}`` plus ``levels, draws``
        for multilevel runs, an iteration's levels joined by ``|``.  Row 0
        is the initial point with an empty objective cell; row t's objective
        is the estimate at row t-1's point, the one iteration t stepped from.
        A lockstep trace is written one instance at a time.
        """
        if self.iterates.ndim != 2:
            raise ValueError("a lockstep trace holds %d instances; write one with"
                             " trace.instance(k).write_csv(path)" % self.iterates.shape[1])
        header = ["iteration", "objective"] + ["x_%d" % j for j in range(self.iterates.shape[1])]
        objectives = [""] + [format_float(v) for v in self.objectives]
        rows = [[t, objectives[t]] + [format_float(v) for v in x]
                for t, x in enumerate(self.iterates)]
        if self.levels_used is not None:
            header += ["levels", "draws"]
            rows[0] += ["", ""]
            for row, levels, cost in zip(rows[1:], self.levels_used, self.sample_cost):
                row += ["|".join(map(str, levels)), int(cost)]
        write_csv(path, header, rows)
