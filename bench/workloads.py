"""The four benchmark workloads.

Every operation goes through ``bipbis.experiments.run_experiment``, the entry
point the CLI uses, with ``trials=1``, ``workers=1`` and a stream of its own.
A workload hands the timing loop whole rounds of operations; ``execute`` is
the only timed call, ``check`` and ``final_checks`` run outside the timed
phase.
"""

from __future__ import annotations

import os

import numpy as np

from bipbis.experiments import ExperimentConfig, run_experiment
from bipbis.graph import read_graph_text, sample_bipartite_graph, validate_graph
from bipbis.lowdeg import linear_blocking_polynomial
from bipbis.rng import RandomSeed

import checks
import speed

# Warm-up operations use streams from here on, apart from the timed ones.
WARMUP_STREAM = 1 << 16


def experiment(command: str, **params):
    return run_experiment(ExperimentConfig(command, params))


def trial_row(command: str, **params):
    return experiment(command, trials=1, workers=1, **params).rows[0]


class Workload:
    """Inputs come from the workload seed; ``prepare`` writes any input files.
    ``PROBE`` is the speed-probe kernel closest to the workload's own code."""

    PROBE = speed.INTERPRETER

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self) -> None:
        pass

    def final_checks(self) -> list[str]:
        return []


class EasyAlgos(Workload):
    """A round is one 1-local trial at p = p* and one degree-1 trial, both at
    n=1e5, d=10, on the round's stream."""

    N, D, GAMMA, EPSILON, ETA = 100_000, 10.0, 0.5, 0.5, 0.0
    PROBE = speed.ARRAYS

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.p = checks.fixed_point(self.D)
        self.k_l = checks.floor_k_l(self.N, self.D, self.EPSILON)

    def round_ops(self, r: int) -> list:
        return [("local", r), ("lowdeg", r)]

    def warmup_op(self, k: int):
        return ("local", WARMUP_STREAM + k)

    def execute(self, op):
        kind, stream = op
        if kind == "local":
            return trial_row("local", n=self.N, d=self.D, p=self.p, gamma=self.GAMMA,
                             seed=self.seed, stream=stream)
        return trial_row("lowdeg", n=self.N, d=self.D, epsilon=self.EPSILON, eta=self.ETA,
                         seed=self.seed, stream=stream)

    def check(self, op, row) -> list[str]:
        kind, stream = op
        if kind == "local":
            return checks.check_local_row(row, self.N, self.D, self.p, self.GAMMA)
        # the trial's graph and chosen L-subset are drawn again from its
        # (seed, stream); the norm is then recomputed from the edges
        s = RandomSeed(self.seed, stream)
        graph = sample_bipartite_graph(self.N, self.D, s)
        chosen = linear_blocking_polynomial(self.N, self.k_l, s).chosen_l
        c_r = checks.blocking_counts(self.N, graph.el, graph.er, chosen)
        return checks.check_lowdeg_row(row, self.N, self.D, self.EPSILON, c_r)


class OgpPath(Workload):
    """A round is one interpolation-path probe at n=60, d=4: 3600 path steps,
    each materialised, evaluated and rounded, then the overlap chain."""

    N, D, EPSILON, K, GAMMA_STEPS, C = 60, 4.0, 0.6, 2, 1, 0.5

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.k_l = max(1, checks.floor_k_l(self.N, self.D, min(self.EPSILON, 0.999)))

    def round_ops(self, r: int) -> list:
        return [r]

    def warmup_op(self, k: int):
        return WARMUP_STREAM + k

    def execute(self, stream):
        record = experiment("ogp", n=self.N, d=self.D, epsilon=self.EPSILON, K=self.K,
                            gamma_steps=self.GAMMA_STEPS, c=self.C, trials=1, workers=1,
                            seed=self.seed, stream=stream)
        return record.rows[0], record.outputs["norm_estimate"]

    def check(self, op, result) -> list[str]:
        row, norm_estimate = result
        return checks.check_ogp_row(row, self.N, self.D, self.EPSILON, self.C, self.k_l,
                                    norm_estimate)


class ExactBB(Workload):
    """A round solves each of four n=32 graph files (two at d=3, two at d=6)
    at gamma = 1/2 and 1/3, in an order drawn from the workload seed.

    The graphs come from a pinned seed, not the workload seed: branch-and-bound
    time varies tenfold between graphs of one (n, d), so a seed-drawn set
    would need well over a hundred graphs per round to hold a steady rate.
    """

    N, GRAPH_SEED = 32, 1
    GRAPHS = ((3.0, 0), (3.0, 1), (6.0, 2), (6.0, 3))  # (d, stream)
    GAMMAS = (0.5, 1.0 / 3.0)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.paths = [os.path.join(workdir, f"exact-d{d:g}-s{st}.txt") for d, st in self.GRAPHS]
        solves = [(path, g) for path in self.paths for g in self.GAMMAS]
        order = np.random.default_rng(seed).permutation(len(solves))
        self.order = [solves[i] for i in order]
        self.warmup = (self.paths[0], self.GAMMAS[1])
        self.outputs: dict[tuple, set] = {}

    def prepare(self) -> None:
        for (d, stream), path in zip(self.GRAPHS, self.paths):
            experiment("sample", n=self.N, d=d, seed=self.GRAPH_SEED, stream=stream, out=path)

    def round_ops(self, r: int) -> list:
        return self.order

    def warmup_op(self, k: int):
        return self.warmup

    def execute(self, op):
        path, gamma = op
        return experiment("exact", graph=path, gamma=gamma).outputs

    def _edges(self, path):
        with open(path, encoding="utf-8") as fh:
            n, _, el, er, _ = checks.parse_graph_text(fh.read())
        return n, el, er

    def check(self, op, outputs) -> list[str]:
        path, gamma = op
        self.outputs.setdefault(op, set()).add(outputs["size"])
        n, el, er = self._edges(path)
        return checks.check_exact(outputs, n, el, er, gamma, optimum=None)

    def final_checks(self) -> list[str]:
        """Optima against scipy's MILP, once per (graph, gamma)."""
        problems = []
        for (path, gamma), sizes in sorted(self.outputs.items()):
            n, el, er = self._edges(path)
            optimum = checks.milp_optimum(n, el, er, gamma)
            if sizes != {optimum}:
                problems.append(f"{os.path.basename(path)} gamma={gamma:.4f}: reported "
                                f"optima {sorted(sizes)}, MILP {optimum}")
        return problems


class GraphIO(Workload):
    """One operation: ``sample`` writes an n=1e5, d=10 graph file (about
    12 MB), ``read_graph_text`` reads it back and ``validate_graph`` checks it."""

    N, D = 100_000, 10.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.path = os.path.join(workdir, "graph-io.txt")

    def round_ops(self, r: int) -> list:
        return [r]

    def warmup_op(self, k: int):
        return WARMUP_STREAM + k

    def execute(self, stream):
        outputs = experiment("sample", n=self.N, d=self.D, seed=self.seed, stream=stream,
                             out=self.path).outputs
        graph = read_graph_text(self.path)
        validate_graph(graph)
        return outputs, graph.coords

    def check(self, stream, result) -> list[str]:
        outputs, read_coords = result
        sampled = sample_bipartite_graph(self.N, self.D, RandomSeed(self.seed, stream)).coords
        problems = []
        if outputs["m"] != sampled.size:
            problems.append(f"sample reports m={outputs['m']}, sampled graph has {sampled.size}")
        if not np.array_equal(read_coords, sampled):
            problems.append("graph read back differs from the sampled graph")
        with open(self.path, encoding="utf-8") as fh:
            problems += checks.check_graph_text(fh.read(), self.N, sampled)
        return problems


WORKLOADS = {
    "easy-algos": EasyAlgos,
    "ogp-path": OgpPath,
    "exact-bb": ExactBB,
    "graph-io": GraphIO,
}
