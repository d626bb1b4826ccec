"""Traced run: per-layer timings from the benchmark's own files.

Each operation is re-enacted by calling the library's public functions in the
order that the trial bodies in ``bipbis.experiments`` call them, with a span
around every call. The re-enacted result must equal what ``run_experiment``
returns for the same ``(seed, stream)``; the untraced call is timed too, and
the difference is the tracing overhead. A traced run covers the operations of
all four workloads, so every per-layer metric is measured on the workload it
belongs to. Spans are kept in memory and returned for writing at the end.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

# (metric, span name, workload): per-call median in milliseconds
TIMED = (
    ("graph.sample_ms", "graph.sample", "easy-algos"),
    ("graph.csr_build_ms", "graph.csr_build", "easy-algos"),
    ("graph.to_text_ms", "graph.to_text", "graph-io"),
    ("graph.from_text_ms", "graph.from_text", "graph-io"),
    ("graph.validate_ms", "graph.validate", "graph-io"),
    ("local.labels_ms", "local.labels", "easy-algos"),
    ("local.decide_ms", "local.decide", "easy-algos"),
    ("local.apply_ms", "local.apply", "easy-algos"),
    ("local.trim_ms", "local.trim", "easy-algos"),
    ("lowdeg.poly_ms", "lowdeg.poly", "easy-algos"),
    ("lowdeg.evaluate_ms", "lowdeg.evaluate", "easy-algos"),
    ("lowdeg.round_ms", "lowdeg.round", "easy-algos"),
    ("lowdeg.norm_estimate_ms", "lowdeg.norm_estimate", "ogp-path"),
    ("lowdeg.step_evaluate_ms", "lowdeg.evaluate", "ogp-path"),
    ("lowdeg.step_round_ms", "lowdeg.round", "ogp-path"),
    ("ogp.path_build_ms", "ogp.path_build", "ogp-path"),
    ("ogp.materialize_ms", "ogp.materialize", "ogp-path"),
    ("ogp.detect_bad_ms", "ogp.detect_bad", "ogp-path"),
    ("ogp.greedy_chain_ms", "ogp.greedy_chain", "ogp-path"),
    ("ogp.check_chain_ms", "ogp.check_chain", "ogp-path"),
    ("exact.read_ms", "exact.read", "exact-bb"),
    ("exact.solve_ms", "exact.solve", "exact-bb"),
)

# re-enacted operations per workload
LOCAL_OPS = 3
OGP_OPS = 2
GRAPH_IO_OPS = 1


class Tracer:
    """Spans (name, operation, parent, start, end) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def median_ms(self, name: str, workload: str) -> float:
        durations = [s["end"] - s["start"] for s in self.spans
                     if s["name"] == name and s["op"].startswith(workload + "/")]
        if not durations:
            raise LookupError(f"no {name} span in {workload}")
        return 1000.0 * statistics.median(durations)


class Run:
    """Re-enacts operations and compares each with the untraced call."""

    def __init__(self):
        self.tracer = Tracer()
        self.problems: list[str] = []
        self.counts: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def compare(self, op: str, untraced, traced) -> None:
        if untraced != traced:
            self.problems.append(f"{op}: re-enacted {traced!r}, run_experiment {untraced!r}")

    def operation(self, op: str, untraced_fn, traced_fn):
        """Run both sides of one operation, alternating which goes first."""
        self.attempted += 1
        self.tracer.op = op
        results = {}

        def untraced():
            t = time.perf_counter()
            results["untraced"] = untraced_fn()
            self.untraced_s += time.perf_counter() - t

        def traced():
            with self.tracer.span("op") as rec:
                results["traced"] = traced_fn()
            self.traced_s += rec["end"] - rec["start"]

        first, second = (untraced, traced) if self.attempted % 2 else (traced, untraced)
        try:
            first()
            second()
        except Exception as exc:  # counted as a failed operation
            self.failed += 1
            self.problems.append(f"{op}: {type(exc).__name__}: {exc}")
            return None
        return results["untraced"], results["traced"]


def run(seed: int, workdir: str):
    import numpy  # noqa: F401  (outside the import time, as in setup_s)

    t0 = time.perf_counter()
    import bipbis  # noqa: F401
    import_ms = 1000.0 * (time.perf_counter() - t0)

    import checks
    import workloads
    from bipbis.balance import EMPTY_SUBSET
    from bipbis.exact import max_gamma_balanced_is
    from bipbis.experiments import _AUX_STREAM_OFFSET, resolve_params
    from bipbis.graph import (BipartiteGraph, graph_from_text, graph_to_text,
                              read_graph_text, sample_bipartite_graph, validate_graph)
    from bipbis.local import (apply_local_pair, draw_labels, gamma_trim, pair_decisions,
                              random_threshold_pair)
    from bipbis.lowdeg import linear_blocking_polynomial, norm_second_moment, round_polynomial
    from bipbis.ogp import (OverlapChainParams, StabilityConfig, build_interpolation_path,
                            check_overlap_chain, detect_bad_steps, greedy_overlap_chain)
    from bipbis.rng import RandomSeed

    R = Run()
    span = R.tracer.span

    # -- easy-algos: 1-local and degree-1 trials at n=1e5 ----------------------
    E = workloads.EasyAlgos(seed, workdir)
    for stream in range(LOCAL_OPS):
        s = RandomSeed(seed, stream)
        keep = {}

        def local_traced():
            t = time.perf_counter()
            with span("graph.sample"):
                graph = sample_bipartite_graph(E.N, E.D, s)
            pair = random_threshold_pair(E.p)
            with span("local.labels"):
                labels = draw_labels(graph.n, s)
            with span("local.apply"):
                subset = apply_local_pair(graph, pair, s, labels=labels)
            with span("local.trim"):
                trimmed = gamma_trim(subset, E.GAMMA)
            ms = round((time.perf_counter() - t) * 1000.0, 3)
            keep.update(graph=graph, pair=pair, labels=labels, subset=subset)
            return (0, E.N, E.D, E.p, E.GAMMA, subset.count_l, subset.count_r, trimmed.size, ms)

        got = R.operation(f"easy-algos/local/{stream}", lambda: E.execute(("local", stream)),
                          local_traced)
        if got:
            # wall_time_ms is measured, the one column that may differ
            R.compare(R.tracer.op, got[0][:-1], got[1][:-1])
            R.problems += checks.check_local_row(got[1], E.N, E.D, E.p, E.GAMMA)
            graph, subset = keep["graph"], keep["subset"]
            R.problems += checks.independence_problem(graph.el, graph.er, subset.in_l,
                                                      subset.in_r, E.N)
            R.count("graph.edges", graph.edge_count)
            R.count("local.selected", subset.size)
            # single-layer probes outside the operation
            with span("graph.csr_build"):
                BipartiteGraph(graph.n, graph.coords)
            with span("local.decide"):
                pair_decisions(graph, keep["pair"], keep["labels"])

        params = resolve_params("lowdeg", dict(n=E.N, d=E.D, epsilon=E.EPSILON, eta=E.ETA))

        def lowdeg_traced():
            with span("lowdeg.poly"):
                f = linear_blocking_polynomial(E.N, params["k_l"], s)
            with span("graph.sample"):
                graph = sample_bipartite_graph(E.N, E.D, s)
            with span("lowdeg.evaluate"):
                values = f.evaluate(graph)
            norm_sq = float(values @ values)
            with span("lowdeg.round"):
                outcome = round_polynomial(values, graph, params["eta"])
            keep.update(graph=graph, chosen=f.chosen_l)
            count_l = 0 if outcome.failed else outcome.subset.count_l
            count_r = 0 if outcome.failed else outcome.subset.count_r
            return (0, E.N, E.D, params["k_l"], params["k_r"], count_l, count_r, norm_sq,
                    int(outcome.failed))

        got = R.operation(f"easy-algos/lowdeg/{stream}", lambda: E.execute(("lowdeg", stream)),
                          lowdeg_traced)
        if got:
            R.compare(R.tracer.op, got[0], got[1])
            graph = keep["graph"]
            c_r = checks.blocking_counts(E.N, graph.el, graph.er, keep["chosen"])
            R.problems += checks.check_lowdeg_row(got[1], E.N, E.D, E.EPSILON, c_r)
    keep.clear()

    # -- ogp-path: interpolation path at n=60 --------------------------------
    O = workloads.OgpPath(seed, workdir)
    chain_params = OverlapChainParams.for_scale(O.EPSILON, O.K, O.N, O.D)
    for stream in range(OGP_OPS):
        params = resolve_params("ogp", dict(n=O.N, d=O.D, epsilon=O.EPSILON, K=O.K,
                                            gamma_steps=O.GAMMA_STEPS, c=O.C))
        keep = {}

        def ogp_traced():
            n, d, k_l = O.N, O.D, params["k_l"]
            with span("lowdeg.norm_estimate"):
                norm_estimate, _ = norm_second_moment(
                    lambda s: linear_blocking_polynomial(n, k_l, s), n, d, trials=30,
                    seed=RandomSeed(seed, stream + _AUX_STREAM_OFFSET))
            s = RandomSeed(seed, stream)
            T = O.GAMMA_STEPS * n * n
            with span("graph.sample"):
                graph = sample_bipartite_graph(n, d, s)
            with span("ogp.path_build"):
                path = build_interpolation_path(graph, T, d, s)
            with span("lowdeg.poly"):
                f = linear_blocking_polynomial(n, k_l, s)
            config = StabilityConfig(c=O.C, gamma_steps=O.GAMMA_STEPS, degree=1,
                                     norm_estimate=norm_estimate)
            with span("ogp.detect_bad"):
                bad = detect_bad_steps(f, path, config)
            vsets = []
            for t in range(T + 1):
                with span("ogp.materialize"):
                    g_t = path.materialize(t)
                with span("lowdeg.evaluate"):
                    values = f.evaluate(g_t)
                with span("lowdeg.round"):
                    outcome = round_polynomial(values, g_t, params["eta"])
                vsets.append(outcome.subset if not outcome.failed else EMPTY_SUBSET)
            with span("ogp.greedy_chain"):
                result = greedy_overlap_chain(vsets, chain_params)
            bits = 0
            if result.success:
                with span("ogp.check_chain"):
                    bits = check_overlap_chain(result.sets, result.timestamps, path,
                                               chain_params).conditions_bitmask()
            keep.update(path=path, result=result, norm_estimate=norm_estimate)
            return (0, n, d, T, len(bad), int(result.success), bits)

        got = R.operation(f"ogp-path/ogp/{stream}", lambda: O.execute(stream), ogp_traced)
        if got:
            (row, norm_estimate), traced_row = got
            R.compare(R.tracer.op, (row, norm_estimate), (traced_row, keep["norm_estimate"]))
            R.problems += checks.check_ogp_row(traced_row, O.N, O.D, O.EPSILON, O.C, O.k_l,
                                               keep["norm_estimate"])
            result, path = keep["result"], keep["path"]
            sets = [(v.in_l, v.in_r) for v in result.sets]
            R.problems += checks.check_chain_density(traced_row[6], sets, O.N, O.D, O.EPSILON)
            for (in_l, in_r), t in zip(sets, result.timestamps):
                g_t = path.materialize(t)
                R.problems += checks.independence_problem(g_t.el, g_t.er, in_l, in_r, O.N)
            R.count("ogp.steps", path.length)
    keep.clear()

    # -- exact-bb: branch-and-bound over the fixed graph files ---------------
    X = workloads.ExactBB(seed, workdir)
    X.prepare()
    for path, gamma in X.order:

        def exact_traced():
            with span("exact.read"):
                graph = read_graph_text(path)
            with span("exact.solve"):
                size, witness = max_gamma_balanced_is(graph, gamma, limit=32)
            return {"size": size,
                    "witness_l": ",".join(str(i) for i in sorted(witness.in_l)),
                    "witness_r": ",".join(str(i) for i in sorted(witness.in_r))}

        op = f"exact-bb/{os.path.basename(path)}/gamma={gamma:.4f}"
        got = R.operation(op, lambda: X.execute((path, gamma)), exact_traced)
        if got:
            R.compare(op, got[0], got[1])
            R.problems += X.check((path, gamma), got[1])
    R.problems += X.final_checks()

    # -- graph-io: write, read back and validate an n=1e5 graph file ----------
    G = workloads.GraphIO(seed, workdir)
    for stream in range(GRAPH_IO_OPS):
        s = RandomSeed(seed, stream)

        def io_traced():
            with span("graph.sample"):
                graph = sample_bipartite_graph(G.N, G.D, s)
            with span("graph.to_text"):
                text = graph_to_text(graph)
            with span("graph.write"):
                with open(G.path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            del text
            with span("graph.read"):
                with open(G.path, encoding="utf-8") as fh:
                    text = fh.read()
            with span("graph.from_text"):
                read_back = graph_from_text(text)
            with span("graph.validate"):
                validate_graph(read_back)
            return {"n": graph.n, "m": graph.edge_count, "out": G.path}, read_back.coords

        got = R.operation(f"graph-io/{stream}", lambda: G.execute(stream), io_traced)
        if got:
            (outputs, coords), (t_outputs, t_coords) = got
            R.compare(R.tracer.op, outputs, t_outputs)
            if coords.tobytes() != t_coords.tobytes():
                R.problems.append(f"{R.tracer.op}: re-enacted graph differs")
            R.problems += G.check(stream, got[1])
            R.count("graph.text_mb", os.path.getsize(G.path) / 1e6)

    metrics = {"bipbis.import_ms": {"value": import_ms, "unit": "ms"}}
    for name, span_name, workload in TIMED:
        metrics[name] = {"value": R.tracer.median_ms(span_name, workload), "unit": "ms"}
    for name, unit in (("graph.edges", "count"), ("graph.text_mb", "MB"),
                       ("local.selected", "count"), ("ogp.steps", "count")):
        metrics[name] = {"value": statistics.median(R.counts[name]), "unit": unit}
    overhead = 100.0 * (R.traced_s - R.untraced_s) / R.untraced_s
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    print(f"traced {R.attempted} operations: untraced {R.untraced_s:.3f} s, "
          f"traced {R.traced_s:.3f} s, {len(R.tracer.spans)} spans")
    return metrics, R.attempted, R.failed, R.problems, R.tracer.spans
