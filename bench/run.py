"""Benchmark of bipbis: one workload per process, one worker, closed loop.

    python3 bench/run.py --workload easy-algos --seed 1 --seconds 12 --trace 0

Run from the repository root; the library is imported from ``src/`` next to
this directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (``ops_per_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` a traced re-enactment gives the
per-layer ones (see tracing.py). Results and traces are also written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
# the keys of workloads.WORKLOADS, which cannot be imported before the timed import
NAMES = ("easy-algos", "ogp-path", "exact-bb", "graph-io")

# Set-up (input generation plus one warm-up operation) runs this many times;
# setup_s reports the import time plus the median repetition.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bipbis benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="timed operation time after which no new round starts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, workdir: str) -> tuple[dict, int, int, list[str]]:
    import speed  # brings in numpy, which the probe's kernel needs

    setup_probe = speed.SpeedProbe()
    with setup_probe:
        t0 = time.perf_counter()
        import bipbis  # noqa: F401  (timed: part of set-up)
        import workloads
        import_s = time.perf_counter() - t0 - setup_probe.spent

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    problems: list[str] = []
    reps = []
    for k in range(SETUP_REPEATS):
        op = wl.warmup_op(k)

        def set_up():
            wl.prepare()
            return wl.execute(op)

        result, elapsed = setup_probe.timed(set_up)
        reps.append(elapsed)
        problems += wl.check(op, result)
    setup_wall_s = import_s + statistics.median(reps)

    wall_rounds: list[float] = []
    ref_rounds: list[float] = []
    kernel_s: list[float] = []
    attempted = failed = 0
    while sum(wall_rounds) < args.seconds:
        ops = wl.round_ops(len(wall_rounds))
        probe = speed.SpeedProbe(wl.PROBE)
        elapsed = 0.0
        for op in ops:
            attempted += 1
            try:
                result, dt = probe.timed(wl.execute, op)
            except Exception:  # an operation that fails is counted, not fatal
                failed += 1
                traceback.print_exc()
                continue
            elapsed += dt
            problems += wl.check(op, result)
        wall_rounds.append(elapsed)
        ref_rounds.append(elapsed * probe.scale())
        kernel_s += probe.samples
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += wl.final_checks()

    print(f"workload={args.workload} seed={args.seed} rounds={len(wall_rounds)} "
          f"ops_per_round={len(ops)} wall_ops_per_s={len(ops) / statistics.median(wall_rounds):.4f} "
          f"wall_setup_s={setup_wall_s:.4f} import_s={import_s:.4f} "
          f"kernel_ms={1000 * statistics.median(kernel_s):.4f} ({len(kernel_s)} samples)")
    metrics = {
        "ops_per_s": metric(len(ops) / statistics.median(ref_rounds), "1/s"),
        "setup_s": metric(setup_wall_s * setup_probe.scale(), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return metrics, attempted, failed, problems


def run_traced(args, workdir: str) -> tuple[dict, int, int, list[str]]:
    import tracing

    metrics, attempted, failed, problems, spans = tracing.run(args.seed, workdir)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bipbis", "__init__.py")):
        print(json.dumps({"error": "MissingProgram",
                          "message": f"no bipbis package under {SRC}"}), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed, problems = run(args, workdir)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
