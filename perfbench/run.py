"""Benchmark for stopgames: one workload per run, outputs checked.

    python3 perfbench/run.py --workload {campaign-exact,generate,solve-float}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload's inputs come from ``--seed``.
Rounds of the same operations on the same inputs repeat until
``--seconds`` have passed.  Every time is scaled to one speed of the
machine (``clock.py``), and each operation counts with the median of its
scaled times; the outputs of every round are checked after the timed
phase.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` each round runs
untraced and then traced, and the object holds the per-layer metrics.  Details of every run
go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the load comes from this process alone.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
IMPORT_REPEATS = 3

sys.path.insert(0, str(HERE))
import clock  # noqa: E402
import workloads  # noqa: E402


def import_stopgames():
    """The checkout's own ``src/stopgames`` modules, never an installed copy."""
    src = ROOT / "src"
    if not (src / "stopgames" / "__init__.py").is_file():
        raise ImportError(f"no stopgames package under {src}")
    sys.path.insert(0, str(src))
    import importlib

    names = ("game", "generate", "reduce", "evaluate", "linsolve", "solve", "bench", "rng")
    modules = {name: importlib.import_module(f"stopgames.{name}") for name in names}
    return types.SimpleNamespace(**modules)


def child_import_s() -> tuple[float, float]:
    """Raw and scaled seconds a fresh interpreter takes for
    ``import_stopgames``."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import run; "
        "t = time.perf_counter(); run.import_stopgames(); print(time.perf_counter() - t)"
    )
    before = clock.ref_loop_ms()
    out = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True, text=True, check=True, timeout=120)
    raw = float(out.stdout.split()[-1])
    return raw, clock.scaled(raw, before, clock.ref_loop_ms())


def cell_medians(by_cell: dict) -> dict:
    """Median per-call time of each cell; a call timed in several rounds
    or set-ups counts with the median of its times."""
    return {cell: statistics.median(statistics.median(times) for times in calls.values()) for cell, calls in by_cell.items()}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_rounds(work, seconds: float, tracer):
    """Run whole rounds of ``work.ops()`` until ``seconds`` have passed and
    at least two rounds ran; with a tracer, untraced and traced rounds
    alternate.  The reference loop runs between operations, so each
    operation's time is scaled by the loops on either side of it; a
    boundary runs as many loops as the longer of its two operations asks
    for, the next one judged by its last timing.
    ``wall_s`` adds up the median scaled untraced time of each operation
    that counts in it."""
    samples = workloads.Samples()
    rounds = []  # (traced, round wall s, cpu s, span window or None)
    results = []  # per untraced round: {op: result}
    scaled_s = {}  # op -> scaled untraced s per unit, one per listing
    last_ms = {}  # op -> scaled ms of its last timing
    attempted = failed = 0
    ref = [clock.ref_loop_ms()]
    ops = work.ops()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        else:
            results.append({})
        wall = 0.0
        cpu = time.process_time()
        for j, op in enumerate(ops):
            if traced:
                root = tracer.open(f"op:{op.kind}")
            t0 = time.perf_counter()
            try:
                result = op.fn()
            except Exception as exc:  # counted as a failed operation
                print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                result = None
            ms = (time.perf_counter() - t0) * 1000.0
            if traced:
                tracer.close(root)
            following = ops[(j + 1) % len(ops)]
            ref.append(clock.reference_ms(ms * clock.REF_MS / ref[-1], last_ms.get(following, 0.0)))
            last_ms[op] = clock.scaled(ms, ref[-2], ref[-1])
            attempted += work.operations(op)
            op_failed = work.operations(op) if result is None else work.failed(op, result)
            failed += op_failed
            if op_failed:
                continue
            units = work.units(op, result)
            wall += ms / 1000.0 / units
            if not traced:
                ms_scaled = last_ms[op]
                if op.wall:
                    scaled_s.setdefault(op, []).append(ms_scaled / 1000.0 / units)
                work.round_samples(samples, op, result, ms_scaled)
                results[-1][op] = result
        cpu = time.process_time() - cpu
        window = None
        if traced:
            tracer.uninstall()
            window = tracer.window(first_span, len(tracer.spans))
        rounds.append((traced, wall, cpu, window))
        if time.perf_counter() - start >= seconds and len(rounds) >= 2:
            break
    wall_s = sum(statistics.median(v) for v in scaled_s.values())
    return rounds, wall_s, samples, results, attempted, failed, ref


def layer_metrics(window: dict) -> dict:
    def get(name, key):
        return window.get(name, {}).get(key, 0)

    attempts = get("generate_reduced", "calls")
    return {
        "generate.find_valid_arcs_calls": (get("find_valid_arcs", "calls"), "count"),
        "generate.find_valid_arcs_s": (get("find_valid_arcs", "s"), "s"),
        "generate.attempts": (attempts, "count"),
        "generate.attempt_yield": (get("generate_fully_reduced", "calls") / attempts if attempts else 0.0, "1"),
        "generate.self_s": (get("generate_fully_reduced", "self_s") + get("generate_reduced", "self_s"), "s"),
        "reduce.check_assumptions_s": (get("check_assumptions", "s"), "s"),
        "reduce.merge_terminal_valued_s": (get("merge_terminal_valued", "s"), "s"),
        "reduce.reduce_game_s": (get("reduce_game", "s"), "s"),
        "reduce.nodes_removed": (get("reduce_game", "counter"), "count"),
        "game.find_bad_core_calls": (get("find_bad_core", "calls"), "count"),
        "game.find_bad_core_s": (get("find_bad_core", "s"), "s"),
        "evaluate.evaluate_calls": (get("evaluate_strategy_pair", "calls"), "count"),
        "evaluate.evaluate_self_s": (get("evaluate_strategy_pair", "self_s"), "s"),
        "evaluate.best_response_calls": (get("best_response", "calls"), "count"),
        "evaluate.best_response_self_s": (get("best_response", "self_s"), "s"),
        "evaluate.is_stable_s": (get("is_stable", "s"), "s"),
        "linsolve.solve_float_calls": (get("solve_float", "calls"), "count"),
        "linsolve.solve_float_s": (get("solve_float", "s"), "s"),
        "linsolve.float_unknowns": (get("solve_float", "counter"), "count"),
        "linsolve.solve_exact_calls": (get("solve_exact", "calls"), "count"),
        "linsolve.solve_exact_s": (get("solve_exact", "s"), "s"),
        "linsolve.exact_unknowns": (get("solve_exact", "counter"), "count"),
        "solve.hk_self_s": (get("solve_hoffman_karp", "self_s"), "s"),
        "solve.perm_self_s": (get("solve_permutation_improvement", "self_s"), "s"),
        "solve.hk_iterations": (get("solve_hoffman_karp", "counter"), "count"),
        "solve.perm_passes": (get("solve_permutation_improvement", "counter"), "count"),
        "bench.build_instance_set_s": (get("build_instance_set", "s"), "s"),
        "bench.run_benchmark_self_s": (get("run_benchmark", "self_s"), "s"),
        "bench.summarize_s": (get("summarize", "s"), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sg, raw, scaled = clock.timed(import_stopgames)
    except ImportError as exc:
        print(f"cannot import stopgames from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    # The import is timed again in fresh interpreters, and set-up built
    # SETUPS times; setup_s adds the two medians of the scaled times.
    imports = [(raw / 1000.0, scaled / 1000.0)] + [child_import_s() for _ in range(IMPORT_REPEATS - 1)]
    OUT_DIR.mkdir(exist_ok=True)

    work = workloads.WORKLOADS[args.workload]()
    builds = []
    for _ in range(work.SETUPS):
        # A build lasts seconds, so it is scaled step by step: its costly
        # calls add their scaled times to work.build_ms.
        work.build_ms = 0.0
        t0 = time.perf_counter()
        work.setup(sg, args.seed, OUT_DIR)
        builds.append((time.perf_counter() - t0, work.build_ms / 1000.0))
    setup_s = statistics.median(s for _, s in imports) + statistics.median(s for _, s in builds)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    rounds, wall_s, samples, results, attempted, failed, ref = run_rounds(work, args.seconds, tracer)
    t0 = time.perf_counter()
    problems = work.check(results, samples)
    check_s = time.perf_counter() - t0
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    untraced = [r for r in rounds if not r[0]]
    cells = {kind: cell_medians(by_cell) for kind, by_cell in samples.by_kind.items()}
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for kind in ("hk", "perm", "gen", "reduce"):
        if kind in cells:
            e2e[f"{kind}_ms_p50"] = (geomean(cells[kind].values()), "ms")
        else:
            problems.append(f"no {kind} call succeeded")
    host = {
        "host.ref_loop_ms": (statistics.median(ref), "ms"),
        "host.cpu_s": (statistics.median(r[2] for r in untraced), "s"),
    }
    layers = {}
    if tracer is not None:
        # Layer figures of the first traced round, so that counts repeat
        # exactly; the overhead pairs each traced round with the untraced
        # round before it.
        layers = layer_metrics(rounds[1][3])
        overhead = statistics.median(rounds[i][1] - rounds[i - 1][1] for i in range(1, len(rounds), 2))
        layers["trace.overhead_s"] = (overhead, "s")
        if tracer.absent:
            print(f"absent layers (reported as 0): {', '.join(tracer.absent)}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "traced_rounds": sum(1 for r in rounds if r[0]),
        "round_s": [{"traced": r[0], "wall_s": r[1], "cpu_s": r[2]} for r in rounds],
        "imports_s": [r for r, _ in imports],
        "builds_s": [r for r, _ in builds],
        "setup_raw_s": statistics.median(r for r, _ in imports) + statistics.median(r for r, _ in builds),
        "check_s": check_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "cell_medians_ms": {kind: {f"{c[0]}/{c[1]}": v for c, v in by_cell.items()} for kind, by_cell in cells.items()},
        "metrics": {k: v[0] for k, v in {**e2e, **host, **layers}.items()},
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}.trace.json")

    for name, (value, unit) in {**e2e, **host, **layers}.items():
        print(f"{name:34s} {value:14.6f} {unit}", file=sys.stderr)
    shown = {**layers, **host} if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
