"""Re-measures the ROADMAP reference table with layer tracing on.

    python3 perfbench/reference.py

For each row one fully reduced game is generated; the table gives the
time of one generator attempt and of each solve, and, from the trace,
the share spent in the layer the ROADMAP names for that column.  One
seed, one run: a reference point, not a benchmark metric.
"""

from __future__ import annotations

import time

import run  # sets the BLAS thread count and the import paths
import tracing

# (size, ratio, columns to measure)
ROWS = [
    (512, 8, ("hk-float", "perm-float", "hk-exact", "perm-exact")),
    (1024, 8, ("hk-float", "perm-float")),
    (2048, 4, ("hk-float",)),
]
# The layer whose share of each column is shown.
LAYER = {
    "hk-float": "solve_float",
    "perm-float": "solve_permutation_improvement",
    "hk-exact": "solve_exact",
    "perm-exact": "solve_exact",
}
# The generator seed of every row and the run seed of every solve.
SEED = 1


def measure(tracer, fn):
    first = len(tracer.spans)
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, tracer.window(first, len(tracer.spans))


def main() -> int:
    sg = run.import_stopgames()
    tracer = tracing.Tracer()
    tracer.install()
    print("| size, ratio | column | wall s | traced layer | layer share |")
    print("|---|---|---|---|---|")
    try:
        for size, ratio, columns in ROWS:
            spec = sg.generate.RatioSpec(size, ratio)
            (game, meta), wall, win = measure(tracer, lambda: sg.generate.generate_fully_reduced(spec, SEED))
            attempts = meta.retries + 1
            layer = win.get("find_valid_arcs", {}).get("s", 0.0)
            print(f"| {size}, {ratio}:4 | one generator attempt ({attempts} made) | {wall / attempts:.2f} "
                  f"| find_valid_arcs | {layer / wall:.0%} |")
            for column in columns:
                algo, mode = column.split("-")
                if algo == "hk":
                    call = lambda: sg.solve.solve_hoffman_karp(game, SEED, mode)
                else:  # capped: perm may never settle (README.md)
                    call = lambda: sg.solve.solve_permutation_improvement(game, SEED, mode, iteration_cap=60)
                try:
                    res, wall, win = measure(tracer, call)
                except sg.evaluate.EvaluationContractError as exc:
                    print(f"| {size}, {ratio}:4 | {column} | – | {exc} | – |")
                    continue
                name = LAYER[column]
                key = "self_s" if name.startswith("solve_perm") else "s"
                layer = win.get(name, {}).get(key, 0.0)
                label = name + (" self" if key == "self_s" else "")
                print(f"| {size}, {ratio}:4 | {column} ({res.iterations} iterations) | {wall:.2f} | {label} | {layer / wall:.0%} |")
    finally:
        tracer.uninstall()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
