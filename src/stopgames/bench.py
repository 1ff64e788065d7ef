"""Benchmark harness: build instance sets, run solver sweeps, summarize.

A plan names the (size, ratio) cells, how many instances fill each cell,
how many seeded runs each instance gets, and which algorithms to compare.
Everything derives from one master seed, so a plan re-run reproduces the
same instances, the same run seeds, and byte-identical records up to the
wall-time column.  The harness re-checks stability of every solver output
itself rather than trusting the solver.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .evaluate import EXACT, FLOAT, EvaluationContractError, is_stable
from .game import Game, json_object, load_game, save_game
from .generate import GenMeta, RatioSpec, generate_fully_reduced, ratio_counts
from .rng import derive_seed
from .solve import ALGORITHMS, BRUTE_FORCE_DECISION_CAP, SOLVERS

CSV_HEADER = ["instance_id", "algorithm", "seed", "iterations", "wall_time_ms", "stable_check"]


@dataclass(frozen=True)
class BenchRecord:
    instance_id: str
    algorithm: str
    seed: int
    iterations: int
    wall_time_ms: float
    stable_check: bool


@dataclass
class BenchPlan:
    """One benchmark campaign; serializes to/from a JSON plan file.  The
    fields without a default are required, in the file too."""

    sizes: list[int]
    ratios: list[int]
    instances_per_cell: int
    runs_per_instance: int
    algorithms: list[str] = field(default_factory=lambda: ["hk", "perm"])
    master_seed: int = 0
    mode: str = FLOAT
    instances_dir: str | None = None

    def validate(self) -> None:
        if not self.sizes or any(s < 6 for s in self.sizes):
            raise ValueError("plan needs sizes of at least 6 nodes")
        if not self.ratios or any(not 1 <= r <= 8 for r in self.ratios):
            raise ValueError("plan ratios must be in 1..8")
        if self.instances_per_cell < 1 or self.runs_per_instance < 1:
            raise ValueError("instance and run counts must be positive")
        if self.mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {self.mode!r}")
        unknown = set(self.algorithms) - set(SOLVERS)
        if not self.algorithms or unknown:
            raise ValueError(f"algorithms must be a non-empty subset of {ALGORITHMS}")
        if "bf" in self.algorithms:
            for size in self.sizes:
                for ratio in self.ratios:
                    _, b, c = ratio_counts(size, ratio)
                    if b + c > BRUTE_FORCE_DECISION_CAP:
                        raise ValueError(
                            f"brute force cannot handle size {size} ratio {ratio}:4 "
                            f"({b + c} decision nodes)"
                        )

    @staticmethod
    def from_json(text: str) -> "BenchPlan":
        """Parse a plan file; unknown or missing keys and mistyped values
        are a ``ValueError``, as is a plan that fails ``validate``."""
        data = json_object(text, "plan")
        unknown = sorted(set(data) - {f.name for f in fields(BenchPlan)})
        if unknown:
            raise ValueError(f"unknown plan keys: {', '.join(map(repr, unknown))}")
        missing = [
            f.name
            for f in fields(BenchPlan)
            if f.name not in data and f.default is MISSING and f.default_factory is MISSING
        ]
        if missing:
            raise ValueError(f"plan misses required keys: {', '.join(map(repr, missing))}")
        for key, value in data.items():
            if key in ("sizes", "ratios", "algorithms"):
                item = str if key == "algorithms" else int
                ok = isinstance(value, list) and all(type(x) is item for x in value)
            elif key in ("mode", "instances_dir"):
                ok = isinstance(value, str) or (key == "instances_dir" and value is None)
            else:
                ok = type(value) is int
            if not ok:
                raise ValueError(f"plan key {key!r} has a value of the wrong type: {value!r}")
        plan = BenchPlan(**data)
        plan.validate()
        return plan

    def to_json(self) -> str:
        data = asdict(self)
        if self.instances_dir is None:
            del data["instances_dir"]
        return json.dumps(data, indent=2) + "\n"


def instance_id(size: int, ratio: int, idx: int) -> str:
    return f"s{size}_r{ratio}_i{idx:03d}"


def parse_instance_id(iid: str) -> tuple[int, int, int]:
    try:
        s, r, i = iid.split("_")
        return int(s[1:]), int(r[1:]), int(i[1:])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"instance id {iid!r} is not in s<size>_r<ratio>_i<idx> form") from exc


def generate_instance(size: int, ratio: int, idx: int, master_seed: int) -> tuple[Game, GenMeta]:
    seed = derive_seed(master_seed, 101, size, ratio, idx)
    return generate_fully_reduced(RatioSpec(size, ratio), seed)


def build_instance_set(plan: BenchPlan) -> list[tuple[str, Game]]:
    """Instances for the plan, loaded from disk when a directory is given
    and generated from the master seed otherwise."""
    out = []
    for size in plan.sizes:
        for ratio in plan.ratios:
            for idx in range(plan.instances_per_cell):
                iid = instance_id(size, ratio, idx)
                if plan.instances_dir is not None:
                    path = Path(plan.instances_dir) / f"{iid}.json"
                    if not path.exists():
                        raise FileNotFoundError(f"missing instance file {path}")
                    game = load_game(path)
                else:
                    game, _ = generate_instance(size, ratio, idx, plan.master_seed)
                out.append((iid, game))
    return out


def write_instance_files(plan: BenchPlan, out_dir) -> list[str]:
    """Generate the plan's instances and write instance + metadata files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids = []
    for size in plan.sizes:
        for ratio in plan.ratios:
            for idx in range(plan.instances_per_cell):
                iid = instance_id(size, ratio, idx)
                game, meta = generate_instance(size, ratio, idx, plan.master_seed)
                save_game(game, out_dir / f"{iid}.json")
                with open(out_dir / f"{iid}.meta.json", "w", encoding="utf-8") as fh:
                    json.dump(meta.as_dict(), fh, separators=(",", ":"))
                    fh.write("\n")
                ids.append(iid)
    return ids


_ALGO_INDEX = {name: i for i, name in enumerate(ALGORITHMS)}


def _run_seed(master: int, size: int, ratio: int, idx: int, algo: str, run: int) -> int:
    return derive_seed(master, 202, size, ratio, idx, _ALGO_INDEX[algo], run)


def _execute_job(job) -> BenchRecord:
    iid, game, algo, seed, mode = job
    start = time.perf_counter()
    res = SOLVERS[algo](game, seed, mode)
    wall_ms = (time.perf_counter() - start) * 1000.0
    stable = is_stable(game, res.values)
    return BenchRecord(iid, algo, seed, res.iterations, wall_ms, stable)


def run_benchmark(plan: BenchPlan, workers: int = 1) -> list[BenchRecord]:
    """Run every (instance, algorithm, seed) job and return the records
    sorted by (instance_id, algorithm, seed).

    Any solver output that fails the harness's own stability re-check
    aborts the run with a diagnostic naming the instance and seed.
    """
    plan.validate()
    instances = build_instance_set(plan)
    jobs = []
    for iid, game in instances:
        size, ratio, idx = parse_instance_id(iid)
        for algo in sorted(plan.algorithms):
            for run in range(plan.runs_per_instance):
                seed = _run_seed(plan.master_seed, size, ratio, idx, algo, run)
                jobs.append((iid, game, algo, seed, plan.mode))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_execute_job, jobs, chunksize=8))
    else:
        records = [_execute_job(job) for job in jobs]
    for rec in records:
        if not rec.stable_check:
            raise EvaluationContractError(
                f"unstable solver output on {rec.instance_id} "
                f"(algorithm {rec.algorithm}, seed {rec.seed})"
            )
    records.sort(key=lambda r: (r.instance_id, r.algorithm, r.seed))
    return records


@contextmanager
def _csv_writer(target):
    """A CSV writer on ``target``: an open text file, left open, or a path,
    opened here and closed on exit."""
    if hasattr(target, "write"):
        yield csv.writer(target)
        return
    with open(target, "w", encoding="utf-8", newline="") as fh:
        yield csv.writer(fh)


def write_records_csv(records, target) -> None:
    """Write records in the stable column order; target is a path or file."""
    with _csv_writer(target) as writer:
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.instance_id,
                    r.algorithm,
                    r.seed,
                    r.iterations,
                    f"{r.wall_time_ms:.3f}",
                    "true" if r.stable_check else "false",
                ]
            )


def records_csv_text(records) -> str:
    buf = io.StringIO()
    write_records_csv(records, buf)
    return buf.getvalue()


def read_records_csv(path) -> list[BenchRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        out = []
        for row in reader:
            iid, algo, seed, iters, wall, stable = row
            out.append(
                BenchRecord(iid, algo, int(seed), int(iters), float(wall), stable == "true")
            )
    return out


@dataclass(frozen=True)
class SummaryRow:
    size: int
    ratio: int
    algorithm: str
    runs: int
    mean_iterations: float
    std_iterations: float
    mean_wall_time_ms: float
    std_wall_time_ms: float


def summarize(records) -> list[SummaryRow]:
    """Group records per (size, ratio, algorithm) cell with means and
    population standard deviations."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[int, int, str], list[BenchRecord]] = {}
    for r in records:
        size, ratio, _ = parse_instance_id(r.instance_id)
        groups.setdefault((size, ratio, r.algorithm), []).append(r)
    rows = []
    for (size, ratio, algo), recs in sorted(groups.items()):
        iters = np.array([r.iterations for r in recs], dtype=float)
        walls = np.array([r.wall_time_ms for r in recs], dtype=float)
        rows.append(
            SummaryRow(
                size=size,
                ratio=ratio,
                algorithm=algo,
                runs=len(recs),
                mean_iterations=float(iters.mean()),
                std_iterations=float(iters.std()),
                mean_wall_time_ms=float(walls.mean()),
                std_wall_time_ms=float(walls.std()),
            )
        )
    return rows


def write_summary_csv(rows, target) -> None:
    with _csv_writer(target) as writer:
        writer.writerow([f.name for f in fields(SummaryRow)])
        for r in rows:
            writer.writerow([f"{x:.6g}" if isinstance(x, float) else x for x in astuple(r)])


def write_plot_csv(rows, target) -> None:
    """Plot-ready pivot: one row per (size, ratio), one mean-iterations
    column per algorithm, so ratio is the x axis and each algorithm a
    series."""
    algos = sorted({r.algorithm for r in rows})
    cells: dict[tuple[int, int], dict[str, float]] = {}
    for r in rows:
        cells.setdefault((r.size, r.ratio), {})[r.algorithm] = r.mean_iterations
    with _csv_writer(target) as writer:
        writer.writerow(["size", "ratio"] + [f"{a}_mean_iterations" for a in algos])
        for (size, ratio), by_algo in sorted(cells.items()):
            writer.writerow(
                [size, ratio]
                + [f"{by_algo[a]:.6g}" if a in by_algo else "" for a in algos]
            )
