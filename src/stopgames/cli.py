"""Command-line surface: generate, reduce, verify, solve, bench, summarize.

Exit codes: 0 on success, 1 on validation or input failures, on a
value system float64 cannot solve (exact mode can) and on value
iteration that does not converge within its sweep cap, 2 when a solver
or generator violates its own contracts (instability, cap trips).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    BenchPlan,
    read_records_csv,
    run_benchmark,
    summarize,
    write_instance_files,
    write_records_csv,
    write_summary_csv,
    write_plot_csv,
)
from .evaluate import EXACT, FLOAT, EvaluationContractError
from .game import load_game, save_game
from .generate import GenerationError
from .linsolve import SingularSystemError
from .reduce import check_assumptions, reduce_game
from .solve import SOLVERS, NonConvergenceError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stopgames",
        description="Generate, reduce, solve, and benchmark simple stochastic stopping games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate fully reduced benchmark instances")
    p.add_argument("--size", type=int, required=True, help="target node count")
    p.add_argument("--ratio", type=int, required=True, help="average:max ratio numerator (denominator 4)")
    p.add_argument("--count", type=int, default=1, help="instances to generate")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("reduce", help="apply the full reduction pipeline")
    p.add_argument("input", help="instance file")
    p.add_argument("output", help="reduced instance file")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("verify", help="validate structure, stoppingness, and assumptions")
    p.add_argument("input", help="instance file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("--algo", choices=list(SOLVERS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[EXACT, FLOAT], default=FLOAT)
    p.add_argument("input", help="instance file")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("bench", help="run a benchmark plan")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--out", required=True, help="records CSV path")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("summarize", help="summarize a records CSV")
    p.add_argument("input", help="records CSV")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.add_argument("--plot", default=None, help="plot-data CSV path (default: <out stem>_plot.csv)")
    p.set_defaults(handler=_cmd_summarize)
    return parser


def _cmd_generate(args) -> int:
    plan = BenchPlan(
        sizes=[args.size],
        ratios=[args.ratio],
        instances_per_cell=args.count,
        runs_per_instance=1,
        master_seed=args.seed,
    )
    plan.validate()
    ids = write_instance_files(plan, args.out)
    for iid in ids:
        print(iid)
    return 0


def _cmd_reduce(args) -> int:
    game = load_game(args.input)
    reduced, report = reduce_game(game)
    save_game(reduced, args.output)
    report_path = Path(args.output).with_suffix(Path(args.output).suffix + ".report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(
        f"reduced {game.n} -> {reduced.n} nodes "
        f"({len(report.merges)} merges, {len(report.removed_zero_indegree)} deletions)"
    )
    return 0


def _cmd_verify(args) -> int:
    game = load_game(args.input)
    stopping = game.stopping
    print(f"stopping: {'yes' if stopping else 'no'}")
    checklist = check_assumptions(game)
    for name, ok in checklist.items():
        print(f"assumption {'pass' if ok else 'FAIL'}: {name}")
    print(f"single non-terminal SCC: {'yes' if checklist.single_nonterminal_scc else 'no'}")
    return 0 if stopping else 1


def _cmd_solve(args) -> int:
    game = load_game(args.input)
    res = SOLVERS[args.algo](game, args.seed, args.mode)
    payload = res.payload(game)
    payload["stable"] = True  # every solver returns through solve._finish, which raises otherwise
    print(json.dumps(payload))
    return 0


def _cmd_bench(args) -> int:
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = BenchPlan.from_json(fh.read())
    records = run_benchmark(plan, workers=args.workers)
    write_records_csv(records, args.out)
    print(f"{len(records)} records -> {args.out}")
    return 0


def _cmd_summarize(args) -> int:
    records = read_records_csv(args.input)
    rows = summarize(records)
    write_summary_csv(rows, args.out)
    plot_path = args.plot
    if plot_path is None:
        out = Path(args.out)
        plot_path = out.with_name(out.stem + "_plot" + (out.suffix or ".csv"))
    write_plot_csv(rows, plot_path)
    print(f"{len(rows)} summary rows -> {args.out}, plot data -> {plot_path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (EvaluationContractError, GenerationError) as exc:
        print(f"contract failure: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:  # exact systems of stopping games are never singular
        print(f"error: float64 could not solve the value system ({exc}); --mode exact solves it", file=sys.stderr)
        return 1
    # ValueError covers NonStoppingGameError and json.JSONDecodeError
    except (NonConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
