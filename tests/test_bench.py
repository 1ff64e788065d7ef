import functools
import json
import subprocess
import sys
from dataclasses import fields

import pytest
from conftest import fallback_chain, records_csv_text, twin_chain
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stopgames import cli, game_from_json, load_game, save_game
from stopgames import solve as solve_module

from stopgames.bench import (
    CSV_HEADER,
    BenchPlan,
    instance_id,
    parse_instance_id,
    read_records_csv,
    run_benchmark,
    summarize,
    write_instance_files,
    write_plot_csv,
    write_records_csv,
    write_summary_csv,
)
from stopgames.cli import main


def small_plan(**overrides):
    base = dict(
        sizes=[32],
        ratios=[4],
        instances_per_cell=2,
        runs_per_instance=3,
        algorithms=["hk"],
        master_seed=7,
    )
    base.update(overrides)
    return BenchPlan(**base)


def strip_wall_time(csv_text: str) -> str:
    lines = []
    for line in csv_text.splitlines():
        cols = line.split(",")
        del cols[4]
        lines.append(",".join(cols))
    return "\n".join(lines)


def test_record_cardinality_and_stability():
    records = run_benchmark(small_plan())
    assert len(records) == 2 * 3  # instances x runs, one algorithm
    assert all(r.stable_check for r in records)
    assert all(r.iterations >= 1 for r in records)


def test_record_count_scales_with_algorithms():
    records = run_benchmark(small_plan(algorithms=["hk", "perm"], runs_per_instance=2))
    assert len(records) == 2 * 2 * 2


def test_benchmark_determinism_modulo_wall_time():
    a = records_csv_text(run_benchmark(small_plan()))
    b = records_csv_text(run_benchmark(small_plan()))
    assert strip_wall_time(a) == strip_wall_time(b)


def test_records_sorted_and_round_trip(tmp_path):
    records = run_benchmark(small_plan(algorithms=["hk", "perm"]))
    keys = [(r.instance_id, r.algorithm, r.seed) for r in records]
    assert keys == sorted(keys)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    back = read_records_csv(path)
    assert [
        (r.instance_id, r.algorithm, r.seed, r.iterations, r.stable_check) for r in back
    ] == [(r.instance_id, r.algorithm, r.seed, r.iterations, r.stable_check) for r in records]
    assert all(
        abs(a.wall_time_ms - b.wall_time_ms) < 1e-3 for a, b in zip(back, records)
    )


def test_csv_header_exact(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(run_benchmark(small_plan()), path)
    header = path.read_text().splitlines()[0]
    assert header == "instance_id,algorithm,seed,iterations,wall_time_ms,stable_check"


def test_instance_id_round_trip():
    assert parse_instance_id(instance_id(128, 3, 12)) == (128, 3, 12)
    with pytest.raises(ValueError):
        parse_instance_id("nonsense")


def test_plan_validation():
    with pytest.raises(ValueError):
        small_plan(algorithms=["bf"]).validate()  # 32 nodes exceed the bf cap
    with pytest.raises(ValueError):
        small_plan(ratios=[9]).validate()
    with pytest.raises(ValueError):
        small_plan(instances_per_cell=0).validate()
    with pytest.raises(ValueError):
        small_plan(algorithms=["nope"]).validate()
    # a repeated size, ratio or algorithm would run the same jobs twice
    for change, named in (
        ({"sizes": [32, 64, 32]}, "plan sizes repeat 32"),
        ({"ratios": [4, 4]}, "plan ratios repeat 4"),
        ({"algorithms": ["hk", "perm", "hk"]}, "plan algorithms repeat 'hk'"),
    ):
        with pytest.raises(ValueError, match=named):
            small_plan(**change).validate()


def test_plan_json_round_trip():
    plan = small_plan()
    assert BenchPlan.from_json(plan.to_json()) == plan


def test_instances_dir_loading(tmp_path):
    plan = small_plan()
    write_instance_files(plan, tmp_path)
    from_disk = run_benchmark(small_plan(instances_dir=str(tmp_path)))
    generated = run_benchmark(plan)
    assert strip_wall_time(records_csv_text(from_disk)) == strip_wall_time(
        records_csv_text(generated)
    )
    missing = small_plan(instances_per_cell=3, instances_dir=str(tmp_path))
    with pytest.raises(FileNotFoundError):
        run_benchmark(missing)


def test_worker_pool_matches_sequential():
    plan = small_plan()
    seq = records_csv_text(run_benchmark(plan, workers=1))
    par = records_csv_text(run_benchmark(plan, workers=2))
    assert strip_wall_time(seq) == strip_wall_time(par)


def test_summarize_single_record():
    records = run_benchmark(small_plan(instances_per_cell=1, runs_per_instance=1))
    rows = summarize(records)
    assert len(rows) == 1
    row = rows[0]
    assert row.runs == 1
    assert row.mean_iterations == records[0].iterations
    assert row.std_iterations == 0.0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summary_and_plot_files(tmp_path):
    records = run_benchmark(small_plan(algorithms=["hk", "perm"]))
    rows = summarize(records)
    spath, ppath = tmp_path / "summary.csv", tmp_path / "plot.csv"
    write_summary_csv(rows, spath)
    write_plot_csv(rows, ppath)
    header = spath.read_text().splitlines()[0]
    assert header.startswith("size,ratio,algorithm,runs,mean_iterations")
    plot_lines = ppath.read_text().splitlines()
    assert plot_lines[0] == "size,ratio,hk_mean_iterations,perm_mean_iterations"
    assert plot_lines[1].startswith("32,4,")


def test_summary_covers_ratio_by_size_grid():
    # the summary data reshapes into the ratio-rows x size-columns table
    plan = small_plan(
        sizes=[32, 64], ratios=list(range(1, 9)), instances_per_cell=2, runs_per_instance=2
    )
    rows = summarize(run_benchmark(plan))
    grid = {(r.ratio, r.size): r.mean_iterations for r in rows if r.algorithm == "hk"}
    assert set(grid) == {(ratio, size) for ratio in range(1, 9) for size in (32, 64)}
    assert all(v >= 1 for v in grid.values())


def test_permutation_beats_hoffman_karp_per_cell():
    plan = small_plan(
        ratios=[1, 4, 8], instances_per_cell=3, runs_per_instance=3, algorithms=["hk", "perm"]
    )
    rows = summarize(run_benchmark(plan))
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r.size, r.ratio), {})[r.algorithm] = r.mean_iterations
    for cell, means in by_cell.items():
        assert means["perm"] < means["hk"], f"cell {cell}: {means}"


def test_cli_generate_verify_solve_reduce(tmp_path, capsys):
    out_dir = tmp_path / "instances"
    rc = main(
        [
            "generate",
            "--size", "32",
            "--ratio", "4",
            "--count", "2",
            "--seed", "5",
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    ids = capsys.readouterr().out.split()
    assert ids == ["s32_r4_i000", "s32_r4_i001"]
    inst = out_dir / "s32_r4_i000.json"
    meta = json.loads((out_dir / "s32_r4_i000.meta.json").read_text())
    assert set(meta) >= {"seed", "variant", "a", "b", "c", "retries"}

    assert main(["verify", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "stopping: yes" in out

    assert main(["solve", "--algo", "hk", "--seed", "3", "--mode", "exact", str(inst)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is True and payload["iterations"] >= 1
    assert payload["mode"] == "exact"

    reduced_path = tmp_path / "reduced.json"
    assert main(["reduce", str(inst), str(reduced_path)]) == 0
    capsys.readouterr()
    assert reduced_path.exists()
    assert (tmp_path / "reduced.json.report.json").exists()
    load_game(reduced_path)


def test_cli_verify_rejects_non_stopping(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "n": 4,
                "nodes": [
                    {"id": 1, "kind": "max", "arcs": [2, 4]},
                    {"id": 2, "kind": "min", "arcs": [1, 4]},
                    {"id": 3, "kind": "t0", "arcs": []},
                    {"id": 4, "kind": "t1", "arcs": []},
                ],
            }
        )
    )
    assert main(["verify", str(bad)]) == 1
    assert "stopping: no" in capsys.readouterr().out


def test_cli_missing_file_exit_code(capsys):
    assert main(["verify", "/nonexistent/instance.json"]) == 1
    assert "error:" in capsys.readouterr().err


MINIMAL_NODES = [
    {"id": 1, "kind": "avg", "arcs": [2, 3]},
    {"id": 2, "kind": "t0", "arcs": []},
    {"id": 3, "kind": "t1", "arcs": []},
]


@pytest.mark.parametrize(
    "instance",
    [
        {"n": 3},
        {"n": 3, "nodes": [{**MINIMAL_NODES[0], "arcs": [2, "3"]}] + MINIMAL_NODES[1:]},
        {"n": "3", "nodes": MINIMAL_NODES},
        {"n": 3, "nodes": [[1, "avg", [2, 3]]] + MINIMAL_NODES[1:]},
        {"n": 3, "nodes": [{**MINIMAL_NODES[0], "id": "1"}] + MINIMAL_NODES[1:]},
        {"n": 3, "nodes": [{**MINIMAL_NODES[0], "arcs": 2}] + MINIMAL_NODES[1:]},
        [3],
    ],
)
def test_cli_malformed_instance_exits_1_with_one_line(tmp_path, capsys, instance):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(instance))
    assert main(["solve", "--algo", "hk", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "change",
    [
        {"bogus": 1},
        {"sizes": "32"},
        {"ratios": [4.0]},
        {"algorithms": [["hk"]]},
        {"master_seed": None},
        {"sizes": [32, 32]},
        {"ratios": [4, 4]},
        {"algorithms": ["hk", "hk"]},
    ],
)
def test_cli_malformed_plan_exits_1_with_one_line(tmp_path, capsys, change):
    plan = json.loads(small_plan().to_json())
    plan.update(change)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert main(["bench", "--plan", str(path), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "plan,missing",
    [
        ({}, "'sizes', 'ratios', 'instances_per_cell', 'runs_per_instance'"),
        ({"sizes": [32], "ratios": [4], "instances_per_cell": 2}, "'runs_per_instance'"),
    ],
    ids=["empty", "no-runs"],
)
def test_cli_plan_without_required_keys_exits_1_naming_them(tmp_path, capsys, monkeypatch, plan, missing):
    """A plan file must name its sizes, ratios and counts; without them
    the CLI starts no campaign and names the missing keys."""
    monkeypatch.setattr(cli, "run_benchmark", lambda plan, workers: pytest.fail("a campaign started"))
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert main(["bench", "--plan", str(path), "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err == f"error: plan misses required keys: {missing}\n"


def one_line_error(code: int, err: str) -> bool:
    return code == 1 and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("count", [0, -1])
def test_cli_generate_rejects_non_positive_count(tmp_path, capsys, count):
    """A count below 1 is an invalid plan: exit 1 before any file or
    directory is written."""
    out = tmp_path / "inst"
    argv = ["generate", "--size", "32", "--ratio", "4", "--count", str(count), "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: instance and run counts must be positive\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_bench_rejects_zero_workers(tmp_path, capsys):
    """A worker count below 1 exits 1 with one line, before any records
    file is written."""
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(small_plan().to_json())
    out = tmp_path / "records.csv"
    assert main(["bench", "--plan", str(plan_path), "--out", str(out), "--workers", "0"]) == 1
    assert capsys.readouterr().err == "error: worker count must be at least 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_cli_deeply_nested_json_exits_1_with_one_line(tmp_path, capsys, command):
    """Nesting past the JSON parser's recursion limit is a malformed file,
    not a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    argv = ["verify", str(path)] if command == "verify" else ["bench", "--plan", str(path), "--out", str(tmp_path / "r.csv")]
    assert one_line_error(main(argv), capsys.readouterr().err)


def json_documents(keys, words):
    """Encoded JSON values of every type, with object keys and strings
    often drawn from the schema's own names so that fields get past the
    first checks; mixed with arbitrary bytes."""
    leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.sampled_from(words)
    values = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(keys) | st.text(), inner, max_size=5),
        max_leaves=20,
    )
    return values.map(lambda v: json.dumps(v).encode()) | st.binary()


def parses(parse, data: bytes) -> bool:
    """Whether the parser accepts the file; any exception but
    ``ValueError`` escapes and fails the test."""
    try:
        parse(data.decode("utf-8"))
    except ValueError:
        return False
    return True


FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(json_documents(["n", "nodes", "id", "kind", "arcs"], ["max", "min", "avg", "t0", "t1"]))
def test_cli_fuzzed_instance_file_exits_1_with_one_line(tmp_path, capsys, data):
    path = tmp_path / "fuzz.json"
    path.write_bytes(data)
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    if parses(game_from_json, data):  # a well-formed game: verify reports on stdout
        assert code in (0, 1) and not err
    else:
        assert one_line_error(code, err)


@FUZZ
@given(json_documents([f.name for f in fields(BenchPlan)], ["hk", "perm", "bf", "vi", "exact", "float"]))
@example(b'{"line\\nbreak": 1}')  # an unknown key is quoted, so its message stays one line
def test_cli_fuzzed_plan_file_exits_1_with_one_line(tmp_path, capsys, monkeypatch, data):
    monkeypatch.setattr(cli, "run_benchmark", lambda plan, workers: [])  # an accepted plan runs nothing
    path = tmp_path / "fuzz.json"
    path.write_bytes(data)
    code = main(["bench", "--plan", str(path), "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    if parses(BenchPlan.from_json, data):
        assert code == 0
    else:
        assert one_line_error(code, err)


# A fully reduced 17-node game (generate_instance(16, 4, 0, 5)) with ten
# decision nodes, few enough for brute force.
PINNED_INSTANCE = (
    '{"n":17,"nodes":[{"id":1,"kind":"min","arcs":[10,3]},{"id":2,"kind":"max","arcs":[11,5]},{"id":3,"kind":"avg","arcs":[6,2]},{"id":4,"kind":"min","arcs":[13,1]},{"id":5,"kind":"min","arcs":[15,4]},{"id":6,"kind":"max","arcs":[10,13]},{"id":7,"kind":"max","arcs":[9,8]},{"id":8,"kind":"min","arcs":[12,14]},{"id":9,"kind":"max","arcs":[11,5]},{"id":10,"kind":"min","arcs":[14,12]},{"id":11,"kind":"avg","arcs":[15,17]},{"id":12,"kind":"avg","arcs":[17,11]},{"id":13,"kind":"max","arcs":[14,11]},{"id":14,"kind":"avg","arcs":[17,12]},{"id":15,"kind":"avg","arcs":[16,7]},{"id":16,"kind":"t0","arcs":[]},{"id":17,"kind":"t1","arcs":[]}]}\n'
)

# `stopgames solve --seed 3 --mode exact` on PINNED_INSTANCE.  Brute force
# and value iteration take no seed, so theirs reads null.  Both ignore
# --mode: brute force always runs in exact arithmetic, so `--mode float`
# prints the same line, and value iteration always runs in float.
PINNED_STDOUT = {
    "hk": '{"algorithm": "hk", "seed": 3, "iterations": 2, "mode": "exact", "values": ["23/28", "5/7", "23/28", "23/28", "3/7", "13/14", "6/7", "6/7", "5/7", "6/7", "5/7", "6/7", "13/14", "13/14", "3/7", "0", "1"], "max_strategy": {"2": 0, "6": 1, "7": 1, "9": 0, "13": 0}, "min_strategy": {"1": 1, "4": 1, "5": 0, "8": 0, "10": 1}, "stable": true}',
    "perm": '{"algorithm": "perm", "seed": 3, "iterations": 1, "mode": "exact", "values": ["23/28", "5/7", "23/28", "23/28", "3/7", "13/14", "6/7", "6/7", "5/7", "6/7", "5/7", "6/7", "13/14", "13/14", "3/7", "0", "1"], "max_strategy": {"2": 0, "6": 1, "7": 1, "9": 0, "13": 0}, "min_strategy": {"1": 1, "4": 1, "5": 0, "8": 0, "10": 1}, "stable": true}',
    "bf": '{"algorithm": "bf", "seed": null, "iterations": 410, "mode": "exact", "values": ["23/28", "5/7", "23/28", "23/28", "3/7", "13/14", "6/7", "6/7", "5/7", "6/7", "5/7", "6/7", "13/14", "13/14", "3/7", "0", "1"], "max_strategy": {"2": 0, "6": 1, "7": 1, "9": 0, "13": 0}, "min_strategy": {"1": 1, "4": 1, "5": 0, "8": 0, "10": 1}, "stable": true}',
    "vi": '{"algorithm": "vi", "seed": null, "iterations": 68, "mode": "float", "values": ["0.821428571427532", "0.7142857142853245", "0.8214285714279868", "0.8214285714266225", "0.428571428570649", "0.928571428570649", "0.8571428571422075", "0.8571428571426623", "0.7142857142853245", "0.8571428571426623", "0.7142857142853245", "0.8571428571426623", "0.9285714285711038", "0.9285714285713311", "0.428571428570649", "0.0", "1.0"], "stable": true}',
}


@pytest.mark.parametrize(
    "algo,mode",
    [pytest.param(algo, "exact", id=algo) for algo in sorted(PINNED_STDOUT)] + [pytest.param("bf", "float", id="bf-float")],
)
def test_cli_solve_stdout_pinned(tmp_path, capsys, algo, mode):
    path = tmp_path / "game.json"
    path.write_text(PINNED_INSTANCE)
    assert main(["solve", "--algo", algo, "--seed", "3", "--mode", mode, str(path)]) == 0
    assert capsys.readouterr().out == PINNED_STDOUT[algo] + "\n"


# Both players can keep play between nodes 1 and 2 forever; in the second
# game an average node hangs off the cycle, so the permutation solver has
# an average to order.
NON_STOPPING = {
    "max-min cycle": [
        {"id": 1, "kind": "max", "arcs": [2, 4]},
        {"id": 2, "kind": "min", "arcs": [1, 4]},
        {"id": 3, "kind": "t0", "arcs": []},
        {"id": 4, "kind": "t1", "arcs": []},
    ],
    "cycle with an average": [
        {"id": 1, "kind": "max", "arcs": [2, 5]},
        {"id": 2, "kind": "min", "arcs": [1, 3]},
        {"id": 3, "kind": "avg", "arcs": [1, 5]},
        {"id": 4, "kind": "t0", "arcs": []},
        {"id": 5, "kind": "t1", "arcs": []},
    ],
}


@pytest.mark.parametrize("algo", ["hk", "perm", "bf", "vi"])
@pytest.mark.parametrize("name", sorted(NON_STOPPING))
def test_cli_solve_rejects_non_stopping(tmp_path, capsys, algo, name):
    path = tmp_path / "cycle.json"
    nodes = NON_STOPPING[name]
    path.write_text(json.dumps({"n": len(nodes), "nodes": nodes}))
    assert main(["solve", "--algo", algo, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "requires a stopping game" in captured.err


@pytest.mark.parametrize("algo", ["hk", "perm"])
def test_cli_float_solve_of_ill_conditioned_chain_exits_1(tmp_path, capsys, algo):
    """A float LU of the k = 80 chain's value system is exactly singular:
    an input float64 cannot solve, reported in one line, not a defect."""
    path = tmp_path / "chain80.json"
    save_game(fallback_chain(80), path)
    assert main(["solve", "--algo", algo, "--mode", "float", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: float64 could not solve the value system")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("algo", ["hk", "perm"])
def test_cli_float_solve_of_twin_chain_exits_1(tmp_path, capsys, algo):
    """At k = 80 a float solve of the twin chain's value system lands
    outside [0, 1]: float64 cannot solve it, reported in one line, and
    exact mode can."""
    path = tmp_path / "twin80.json"
    save_game(twin_chain(80), path)
    assert main(["solve", "--algo", algo, "--mode", "float", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: float64 could not solve the value system")
    assert "outside [0, 1]" in captured.err and captured.err.count("\n") == 1
    assert main(["solve", "--algo", algo, "--mode", "exact", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["values"][0] == "1/2"


def test_cli_value_iteration_cap_exits_1(tmp_path, capsys, monkeypatch):
    """vi on the k = 20 twin chain reaches its sweep cap, here lowered to
    50 sweeps: a numerical non-convergence, reported in one line with
    exit 1, not as a contract failure."""
    path = tmp_path / "twin20.json"
    save_game(twin_chain(20), path)
    capped = functools.partial(solve_module.solve_value_iteration, max_sweeps=50)
    monkeypatch.setattr(solve_module, "solve_value_iteration", capped)
    assert main(["solve", "--algo", "vi", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: value iteration did not converge in 50 sweeps\n"


def test_cli_bench_rejects_non_stopping_instance_file(tmp_path, capsys):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    nodes = NON_STOPPING["cycle with an average"]
    (inst_dir / "s6_r4_i000.json").write_text(json.dumps({"n": len(nodes), "nodes": nodes}))
    plan = BenchPlan(
        sizes=[6],
        ratios=[4],
        instances_per_cell=1,
        runs_per_instance=1,
        algorithms=["bf", "vi"],
        instances_dir=str(inst_dir),
    )
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(plan.to_json())
    csv_path = tmp_path / "records.csv"
    assert main(["bench", "--plan", str(plan_path), "--out", str(csv_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not csv_path.exists()


def test_cli_verify_prints_six_assumptions(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(PINNED_INSTANCE)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("assumption ")] == [
        "assumption pass: stopping",
        "assumption pass: no max/min arcs to terminals",
        "assumption pass: no duplicate or self arcs",
        "assumption pass: no in-degree-zero nodes",
        "assumption pass: average nodes adjacent to both terminals",
        "assumption pass: no forced 0/1-valued nodes",
    ]


def test_cli_bench_and_summarize(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(small_plan().to_json())
    csv_path = tmp_path / "records.csv"
    assert main(["bench", "--plan", str(plan_path), "--out", str(csv_path)]) == 0
    capsys.readouterr()
    assert len(read_records_csv(csv_path)) == 6
    summary_path = tmp_path / "summary.csv"
    assert main(["summarize", str(csv_path), "--out", str(summary_path)]) == 0
    capsys.readouterr()
    assert summary_path.exists()
    assert (tmp_path / "summary_plot.csv").exists()


GOOD_ROW = "s32_r4_i000,hk,5,2,1.250,true"


@pytest.mark.parametrize(
    "row",
    [
        "s32_r4_i000,hk,5,2,1.250," + "x" * 131073,
        "s32_r4_i000,hk,5,2,1.250,maybe",
        's32_r4_i000,hk,5,2,1.250,"true',
        "s32_r4_i000,hk,5,2,nan,true",
        "s32_r4_i000,hk,5,2,-1.0,true",
        "s32_r4_i000,hk,5.0,2,1.250,true",
        "s32_r4_i000,hk,5,2,1.250,true,extra",
        "s32_r4_i000,hk,5,2,true",
        "s32_r4_i000,zz,1,-2,1.0,true",
        "s32_r4_i000,hk,-1,2,1.250,true",
        "s32_r4_i000,hk,5,0,1.250,true",
        "s32_r4_i000,hk,5,2,1.250,false",
        "nonsense,hk,5,2,1.250,true",
        "x32_y4_z000,hk,5,2,1.250,true",
        "s-5_r99_i000,hk,5,2,1.250,true",
        "s32_r4_i1,hk,5,2,1.250,true",
        "s32_r4_i-01,hk,5,2,1.250,true",
    ],
    ids=[
        "huge-field",
        "maybe",
        "unclosed-quote",
        "nan-wall",
        "negative-wall",
        "float-seed",
        "extra-column",
        "missing-column",
        "unknown-algorithm",
        "negative-seed",
        "zero-iterations",
        "unstable",
        "bad-instance-id",
        "instance-id-letters",
        "instance-id-out-of-range",
        "instance-id-unpadded",
        "instance-id-negative-index",
    ],
)
def test_cli_summarize_rejects_malformed_records(tmp_path, capsys, row):
    """A malformed row exits 1 with one line naming its line number, and
    no summary or plot file is written."""
    csv_path = tmp_path / "records.csv"
    csv_path.write_text(",".join(CSV_HEADER) + "\n" + GOOD_ROW + "\n" + row + "\n")
    summary_path = tmp_path / "summary.csv"
    code = main(["summarize", str(csv_path), "--out", str(summary_path)])
    err = capsys.readouterr().err
    assert one_line_error(code, err) and "records line 3: " in err, err[:200]
    assert not summary_path.exists() and not (tmp_path / "summary_plot.csv").exists()


# Run in a fresh interpreter, where the solvers have not yet imported SciPy:
# each timed solve of a bench run finds every SciPy module they use loaded.
FIRST_RUN_SCIPY = """
import sys

from stopgames import bench
from stopgames.bench import BenchPlan

solve = bench.SOLVERS["hk"]
checked = []


def checking(g, seed, mode):
    checked.append({"scipy.linalg.lapack", "scipy.sparse.linalg"} <= set(sys.modules))
    return solve(g, seed, mode)


assert "scipy" not in sys.modules
bench.SOLVERS = {"hk": checking}
bench.run_benchmark(BenchPlan(sizes=[32], ratios=[4], instances_per_cell=1, runs_per_instance=2, algorithms=["hk"]))
assert checked == [True, True], checked
"""


def test_bench_loads_scipy_before_its_first_timed_solve():
    proc = subprocess.run([sys.executable, "-c", FIRST_RUN_SCIPY], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(small_plan(instances_per_cell=1, runs_per_instance=1).to_json())
    csv_path = tmp_path / "records.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "stopgames", "bench", "--plan", str(plan_path), "--out", str(csv_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert csv_path.exists()
