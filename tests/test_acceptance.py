"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight benchmark reproduction (criteria 6 and 7) shares one
module-scoped run so the exact-mode solves happen once.
"""

import time

import numpy as np
import pytest
from conftest import (
    assert_value_preserving,
    brute_force_valid_arcs,
    deep_partial,
    oracle_values,
    random_stopping_game,
    records_csv_text,
    solve_by_components,
    terminal_valued_and_examinations,
)

from stopgames import (
    EXACT,
    FLOAT,
    Game,
    NodeKind,
    Polarity,
    RatioSpec,
    apply_trivial_reductions,
    find_bad_core,
    find_valid_arcs,
    generate_basic,
    generate_fully_reduced,
    generate_reduced,
    merge_terminal_valued,
    ratio_counts,
    scc_condense,
    solve_brute_force,
    solve_hoffman_karp,
    solve_permutation_improvement,
    solve_value_iteration,
)
from stopgames.bench import (
    BenchPlan,
    run_benchmark,
    write_instance_files,
)
from stopgames.generate import GenParams, Variant
from stopgames.rng import Rng, derive_seed

MASTER = 20240806

REFERENCE_MEANS = {("hk", 1): 5.5, ("hk", 8): 4.3, ("perm", 1): 2.2, ("perm", 8): 3.2}
BAND = 0.40


def report(criterion: str, message: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({message})")


# --- criterion 1 -------------------------------------------------------------


def test_criterion_1_generator_soundness():
    """1000 instances per variant over sizes 32/64/128, all stopping."""
    start = time.perf_counter()
    sizes = (32, 64, 128)
    seeds_used = set()
    for variant in (Variant.BASIC, Variant.MODIFIED):
        for i in range(1000):
            size = sizes[i % 3]
            ratio = 1 + i % 8
            a, b, c = ratio_counts(size, ratio)
            seed = derive_seed(MASTER, 1, variant is Variant.MODIFIED, i)
            assert seed not in seeds_used
            seeds_used.add(seed)
            params = GenParams(n=a + b + c + 2, a=a, b=b, c=c, seed=seed, variant=variant)
            game = (
                generate_basic(params)
                if variant is Variant.BASIC
                else generate_reduced(params)
            )
            assert find_bad_core(game) == frozenset(), f"{variant} seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"soundness sweep took {elapsed:.1f}s (target < 2 min)"
    report("criterion 1 (generator soundness)", f"2000/2000 stopping, {elapsed:.1f}s")


# --- criterion 2 -------------------------------------------------------------


def test_criterion_2_valid_arcs_oracle_equivalence():
    """find_valid_arcs equals add-arc-and-check brute force, 500 partials."""
    for trial in range(500):
        pg, m = deep_partial(derive_seed(MASTER, 2, trial), nodes=4 + trial % 9)
        assert find_valid_arcs(pg, m) == brute_force_valid_arcs(pg, m)
    report("criterion 2 (valid-arc oracle equivalence)", "500/500 exact matches")


# --- criterion 3 -------------------------------------------------------------


def small_decision_game(index: int) -> Game:
    """Stopping game with at most 12 decision nodes."""
    rng = Rng(derive_seed(MASTER, 3, index))
    decisions = 2 + rng.randbelow(11)  # 2..12
    b = 1 + rng.randbelow(decisions - 1)
    c = decisions - b
    if c < 1:
        b, c = decisions - 1, 1
    a = 1 + rng.randbelow(4)
    return generate_basic(
        GenParams(n=a + b + c + 2, a=a, b=b, c=c, seed=rng.u64(), variant=Variant.BASIC)
    )


def test_criterion_3_solver_cross_agreement():
    """HK, permutation, value iteration, and brute force agree on 200
    small games, five seeds each; float paths within 1e-9."""
    for index in range(200):
        g = small_decision_game(index)
        assert len(g.max_nodes) + len(g.min_nodes) <= 12
        truth = solve_brute_force(g).values
        vi = solve_value_iteration(g, tol=1e-12)
        assert all(
            abs(float(truth.value(i)) - vi.values.value(i)) <= 1e-9 for i in range(1, g.n + 1)
        )
        for s in range(5):
            seed = derive_seed(MASTER, 3, index, s)
            hk = solve_hoffman_karp(g, seed, EXACT)
            assert hk.values.values == truth.values
            pe = solve_permutation_improvement(g, seed, EXACT)
            assert pe.values.values == truth.values
            hkf = solve_hoffman_karp(g, seed, FLOAT)
            pef = solve_permutation_improvement(g, seed, FLOAT)
            for i in range(1, g.n + 1):
                assert abs(float(truth.value(i)) - hkf.values.value(i)) <= 1e-9
                assert abs(float(truth.value(i)) - pef.values.value(i)) <= 1e-9
    report(
        "criterion 3 (solver cross-agreement)",
        "200 games x 5 seeds: hk/perm exact-identical to brute force, vi/float within 1e-9",
    )


# --- criterion 4 -------------------------------------------------------------


def rewire(g: Game, node: int, arc_index: int, new_target: int) -> Game:
    arcs = [list(a) for a in g.arcs]
    arcs[node - 1][arc_index] = new_target
    return Game(g.n, g.kinds, tuple(tuple(a) for a in arcs))


def inject_rule(rule: str, g: Game, rng: Rng) -> Game | None:
    decisions = [i for i in range(1, g.n - 1) if g.kind(i).is_decision]
    averages = [i for i in range(1, g.n - 1) if g.kind(i) is NodeKind.AVERAGE]
    if rule == "terminal-arc":
        if not decisions:
            return None
        v = decisions[rng.randbelow(len(decisions))]
        t = (g.terminal0, g.terminal1)[rng.randbelow(2)]
        return rewire(g, v, rng.randbelow(2), t)
    if rule == "identical-arcs":
        candidates = [i for i in range(1, g.n - 1) if g.arcs_of(i)[0] != i]
        v = candidates[rng.randbelow(len(candidates))]
        return rewire(g, v, 1, g.arcs_of(v)[0])
    if rule == "self-arc":
        if not averages:
            return None
        v = averages[rng.randbelow(len(averages))]
        return rewire(g, v, 1, v)
    if rule == "constant-collapse":
        out = g
        for i in range(1, g.n - 1):
            for idx, t in enumerate(out.arcs_of(i)):
                if t == g.terminal0:
                    out = rewire(out, i, idx, g.terminal1)
        return out
    return g  # natural instances for the remaining rules


def rule_fired(rule: str, report_obj) -> bool:
    if rule == "zero-indegree":
        return bool(report_obj.removed_zero_indegree)
    return any(r == rule for _, _, r in report_obj.merges)


def test_criterion_4_reduction_value_preservation():
    """Each trivial rule and the 0/1-valued merge keep every surviving
    node's ground-truth value, 200 instances per rule."""
    rules = [
        "terminal-arc",
        "identical-arcs",
        "self-arc",
        "zero-indegree",
        "constant-collapse",
        "terminal-valued",
    ]
    for rule in rules:
        found = 0
        seed = 0
        while found < 200:
            seed += 1
            g = random_stopping_game(derive_seed(MASTER, 4, hash(rule) & 0xFFFF, seed), max_nodes=10)
            injected = inject_rule(rule, g, Rng(derive_seed(MASTER, 40, seed)))
            if injected is None or not injected.stopping:
                continue
            if rule == "terminal-valued":
                reduced, rep = merge_terminal_valued(injected)
                if not rep.merges:
                    continue
            else:
                reduced, rep = apply_trivial_reductions(injected)
                if not rule_fired(rule, rep):
                    continue
            assert_value_preserving(injected, reduced, rep)
            found += 1
    report(
        "criterion 4 (reduction value preservation)",
        "6 rules x 200 instances, exact value recovery everywhere",
    )


# --- criterion 5 -------------------------------------------------------------


def test_criterion_5_terminal_valued_correctness_and_cost():
    """0/1-valued detection matches ground truth on 200 games and never
    examines more than 2n parents."""
    for index in range(200):
        g = random_stopping_game(derive_seed(MASTER, 5, index), max_nodes=11)
        truth = oracle_values(g)
        one, cost_one = terminal_valued_and_examinations(g, Polarity.ONE)
        zero, cost_zero = terminal_valued_and_examinations(g, Polarity.ZERO)
        assert one == {i for i, v in truth.items() if v == 1}
        assert zero == {i for i, v in truth.items() if v == 0}
        assert cost_one <= 2 * g.n and cost_zero <= 2 * g.n
    report(
        "criterion 5 (0/1-valued sets)",
        "200 games: exact set match, parent examinations <= 2n",
    )


# --- criteria 6 and 7 share one benchmark run --------------------------------


@pytest.fixture(scope="module")
def desk_benchmark():
    t0 = time.perf_counter()
    means: dict[tuple[str, int], float] = {}
    monotone_violations = 0
    runs = 0
    for ratio in (1, 8):
        instances = [
            generate_fully_reduced(RatioSpec(128, ratio), derive_seed(MASTER, 6, ratio, i))[0]
            for i in range(100)
        ]
        hk_iters: list[int] = []
        perm_iters: list[int] = []
        for idx, g in enumerate(instances):
            for s in range(10):
                seed = derive_seed(MASTER, 7, ratio, idx, s)
                hk = solve_hoffman_karp(g, seed, EXACT, keep_history=True)
                hk_iters.append(hk.iterations)
                for prev, cur in zip(hk.value_history, hk.value_history[1:]):
                    # cur.scaled / cur.den against prev.scaled / prev.den, cross-multiplied
                    if any(c * prev.den < p * cur.den for p, c in zip(prev.scaled, cur.scaled)):
                        monotone_violations += 1
                pe = solve_permutation_improvement(g, seed, EXACT)
                perm_iters.append(pe.iterations)
                runs += 2
        means[("hk", ratio)] = float(np.mean(hk_iters))
        means[("perm", ratio)] = float(np.mean(perm_iters))
    elapsed = time.perf_counter() - t0
    return means, monotone_violations, runs, elapsed


def test_criterion_6_desk_scale_iteration_means(desk_benchmark):
    """Size-128 means at ratios 1:4 and 8:4 within +-40% of the reference
    iteration counts, with the expected orderings between cells."""
    means, _, runs, elapsed = desk_benchmark
    for key, reference in REFERENCE_MEANS.items():
        got = means[key]
        assert reference * (1 - BAND) <= got <= reference * (1 + BAND), (
            f"{key}: measured mean {got:.2f} outside +-40% of {reference}"
        )
    assert means[("perm", 1)] < means[("hk", 1)]
    assert means[("hk", 8)] < means[("hk", 1)]
    assert elapsed < 600, f"desk benchmark took {elapsed:.0f}s (target < 10 min)"
    detail = ", ".join(
        f"{algo} {ratio}:4 = {means[(algo, ratio)]:.2f} (ref {REFERENCE_MEANS[(algo, ratio)]})"
        for algo, ratio in sorted(REFERENCE_MEANS)
    )
    report("criterion 6 (desk-scale means)", f"{detail}; {runs} exact runs in {elapsed:.0f}s")


def test_criterion_7_hoffman_karp_monotonicity(desk_benchmark):
    """Exact-mode value vectors never decrease between improvement rounds."""
    _, violations, runs, _ = desk_benchmark
    assert violations == 0
    report(
        "criterion 7 (strategy-improvement monotonicity)",
        f"0 violations across {runs // 2} exact Hoffman-Karp runs",
    )


# --- criterion 8 -------------------------------------------------------------


def test_criterion_8_scc_component_solving():
    """Component-wise solving with boundary constants equals whole-game
    ground truth on 100 multi-component games."""
    found = 0
    seed = 0
    while found < 100:
        seed += 1
        g = random_stopping_game(derive_seed(MASTER, 8, seed), max_nodes=11)
        if len(scc_condense(g)) < 2:
            continue
        by_components = solve_by_components(g)
        truth = solve_brute_force(g).values
        assert by_components.values == truth.values
        found += 1
    report("criterion 8 (SCC condensation)", "100 multi-component games, exact equality")


# --- criterion 9 -------------------------------------------------------------


def strip_wall_time(csv_text: str) -> str:
    lines = []
    for line in csv_text.splitlines():
        cols = line.split(",")
        del cols[4]
        lines.append(",".join(cols))
    return "\n".join(lines)


def test_criterion_9_determinism(tmp_path):
    """Regenerating the size-32 slice reproduces instance files and the
    benchmark CSV byte-for-byte (timing aside)."""
    plan = BenchPlan(
        sizes=[32],
        ratios=list(range(1, 9)),
        instances_per_cell=2,
        runs_per_instance=2,
        algorithms=["hk", "perm"],
        master_seed=MASTER,
    )
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    ids_a = write_instance_files(plan, dir_a)
    ids_b = write_instance_files(plan, dir_b)
    assert ids_a == ids_b
    for iid in ids_a:
        for suffix in (".json", ".meta.json"):
            assert (dir_a / f"{iid}{suffix}").read_bytes() == (
                dir_b / f"{iid}{suffix}"
            ).read_bytes()
    csv_a = records_csv_text(run_benchmark(plan))
    csv_b = records_csv_text(run_benchmark(plan))
    assert strip_wall_time(csv_a) == strip_wall_time(csv_b)
    report(
        "criterion 9 (determinism)",
        f"{len(ids_a)} instance files byte-identical, CSV identical modulo wall time",
    )


# --- size-trend substitute for the large-instance reference means ------------


def test_size_trend_hoffman_karp_iterations_increase():
    """Mean Hoffman-Karp iterations strictly increase with size at a
    fixed ratio, the scalable stand-in for large-instance benchmarks."""
    sizes = (32, 64, 128, 256, 512)
    means = []
    for size in sizes:
        iters = []
        for i in range(20):
            g, _ = generate_fully_reduced(RatioSpec(size, 4), derive_seed(MASTER, 10, size, i))
            for s in range(3):
                iters.append(solve_hoffman_karp(g, derive_seed(MASTER, 11, size, i, s), FLOAT).iterations)
        means.append(float(np.mean(iters)))
    for smaller, larger in zip(means, means[1:]):
        assert smaller < larger, f"means not strictly increasing: {means}"
    detail = ", ".join(f"{s}:{m:.2f}" for s, m in zip(sizes, means))
    report("size-trend (HK iterations vs size)", detail)
