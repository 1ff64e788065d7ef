"""Shows that each output check of the benchmark rejects a corrupted output.

    python3 perfbench/selftest.py

Every check first accepts a correct output, then must reject the same
output with one fault planted.  Exits 1 when any check fails to do so.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

import run  # sets the BLAS thread count and the import paths
import checks
import workloads

failures = 0


def expect(name: str, problems: list[str], reject: bool, reason: str = "") -> None:
    """A check must reject the faulty output (for ``reason`` when given)
    and accept the correct one."""
    global failures
    ok = bool(problems) == reject and (not reason or any(reason in p for p in problems))
    failures += not ok
    verdict = "rejects" if problems else "accepts"
    print(f"{'PASS' if ok else 'FAIL'} {verdict:7s} {name}" + (f"  ({problems[0]})" if problems else ""))


def nudged(values, i, delta):
    out = list(values)
    out[i] += delta
    return out


def with_arcs(g, node, arcs):
    new = list(g.arcs)
    new[node - 1] = tuple(arcs)
    return dataclasses.replace(g, arcs=tuple(new))


def main() -> int:
    sg = run.import_stopgames()
    run.OUT_DIR.mkdir(exist_ok=True)
    gen, solve = sg.generate, sg.solve

    # Float and exact values on a small fully reduced game.
    game, _ = gen.generate_fully_reduced(gen.RatioSpec(96, 8), 5)
    inner = game.average_nodes[0] - 1
    hk = solve.solve_hoffman_karp(game, 1, "float").values.values
    perm = solve.solve_permutation_improvement(game, 2, "float").values.values
    print(f"float local-equation residual {checks.local_equation_residual(game, hk):.1e}, "
          f"hk-perm gap {max(abs(a - b) for a, b in zip(hk, perm)):.1e}")
    expect("float values", checks.check_float_values(game, hk), False)
    expect("float values, one nudged by 1e-6", checks.check_float_values(game, nudged(hk, inner, 1e-6)), True)
    expect("hk and perm agree", checks.check_agree(hk, perm), False)
    expect("hk and perm, one nudged by 1e-6", checks.check_agree(hk, nudged(perm, inner, 1e-6)), True)
    exact = solve.solve_hoffman_karp(game, 1, "exact").values.values
    expect("exact values", checks.check_exact_values(game, exact), False)
    expect("exact values, one nudged by 1e-12", checks.check_exact_values(game, nudged(exact, inner, Fraction(1, 10**12))), True)
    expect("exact values given as floats", checks.check_exact_values(game, [float(v) for v in exact]), True)

    # Checklist, stopping and size of generated games.
    expect("fully reduced game", checks.check_fully_reduced(game), False)
    t0, t1 = game.n - 1, game.n
    kinds = [k.value for k in game.kinds]
    m = kinds.index("max") + 1
    a, b = game.arcs[m - 1]
    expect("max arc pointed at a terminal", checks.check_fully_reduced(with_arcs(game, m, (t1, b))), True, "into a terminal")
    expect("duplicate arc", checks.check_fully_reduced(with_arcs(game, m, (a, a))), True, "duplicate")
    expect("self arc", checks.check_fully_reduced(with_arcs(game, m, (m, b))), True, "self arc")
    parents = {}
    for i, arcs in enumerate(game.arcs[:-2], start=1):
        for t in arcs:
            parents.setdefault(t, []).append(i)
    lone = next(v for v in range(1, game.n - 1) if len(parents[v]) == 1 and parents[v][0] != m)
    p = parents[lone][0]
    other = next(v for v in range(1, game.n - 1) if v not in (p, lone) + game.arcs[p - 1])
    expect("node left with in-degree zero",
           checks.check_fully_reduced(with_arcs(game, p, tuple(other if t == lone else t for t in game.arcs[p - 1]))), True,
           "in-degree zero")
    # One average node (t0, t1) next to the terminals, the others moved off.
    x = next(i for i in range(1, game.n - 1) if kinds[i - 1] == "avg" and t0 in game.arcs[i - 1])
    cut = with_arcs(game, x, (t0, t1))
    for i in range(1, game.n - 1):
        arcs = game.arcs[i - 1]
        if i != x and kinds[i - 1] == "avg" and (t0 in arcs or t1 in arcs):
            keep = next(t for t in arcs if t not in (t0, t1)) if set(arcs) - {t0, t1} else None
            q = next(v for v in range(1, game.n - 1) if v not in (i, keep))
            cut = with_arcs(cut, i, (keep if keep is not None else lone, q))
    expect("one average node next to both terminals", checks.check_fully_reduced(cut), True, "next to both terminals")
    expect("bad core of a stopping game", sorted(checks.bad_core(game)), False)
    u, v = m, kinds.index("max", m) + 1
    trap = with_arcs(with_arcs(game, u, (v, game.arcs[u - 1][1])), v, (u, game.arcs[v - 1][1]))
    expect("bad core of two max nodes pointing at each other", sorted(checks.bad_core(trap)), True)
    expect("size of a 96-node request", checks.check_size(game, 96), False)
    collapsed, _ = gen.generate_fully_reduced(gen.RatioSpec(128, 1), sg.rng.derive_seed(*workloads.COLLAPSE_SEED_PARTS))
    expect(f"size of the collapsed 128-node request (n={collapsed.n})", checks.check_size(collapsed, 128), True)

    # JSON round trip.
    text = sg.game.game_to_json(game)
    expect("JSON round trip", checks.check_json_round_trip(game, text, sg.game.game_from_json(text)), False)
    bad_text = sg.game.game_to_json(with_arcs(game, m, (b, a)))
    expect("JSON text with one arc pair swapped", checks.check_json_round_trip(game, bad_text, game), True)
    expect("parsed game with one arc pair swapped", checks.check_json_round_trip(game, text, with_arcs(game, m, (b, a))), True)

    # Value preservation of reduce_game on a basic game.
    ga, gb, gc = gen.ratio_counts(96, 4)
    basic = gen.generate_basic(gen.GenParams(ga + gb + gc + 2, ga, gb, gc, 11, gen.Variant.BASIC))
    reduced, report = sg.reduce.reduce_game(basic)
    vals = solve.solve_hoffman_karp(reduced, 1, "float").values.values
    rec = sg.reduce.recover_values(basic, report, {i + 1: x for i, x in enumerate(vals)})
    back = [rec[i] for i in range(1, basic.n + 1)]
    print(f"basic game {basic.n} -> {reduced.n} nodes, recovered residual "
          f"{checks.local_equation_residual(basic, [float(x) for x in back]):.1e}")
    expect("recovered values", checks.check_float_values(basic, back), False)
    moved = next(i for i in range(basic.n - 2) if i + 1 not in report.renumbering)
    expect("recovered values, a removed node nudged by 1e-6",
           checks.check_float_values(basic, nudged([float(x) for x in back], moved, 1e-6)), True)

    # The campaign's record and summary checks, on a one-cell plan.
    camp = workloads.CampaignExact()
    camp.SIZES, camp.RATIOS, camp.INSTANCES, camp.RUNS = [32], [4], 1, 2
    camp.setup(sg, 3, run.OUT_DIR)
    ops = camp.ops()
    for cell_op in (o for o in ops if o.kind == "campaign-cell"):
        cell_op.fn()
    op = next(o for o in ops if o.kind == "campaign")
    records, rows = op.fn()
    expect("campaign records and summary", camp.check([{op: (records, rows)}], workloads.Samples()), False)
    expect("campaign with one record missing", camp.check([{op: (records[1:], rows)}], workloads.Samples()), True)
    wrong = [dataclasses.replace(records[0], iterations=records[0].iterations + 1)] + records[1:]
    expect("campaign record with a changed iteration count", camp.check([{op: (wrong, rows)}], workloads.Samples()), True)
    expect("campaign summary with a row missing", camp.check([{op: (records, rows[1:])}], workloads.Samples()), True)

    print(f"{failures} check(s) misjudged" if failures else "every check accepts the correct output and rejects each fault")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
