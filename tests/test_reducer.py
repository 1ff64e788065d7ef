import functools
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (
    assert_value_preserving,
    build_game,
    oracle_scc_partition,
    oracle_values,
    random_full_game,
    random_stopping_game,
    terminal_valued_and_examinations,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stopgames import (
    Game,
    NodeKind,
    NonStoppingGameError,
    PartialGame,
    Polarity,
    ReductionReport,
    apply_trivial_reductions,
    check_assumptions,
    find_terminal_valued,
    game_from_json,
    game_to_json,
    generate_fully_reduced,
    merge_terminal_valued,
    reduce_game,
    scc_condense,
    validate_structure,
)
from stopgames.generate import GenParams, RatioSpec, Variant, generate_basic, generate_reduced, ratio_counts
from stopgames.reduce import _Work, replay_reduction
from stopgames.rng import Rng, derive_seed

MINIMAL = build_game([("avg", (2, 3))])


def test_max_with_one_terminal_arc_merges_into_terminal():
    g = build_game([("max", (4, 2)), ("avg", (3, 4))])
    reduced, report = apply_trivial_reductions(g)
    assert (1, 4, "terminal-arc") in report.merges
    assert report.constant_nodes[1] == 1
    assert_value_preserving(g, reduced, report)


def test_max_with_zero_terminal_arc_merges_into_sibling():
    g = build_game([("max", (3, 2)), ("avg", (3, 4))])
    reduced, report = apply_trivial_reductions(g)
    assert report.merges[0] == (1, 2, "terminal-arc")
    assert_value_preserving(g, reduced, report)


def test_min_terminal_rules_mirrored():
    g = build_game([("min", (4, 2)), ("avg", (3, 4))])
    _, report = apply_trivial_reductions(g)
    assert report.merges[0] == (1, 2, "terminal-arc")
    g2 = build_game([("min", (3, 2)), ("avg", (3, 4))])
    _, report2 = apply_trivial_reductions(g2)
    assert (1, 3, "terminal-arc") in report2.merges
    assert report2.constant_nodes[1] == 0


def test_identical_arcs_merge():
    g = build_game([("avg", (2, 2)), ("avg", (3, 4))])
    reduced, report = apply_trivial_reductions(g)
    assert (1, 2, "identical-arcs") in report.merges
    assert_value_preserving(g, reduced, report)


def test_average_self_arc_merges_with_other_target():
    g = build_game([("avg", (1, 2)), ("avg", (3, 4))])
    reduced, report = apply_trivial_reductions(g)
    assert (1, 2, "self-arc") in report.merges
    assert_value_preserving(g, reduced, report)


def test_zero_indegree_deletion_and_recovery():
    g = build_game([("max", (2, 3)), ("avg", (4, 5)), ("avg", (4, 5))])
    reduced, report = apply_trivial_reductions(g)
    assert 1 in report.removed_zero_indegree
    assert_value_preserving(g, reduced, report)


def test_unreachable_terminal_collapses_everything():
    # nothing points at the 0-terminal, so every node is worth 1
    g = build_game([("avg", (2, 4)), ("avg", (1, 4))])
    reduced, report = apply_trivial_reductions(g)
    assert reduced.n == 2
    assert report.constant_nodes == {1: 1, 2: 1}
    assert_value_preserving(g, reduced, report)


def test_trivial_reductions_on_random_games_preserve_values():
    shrunk = 0
    for seed in range(120):
        g = random_stopping_game(seed, max_nodes=10)
        reduced, report = apply_trivial_reductions(g)
        assert validate_structure(reduced) == []
        assert_value_preserving(g, reduced, report)
        if reduced.n < g.n:
            shrunk += 1
    assert shrunk > 30


def test_replay_reproduces_reduced_game():
    for seed in range(40):
        g = random_stopping_game(seed, max_nodes=10)
        reduced, report = reduce_game(g)
        assert replay_reduction(g, report) == reduced


def test_terminal_adjacent_pair_or_degenerate_after_trivial():
    for seed in range(80):
        g = random_stopping_game(seed, max_nodes=10)
        reduced, _ = apply_trivial_reductions(g)
        if reduced.n == 2:
            continue
        to0 = {
            i
            for i in range(1, reduced.n - 1)
            if reduced.terminal0 in reduced.arcs_of(i)
        }
        to1 = {
            i
            for i in range(1, reduced.n - 1)
            if reduced.terminal1 in reduced.arcs_of(i)
        }
        assert all(reduced.kind(i) is NodeKind.AVERAGE for i in to0 | to1)
        distinct_pair = to0 and to1 and len(to0 | to1) >= 2
        if not distinct_pair:
            vals = oracle_values(reduced)
            assert all(
                vals[i] == Fraction(1, 2) for i in range(1, reduced.n - 1)
            )


def test_one_valued_propagation_examples():
    two_avg = build_game([("avg", (2, 4)), ("avg", (1, 4))])
    assert find_terminal_valued(two_avg, Polarity.ONE) == {1, 2, 4}
    assert find_terminal_valued(MINIMAL, Polarity.ONE) == {3}
    assert find_terminal_valued(MINIMAL, Polarity.ZERO) == {2}


def test_terminal_valued_requires_stopping():
    bad = build_game([("max", (2, 4)), ("min", (1, 4))])
    with pytest.raises(NonStoppingGameError):
        find_terminal_valued(bad, Polarity.ONE)


def test_terminal_valued_matches_oracle_and_linear_cost():
    for seed in range(120):
        g = random_stopping_game(seed, max_nodes=11)
        vals = oracle_values(g)
        one, examined_one = terminal_valued_and_examinations(g, Polarity.ONE)
        zero, examined_zero = terminal_valued_and_examinations(g, Polarity.ZERO)
        assert one == {i for i, v in vals.items() if v == 1}
        assert zero == {i for i, v in vals.items() if v == 0}
        assert examined_one <= 2 * g.n
        assert examined_zero <= 2 * g.n


def test_terminal_valued_counts_duplicate_arcs_on_full_games():
    """The same oracle match and cost bound on stopping games with self
    arcs and duplicate arcs.  The generators never give a max/min node
    one target twice; here some do, so a gated node's arcs still outside
    are counted with multiplicity."""
    games = [g for g in (random_full_game(Rng(seed), decision_nodes=8) for seed in range(400)) if g.stopping]
    assert any(a == b and g.kind(i).is_decision for g in games for i, (a, b) in enumerate(g.arcs[:-2], 1))
    for g in games:
        vals = oracle_values(g)
        for polarity, value in ((Polarity.ONE, 1), (Polarity.ZERO, 0)):
            found, examined = terminal_valued_and_examinations(g, polarity)
            assert found == {i for i, v in vals.items() if v == value}
            assert examined <= 2 * g.n


def test_merge_terminal_valued_degenerate_case():
    g = build_game([("avg", (2, 4)), ("avg", (1, 4))])
    reduced, report = merge_terminal_valued(g)
    assert reduced.n == 2
    assert {(1, 4, "one-valued"), (2, 4, "one-valued")} == set(report.merges)


def test_merge_terminal_valued_identity_on_clean_instance():
    g, _ = generate_fully_reduced(RatioSpec(32, 4), seed=77)
    merged, report = merge_terminal_valued(g)
    assert merged == g
    assert report.merges == []


def test_merge_terminal_valued_idempotent_and_clean():
    for seed in range(60):
        g = random_stopping_game(seed, max_nodes=11)
        merged, _ = merge_terminal_valued(g)
        if merged.n > 2:
            assert find_terminal_valued(merged, Polarity.ONE) == {merged.terminal1}
            assert find_terminal_valued(merged, Polarity.ZERO) == {merged.terminal0}
            again, report = merge_terminal_valued(merged)
            assert again == merged and report.merges == []


def test_merge_terminal_valued_preserves_values():
    for seed in range(60):
        g = random_stopping_game(seed, max_nodes=10)
        merged, report = merge_terminal_valued(g)
        assert_value_preserving(g, merged, report)


def assert_sinks_first(g, comps) -> None:
    """Every arc of each component stays inside it, hits a terminal or
    hits an earlier component; the components partition the
    non-terminals."""
    seen: set[int] = set()
    for comp in comps:
        assert comp and not comp & seen
        for v in comp:
            for t in g.arcs_of(v):
                assert t in comp or g.kind(t).is_terminal or t in seen, (v, t)
        seen |= comp
    assert seen == {i for i in range(1, g.n + 1) if not g.kind(i).is_terminal}


def test_scc_single_component_on_fully_reduced():
    g, _ = generate_fully_reduced(RatioSpec(32, 2), seed=5)
    comps = scc_condense(g)
    assert comps == [frozenset(range(1, g.n - 1))]


def scc_single_component(g) -> bool:
    """The checklist's single-component rule read off ``scc_condense``:
    one non-terminal component, of two or more nodes or of one node with
    a self arc."""
    c = scc_condense(g)
    return len(c) == 1 and (len(c[0]) >= 2 or any(v in g.arcs[v - 1] for v in c[0]))


@st.composite
def complete_partial_games(draw):
    """Complete partial games of 3..9 nodes, two arcs per non-terminal
    with targets anywhere: self arcs and duplicate arcs included, often
    non-stopping."""
    n = draw(st.integers(3, 9))
    kinds = draw(st.lists(st.sampled_from([NodeKind.MAX, NodeKind.MIN, NodeKind.AVERAGE]), min_size=n - 2, max_size=n - 2))
    pg = PartialGame(kinds + [NodeKind.TERMINAL0, NodeKind.TERMINAL1])
    for i in range(1, n - 1):
        for t in draw(st.lists(st.integers(1, n), min_size=2, max_size=2)):
            pg.add_arc(i, t)
    return pg


@settings(max_examples=400, deadline=None)
@given(complete_partial_games())
def test_single_component_sweeps_match_scc_condense_on_partial_games(pg):
    assert check_assumptions(pg).single_nonterminal_scc == scc_single_component(pg)


def test_single_component_sweeps_match_scc_condense_on_generator_grid():
    """Basic games of the generator grid, which have 2 to 84 components,
    and its modified games before merging, most of them one component."""
    found = set()
    for size in (12, 24, 48, 100, 200):
        for ratio in (1, 4, 8):
            a, b, c = ratio_counts(size, ratio)
            for i in range(3):
                seed = derive_seed(41, size, ratio, i)
                basic = generate_basic(GenParams(a + b + c + 2, a, b, c, seed))
                modified = generate_reduced(GenParams(a + b + c + 2, a, b, c, seed, Variant.MODIFIED), merge=False)
                for g in (basic, modified):
                    single = scc_single_component(g)
                    assert check_assumptions(g).single_nonterminal_scc == single, (size, ratio, i)
                    found.add((g is basic, single))
    assert found == {(True, False), (False, False), (False, True)}


@pytest.mark.parametrize(
    "entries, single",
    [
        ([], False),  # no non-terminal
        ([("avg", (1, 3))], True),  # one non-terminal with a self arc
        ([("avg", (2, 3))], False),  # one non-terminal without one
        ([("max", (1, 1))], True),  # a duplicate self arc
        ([("avg", (3, 4)), ("min", (3, 4))], False),  # every arc into a terminal
        ([("avg", (2, 4)), ("max", (1, 3))], True),
        ([("avg", (2, 4)), ("max", (3, 3))], False),  # a path, no cycle back
    ],
)
def test_single_component_sweeps_edge_cases(entries, single):
    g = build_game(entries)
    assert scc_single_component(g) is single
    assert check_assumptions(g).single_nonterminal_scc is single


def test_scc_two_disjoint_chains():
    g = build_game([("avg", (1, 4)), ("avg", (2, 3))])
    comps = scc_condense(g)
    assert sorted(sorted(c) for c in comps) == [[1], [2]]
    assert_sinks_first(g, comps)


def test_scc_emission_is_reverse_topological():
    for seed in range(60):
        g = random_stopping_game(seed, max_nodes=12)
        assert_sinks_first(g, scc_condense(g))


def test_scc_edge_cases():
    assert scc_condense(Game(2, (NodeKind.TERMINAL0, NodeKind.TERMINAL1), ((), ()))) == []
    # node 1 has a self arc, node 2 none; each is a component of its own
    g = build_game([("avg", (1, 4)), ("avg", (1, 3))])
    assert scc_condense(g) == [frozenset({1}), frozenset({2})]
    # duplicate arcs into a non-terminal, and a cycle through them
    g = build_game([("max", (2, 2)), ("avg", (1, 4)), ("min", (1, 1))])
    assert scc_condense(g) == [frozenset({1, 2}), frozenset({3})]


def test_check_assumptions_minimal_game():
    ck = check_assumptions(MINIMAL)
    assert ck.stopping
    assert not ck.terminal_adjacent_average_pair  # only one terminal-adjacent average
    assert not ck.single_nonterminal_scc
    assert not ck.fully_reduced


def test_check_assumptions_flags_terminal_decision_arc():
    g = build_game([("max", (2, 4)), ("avg", (3, 4))])
    ck = check_assumptions(g)
    assert not ck.no_terminal_decision_arcs


def test_check_assumptions_on_fully_reduced_instance():
    g, _ = generate_fully_reduced(RatioSpec(32, 6), seed=3)
    ck = check_assumptions(g)
    assert ck.fully_reduced and ck.single_nonterminal_scc
    assert all(ok for _, ok in ck.items())


@pytest.mark.parametrize("extra", ["t0", "t1"])
def test_instance_format_admits_no_third_terminal(extra):
    """The checklist carries no "single SCC or only the two terminal
    constants" item because it cannot fail: an instance has no constant
    nodes beyond its two terminals, and a third one is rejected."""
    nodes = [
        {"id": 1, "kind": extra, "arcs": []},
        {"id": 2, "kind": "avg", "arcs": [3, 4]},
        {"id": 3, "kind": "t0", "arcs": []},
        {"id": 4, "kind": "t1", "arcs": []},
    ]
    with pytest.raises(ValueError, match=f"extra {extra[1]}-terminal at node 1"):
        game_from_json(json.dumps({"n": 4, "nodes": nodes}))


# sha256 of ReductionReport.to_json for reduce_game on basic 62-node games
# (a = b = c = 20); between them the four runs fire all six rules and
# delete in-degree-zero nodes.
REPORT_SHA256 = {
    35: "c211c339e8f4e2875eb7f9c544dfddb547cc06a35f291c881f985e26b36b2c27",
    92: "b9612cd8352816994508c1354f1ae3028802970a5bd96fa0032b36636bef888f",
    135: "3b70c24533f432517d8e2644191f121b710e7a260afbb1e04109e49f3eb467a3",
    140: "099fcaf03ffea80e88a0d53a550a384de1241c059f610f386ddc49486488347b",
}


def test_report_json_pinned():
    rules = set()
    for seed, want in REPORT_SHA256.items():
        g = generate_basic(GenParams(n=62, a=20, b=20, c=20, seed=seed))
        _, report = reduce_game(g)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == want, seed
        assert len(report.merges) + len(report.removed_zero_indegree) == len(report.events)
        assert report.removed_zero_indegree
        rules |= {rule for _, _, rule in report.merges}
    assert rules == {
        "terminal-arc",
        "identical-arcs",
        "self-arc",
        "constant-collapse",
        "one-valued",
        "zero-valued",
    }


@functools.cache
def _reduce_cases() -> tuple[tuple[str, Game], ...]:
    """The fixed grid the reducer's outputs are pinned on: two basic games
    per size and ratio, 64 to 1024 nodes, and four fully reduced games."""
    cases = []
    for size in (64, 128, 256, 512, 1024):
        for ratio in (1, 4, 8):
            a, b, c = ratio_counts(size, ratio)
            for i in range(2):
                seed = derive_seed(47, size, ratio, i)
                cases.append((f"basic {size} {ratio} {i}", generate_basic(GenParams(a + b + c + 2, a, b, c, seed))))
    for size, ratio in ((64, 1), (128, 4), (256, 8), (512, 4)):
        g, _ = generate_fully_reduced(RatioSpec(size, ratio), derive_seed(48, size, ratio))
        cases.append((f"full {size} {ratio}", g))
    return tuple(cases)


REDUCERS = {
    "reduce": reduce_game,
    "merge": merge_terminal_valued,
    "trivial": apply_trivial_reductions,
}


def _reduce_hashes() -> dict[str, str]:
    got = {}
    for key, g in _reduce_cases():
        for name, reducer in REDUCERS.items():
            reduced, report = reducer(g)
            text = game_to_json(reduced) + report.to_json()
            got[f"{key} {name}"] = hashlib.sha256(text.encode()).hexdigest()
    return got


def test_reducer_outputs_pinned():
    """Reduced game and report of each reducer on the grid, as recorded
    from the reducer that ran the 0/1 search on a mid-pipeline snapshot
    and rescanned every node after each rule (reduce_sha256.json)."""
    pinned = json.loads((Path(__file__).parent / "reduce_sha256.json").read_text())
    got = _reduce_hashes()
    assert sorted(got) == sorted(pinned)
    assert [key for key in pinned if got[key] != pinned[key]] == []


def _apply(work, event) -> None:
    if event[0] == "merge":
        work.merge(*event[1:])
    else:
        work.delete(event[1])


def test_live_count_and_work_view_search_along_every_reduction():
    """Replaying each ``reduce_game`` report of the grid: after every event
    the live count equals a recount of the alive non-terminals, and (at
    every eighth event and at the end) the 0/1 search on the work view
    finds the nodes ``find_terminal_valued`` finds on the materialized
    game, whose bad core it also checks."""
    compared = 0
    for key, g in _reduce_cases():
        _, report = reduce_game(g)
        work = _Work(g)
        for k, event in enumerate(report.events, start=1):
            _apply(work, event)
            assert work.live == len(work.alive_nonterminals()), (key, k)
            if k % 8 and k < len(report.events):
                continue
            game, renumber = work.materialize()
            for polarity, terminal in ((Polarity.ONE, game.terminal1), (Polarity.ZERO, game.terminal0)):
                forced = {renumber[v] for v in work.forced(polarity)} | {terminal}
                assert forced == find_terminal_valued(game, polarity), (key, k, polarity)
            compared += 1
    assert compared > 700


def test_replay_of_a_mismatched_report_raises():
    """The preconditions of each replayed event are checked as errors, so
    a report from another game fails under ``python -O`` as well."""
    source = build_game([("max", (2, 3)), ("avg", (4, 5)), ("avg", (4, 5))])
    _, report = apply_trivial_reductions(source)
    assert report.events[0] == ("delete", 1)
    has_parent = build_game([("avg", (2, 3)), ("avg", (1, 5)), ("avg", (4, 5))])
    with pytest.raises(ValueError, match="cannot delete node 1: it has parents"):
        replay_reduction(has_parent, report)

    with pytest.raises(ValueError, match="cannot merge node 3: not a live non-terminal"):
        replay_reduction(MINIMAL, ReductionReport(MINIMAL.n, [("merge", 3, 1, "self-arc")]))
    with pytest.raises(ValueError, match="cannot merge node 1 into node 1"):
        replay_reduction(MINIMAL, ReductionReport(MINIMAL.n, [("merge", 1, 1, "self-arc")]))
    with pytest.raises(ValueError, match="cannot merge node 1 into node 9"):
        replay_reduction(MINIMAL, ReductionReport(MINIMAL.n, [("merge", 1, 9, "self-arc")]))
    twice = ReductionReport(MINIMAL.n, [("merge", 1, 3, "one-valued"), ("merge", 1, 3, "one-valued")])
    with pytest.raises(ValueError, match="cannot merge node 1: not a live non-terminal"):
        replay_reduction(MINIMAL, twice)
    larger = generate_basic(GenParams(n=62, a=20, b=20, c=20, seed=35))
    with pytest.raises(ValueError, match="cannot (merge|delete) node"):
        replay_reduction(MINIMAL, reduce_game(larger)[1])


@st.composite
def stopping_full_games(draw):
    """Stopping games of 3..10 nodes with arc targets anywhere, self arcs
    and duplicate arcs included: the first stopping draw of
    ``conftest.random_full_game`` from a random seed."""
    rng = Rng(draw(st.integers(0, 2**64 - 1)))
    decision_nodes = draw(st.integers(1, 8))
    while True:
        g = random_full_game(rng, decision_nodes)
        if g.stopping:
            return g


# average 1 with a self arc, max 2 with a 1-terminal arc, min 3 with a
# duplicate arc on the 0-terminal
@settings(max_examples=200, deadline=None)
@given(stopping_full_games())
@example(build_game([("avg", (1, 2)), ("max", (3, 5)), ("min", (4, 4))]))
def test_reduce_game_keeps_brute_force_values(g):
    reduced, report = reduce_game(g)
    assert validate_structure(reduced) == []
    assert_value_preserving(g, reduced, report)


@settings(max_examples=300, deadline=None)
@given(stopping_full_games())
def test_scc_condense_reverse_topological(g):
    comps = scc_condense(g)
    assert_sinks_first(g, comps)
    assert set(comps) == oracle_scc_partition(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**64 - 1))
def test_scc_condense_matches_mutual_reachability_on_basic_games(a, b, c, seed):
    g = generate_basic(GenParams(a + b + c + 2, a, b, c, seed))
    comps = scc_condense(g)
    assert set(comps) == oracle_scc_partition(g)
    assert_sinks_first(g, comps)
