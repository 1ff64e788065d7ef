import json

import pytest
from conftest import build_game, oracle_is_stopping, random_full_game
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stopgames import (
    EvaluationContractError,
    Game,
    NodeKind,
    PartialGame,
    Player,
    RatioSpec,
    Strategy,
    StrategyPair,
    evaluate_strategy_pair,
    find_bad_core,
    game_from_json,
    generate_basic,
    generate_fully_reduced,
    game_to_json,
    reduce_game,
    solve_hoffman_karp,
    validate_structure,
)
from stopgames.game import AVG, MAX, MIN, TERM
from stopgames.generate import GenParams, Variant, ratio_counts
from stopgames.rng import Rng

MINIMAL = build_game([("avg", (2, 3))])
CYCLE4 = build_game([("max", (2, 4)), ("min", (1, 4))])


def test_minimal_game_is_valid():
    assert validate_structure(MINIMAL) == []


def test_out_degree_violation_reported():
    g = Game(3, MINIMAL.kinds, ((2,), (), ()))
    problems = validate_structure(g)
    assert any("out-degree 1" in p for p in problems)


def test_arc_range_violation_reported():
    g = Game(3, MINIMAL.kinds, ((2, 7), (), ()))
    problems = validate_structure(g)
    assert any("out of range" in p for p in problems)


@pytest.mark.parametrize(
    "entries,arc",
    [([("avg", (3, 4))], "1 -> 4"), ([("avg", (-1, 2))], "1 -> -1")],
    ids=["past-n", "negative"],
)
@pytest.mark.parametrize(
    "use",
    [
        Game.parents,
        find_bad_core,
        reduce_game,
        lambda g: solve_hoffman_karp(g, 0),
        lambda g: evaluate_strategy_pair(g, StrategyPair(Strategy.from_choice(g, Player.MAX, {}), Strategy.from_choice(g, Player.MIN, {}))),
    ],
    ids=["parents", "find_bad_core", "reduce_game", "hk", "evaluate"],
)
def test_arc_out_of_range_fails_at_first_use(entries, arc, use):
    """A directly built game may hold an arc outside 1..n (construction
    stays permissive for ``validate_structure``); its first use raises a
    ValueError naming the arc instead of indexing past, or from the end
    of, the parent lists."""
    g = build_game(entries)
    assert any("out of range" in p for p in validate_structure(g))
    with pytest.raises(ValueError, match=f"^arc {arc} leaves the nodes 1..3$"):
        use(g)


def test_terminal_placement_enforced():
    kinds = (NodeKind.TERMINAL1, NodeKind.TERMINAL0, NodeKind.AVERAGE)
    problems = validate_structure(Game(3, kinds, ((), (), (1, 2))))
    assert problems


_T0, _T1, _AVG, _MAX = NodeKind.TERMINAL0, NodeKind.TERMINAL1, NodeKind.AVERAGE, NodeKind.MAX

# (n, kinds, arcs, every problem in the order validate_structure reports it)
STRUCTURE_CASES = {
    "no-nodes": (0, (), (), ["game needs at least the two terminals, got n=0"]),
    "one-node": (1, (_T1,), ((),), ["game needs at least the two terminals, got n=1"]),
    "length-mismatch": (3, (_AVG, _T0, _T1), ((2, 3), ()), ["kinds/arcs length does not match n"]),
    "swapped-terminals": (
        3,
        (_AVG, _T1, _T0),
        ((2, 3), (), ()),
        [
            "node 2 must be the 0-terminal",
            "node 3 must be the 1-terminal",
            "extra 1-terminal at node 2",
            "extra 0-terminal at node 3",
        ],
    ),
    "extra-0-terminal": (4, (_T0, _AVG, _T0, _T1), ((), (3, 4), (), ()), ["extra 0-terminal at node 1"]),
    "every-node-rule": (
        5,
        (_T1, _AVG, _MAX, _T0, _T1),
        ((2,), (1, 2, 3), (9, 0), (), ()),
        [
            "extra 1-terminal at node 1",
            "terminal node 1 has out-arcs",
            "node 2 has out-degree 3",
            "arc target out of range: 3 -> 9",
            "arc target out of range: 3 -> 0",
        ],
    ),
    "out-degree-below-2": (4, (_AVG, _MAX, _T0, _T1), ((3,), (), (), ()), ["node 1 has out-degree 1", "node 2 has out-degree 0"]),
}


@pytest.mark.parametrize("case", list(STRUCTURE_CASES))
def test_validate_structure_reports_every_rule_in_order(case):
    """Every rule's message, in reporting order, on a ``Game``, on a
    ``PartialGame`` (which may lack arcs, and whose arcs are set here
    directly, past ``add_arc``'s own refusals) and through
    ``game_from_json``.  Neither of the last two can build a game whose
    kinds and arcs miss n, so that rule runs on a ``Game`` alone."""
    n, kinds, arcs, problems = STRUCTURE_CASES[case]
    assert validate_structure(Game(n, kinds, arcs)) == problems
    if len(kinds) != n or len(arcs) != n:
        return
    pg = PartialGame(list(kinds))
    pg.arcs = [list(a) for a in arcs]
    assert validate_structure(pg) == [p for p in problems if not p.endswith(("out-degree 0", "out-degree 1"))]
    nodes = [{"id": i, "kind": k.value, "arcs": list(a)} for i, (k, a) in enumerate(zip(kinds, arcs), start=1)]
    with pytest.raises(ValueError) as info:
        game_from_json(json.dumps({"n": n, "nodes": nodes}))
    assert str(info.value) == "invalid instance: " + "; ".join(problems)


def test_duplicate_arcs_are_structurally_legal():
    g = build_game([("avg", (2, 2)), ("avg", (3, 4))])
    assert validate_structure(g) == []


def test_two_node_degenerate_game_is_valid():
    g = Game(2, (NodeKind.TERMINAL0, NodeKind.TERMINAL1), ((), ()))
    assert validate_structure(g) == []


def test_partial_game_out_degrees():
    pg = PartialGame(list(MINIMAL.kinds))
    assert validate_structure(pg) == []
    pg.add_arc(1, 2)
    assert validate_structure(pg) == []
    pg.add_arc(1, 3)
    with pytest.raises(ValueError):
        pg.add_arc(1, 2)


def test_bad_core_minimal_empty():
    assert find_bad_core(MINIMAL) == frozenset()
    assert MINIMAL.stopping


def test_bad_core_two_node_cycle():
    assert find_bad_core(CYCLE4) == frozenset({1, 2})
    assert not CYCLE4.stopping


def test_bad_core_average_needs_both_arcs_inside():
    # the average's second arc escapes to a terminal, so no trap exists
    g = build_game([("avg", (2, 4)), ("max", (1, 1))])
    assert find_bad_core(g) == frozenset()


def test_bad_core_matches_strategy_enumeration_oracle():
    agree = 0
    for seed in range(100):
        g = random_full_game(Rng(seed), decision_nodes=10)
        assert (find_bad_core(g) == frozenset()) == oracle_is_stopping(g)
        agree += 1
    assert agree == 100


def test_bad_core_partial_missing_arcs_count_as_leaving():
    pg = PartialGame(list(CYCLE4.kinds))
    pg.add_arc(1, 2)  # max with one arc into the would-be trap
    pg.add_arc(2, 1)
    assert find_bad_core(pg) == frozenset({1, 2})
    pg2 = PartialGame([NodeKind.AVERAGE, NodeKind.MAX, NodeKind.TERMINAL0, NodeKind.TERMINAL1])
    pg2.add_arc(1, 2)  # average missing its second arc cannot be trapped
    pg2.add_arc(2, 1)
    assert find_bad_core(pg2) == frozenset()


def test_bad_core_idempotent_on_induced_subgraph():
    for seed in range(40):
        g = random_full_game(Rng(1000 + seed), decision_nodes=9)
        core = find_bad_core(g)
        if not core:
            continue
        pg = PartialGame(list(g.kinds))
        for i in sorted(core):
            for t in g.arcs_of(i):
                if t in core:
                    pg.add_arc(i, t)
        assert find_bad_core(pg) == core


def test_bad_core_monotone_under_arc_addition():
    checked = 0
    for seed in range(200):
        rng = Rng(2000 + seed)
        g = random_full_game(rng, decision_nodes=8)
        pg = PartialGame(list(g.kinds))
        for i in range(1, g.n - 1):
            pg.add_arc(i, g.arcs_of(i)[0])
        before = find_bad_core(pg)
        grow = [i for i in range(1, g.n - 1) if pg.kind(i).is_decision]
        if not grow:
            continue
        m = grow[rng.randbelow(len(grow))]
        pg.add_arc(m, 1 + rng.randbelow(g.n))
        assert find_bad_core(pg) >= before
        checked += 1
    assert checked > 100


def test_json_round_trip_is_canonical():
    text = game_to_json(CYCLE4)
    again = game_to_json(game_from_json(text))
    assert text == again
    loose = json.dumps(json.loads(text), indent=3)
    assert game_to_json(game_from_json(loose)) == text


def test_json_fields_match_format():
    data = json.loads(game_to_json(MINIMAL))
    assert data["n"] == 3
    assert data["nodes"][0] == {"id": 1, "kind": "avg", "arcs": [2, 3]}
    assert data["nodes"][1] == {"id": 2, "kind": "t0", "arcs": []}
    assert data["nodes"][2] == {"id": 3, "kind": "t1", "arcs": []}


def test_json_rejects_bad_instances():
    with pytest.raises(ValueError):
        game_from_json('{"n": 2, "nodes": [{"id": 1, "kind": "t0", "arcs": []}]}')
    bad_kind = {
        "n": 3,
        "nodes": [
            {"id": 1, "kind": "nope", "arcs": [2, 3]},
            {"id": 2, "kind": "t0", "arcs": []},
            {"id": 3, "kind": "t1", "arcs": []},
        ],
    }
    with pytest.raises(ValueError):
        game_from_json(json.dumps(bad_kind))


def test_game_decides_stopping_once(monkeypatch):
    """A Game is immutable, so solving, reducing and checking it runs the
    bad-core fixpoint once; a PartialGame is checked afresh each time."""
    import stopgames.game as game_module
    from stopgames import check_assumptions, reduce_game, solve_hoffman_karp

    calls = []
    original = game_module.find_bad_core

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(game_module, "find_bad_core", counting)
    g = Game(MINIMAL.n, MINIMAL.kinds, MINIMAL.arcs)
    for seed in range(3):
        solve_hoffman_karp(g, seed)
    reduce_game(g)
    check_assumptions(g)
    assert g.stopping
    assert len(calls) == 1 and calls[0] is g

    pg = PartialGame([NodeKind.AVERAGE, NodeKind.TERMINAL0, NodeKind.TERMINAL1])
    pg.add_arc(1, 1)
    assert pg.stopping
    pg.add_arc(1, 1)
    assert not pg.stopping
    assert len(calls) == 3 and calls[1] is calls[2] is pg


@st.composite
def full_games(draw):
    """Games of 3..10 nodes with arc targets anywhere, often non-stopping:
    self arcs and duplicate arcs included."""
    return random_full_game(Rng(draw(st.integers(0, 2**64 - 1))), draw(st.integers(1, 8)))


# max node 1 with a duplicate arc, average 2 with a self arc, min node 3
# with a self arc and a duplicate arc
@settings(max_examples=300, deadline=None)
@given(full_games())
@example(build_game([("max", (2, 2)), ("avg", (2, 5)), ("min", (3, 3))]))
def test_layout_matches_kinds_and_arcs(g):
    par = [[] for _ in range(g.n + 1)]
    for i in range(1, g.n + 1):
        for t in g.arcs_of(i):
            par[t].append(i)
    assert g.parents() == tuple(tuple(p) for p in par)
    assert g.parents() is g.parents()  # built once per game

    codes = {NodeKind.MAX: MAX, NodeKind.MIN: MIN, NodeKind.AVERAGE: AVG}
    want = [codes.get(g.kind(i), TERM) for i in range(1, g.n + 1)]
    assert list(g.code[1:]) == want
    for nodes, code in ((g.max_nodes, MAX), (g.min_nodes, MIN), (g.average_nodes, AVG)):
        assert nodes == tuple(i for i in range(1, g.n + 1) if want[i - 1] == code)

    pg = PartialGame(list(g.kinds))
    assert list(pg.code[1:]) == want


@settings(max_examples=300, deadline=None)
@given(full_games())
@example(build_game([("max", (2, 2)), ("avg", (2, 5)), ("min", (3, 3))]))
def test_arc_layout_holds_positions(g):
    """``Game.layout`` indexes value-vector positions, node i at i - 1,
    and every position it holds is one too."""
    lay = g.layout
    assert lay.targets.shape == (2, g.n)
    for i in range(1, g.n + 1):
        pair = g.arcs_of(i) or (i, i)
        assert lay.targets[:, i - 1].tolist() == [pair[0] - 1, pair[1] - 1]

    a = len(g.average_nodes)
    want_slot = [-1] * g.n
    for col, i in enumerate(g.average_nodes):
        want_slot[i - 1] = col
    want_slot[g.terminal0 - 1], want_slot[g.terminal1 - 1] = a, a + 1
    assert lay.slot.tolist() == want_slot
    assert lay.average_nodes.tolist() == [i - 1 for i in g.average_nodes]
    assert lay.decision_nodes.tolist() == [i - 1 for i in g.max_nodes + g.min_nodes]
    assert lay.choices.tolist() == lay.targets[:, lay.decision_nodes].tolist()
    assert lay.is_max.tolist() == [k is NodeKind.MAX for k in g.kinds]
    assert lay.is_min.tolist() == [k is NodeKind.MIN for k in g.kinds]


def _max_min_cycle(g) -> bool:
    """Whether some max/min node reaches itself through max/min nodes, by
    a search from each one."""
    decision = set(g.max_nodes + g.min_nodes)
    for start in decision:
        seen, todo = set(), [start]
        while todo:
            for t in g.arcs_of(todo.pop()):
                if t == start:
                    return True
                if t in decision and t not in seen:
                    seen.add(t)
                    todo.append(t)
    return False


def _assert_children_first(g) -> None:
    order = g.decision_order
    assert sorted(order) == sorted(g.max_nodes + g.min_nodes)
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        for t in g.arcs_of(v):
            assert position.get(t, -1) < position[v], (v, t)


@settings(max_examples=300, deadline=None)
@given(full_games())
@example(build_game([("max", (2, 2)), ("avg", (2, 5)), ("min", (3, 3))]))
@example(build_game([("max", (2, 3)), ("min", (3, 3)), ("avg", (4, 5))]))
def test_decision_order_lists_children_first(g):
    """``Game.decision_order`` lists every max/min node once, after its
    max/min children, unless they close a cycle, which no stopping game
    holds and which raises."""
    if _max_min_cycle(g):
        assert not g.stopping
        with pytest.raises(EvaluationContractError, match="close a cycle"):
            g.decision_order
    else:
        _assert_children_first(g)
        assert g.decision_order is g.decision_order  # built once per game


@pytest.mark.parametrize("size,ratio", [(64, 1), (128, 8), (512, 4)])
def test_decision_order_of_generated_games(size, ratio):
    _assert_children_first(generate_fully_reduced(RatioSpec(size, ratio), 5)[0])
    a, b, c = ratio_counts(size, ratio)
    _assert_children_first(generate_basic(GenParams(a + b + c + 2, a, b, c, 5, Variant.BASIC)))
