import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    all_strategy_pairs,
    build_game,
    oracle_evaluate,
    oracle_pair_values,
    oracle_reaching_nodes,
    oracle_successors,
    oracle_value_system,
    random_full_game,
    random_pair,
    random_stopping_game,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stopgames import (
    EXACT,
    FLOAT,
    EvaluationContractError,
    NodeKind,
    NonStoppingGameError,
    Player,
    Strategy,
    StrategyPair,
    ValueVector,
    best_response,
    evaluate_strategy_pair,
    is_stable,
    reachable_to_terminal,
    solve_brute_force,
    switchable_set,
)
from stopgames import linsolve
from stopgames.evaluate import value_vector_from_json, value_vector_to_json
from stopgames.game import stopping_game
from stopgames.generate import RatioSpec, generate_fully_reduced
from stopgames.rng import Rng

MINIMAL = build_game([("avg", (2, 3))])
CHAIN = build_game([("avg", (2, 4)), ("avg", (3, 4))])
CYCLE4_ENTRIES = [("max", (2, 4)), ("min", (1, 4))]
CYCLE4 = build_game(CYCLE4_ENTRIES)
SELF_ARCS = build_game([("max", (2, 2)), ("avg", (2, 5)), ("min", (3, 4))])

EMPTY_PAIR = StrategyPair(Strategy(Player.MAX, {}), Strategy(Player.MIN, {}))


def pair(g, sigma_bits=None, tau_bits=None):
    sigma = Strategy(Player.MAX, dict(zip(g.max_nodes, sigma_bits or [])))
    tau = Strategy(Player.MIN, dict(zip(g.min_nodes, tau_bits or [])))
    return StrategyPair(sigma, tau)


def test_reachability_minimal():
    assert reachable_to_terminal(MINIMAL, EMPTY_PAIR) == {1, 2, 3}


def test_reachability_closed_cycle():
    sp = pair(CYCLE4, sigma_bits=[0], tau_bits=[0])
    assert reachable_to_terminal(CYCLE4, sp) == {3, 4}


def test_reachability_full_on_stopping_games():
    for seed in range(100):
        g = random_stopping_game(seed)
        sp = random_pair(g, Rng(seed * 31 + 7))
        assert reachable_to_terminal(g, sp) == set(range(1, g.n + 1))


def test_evaluate_minimal_exact():
    v = evaluate_strategy_pair(MINIMAL, EMPTY_PAIR, EXACT)
    assert v.value(1) == Fraction(1, 2)
    assert v.value(2) == 0 and v.value(3) == 1


def test_evaluate_chain_hand_solved():
    v = evaluate_strategy_pair(CHAIN, EMPTY_PAIR, EXACT)
    assert [v.value(i) for i in range(1, 5)] == [
        Fraction(3, 4),
        Fraction(1, 2),
        Fraction(0),
        Fraction(1),
    ]


def test_evaluate_zero_sets_trapped_nodes():
    sp = pair(CYCLE4, sigma_bits=[0], tau_bits=[0])
    v = evaluate_strategy_pair(CYCLE4, sp, EXACT)
    assert v.value(1) == 0 and v.value(2) == 0


def test_evaluate_matches_fixpoint_oracle():
    for seed in range(60):
        g = random_stopping_game(seed, max_nodes=10)
        sp = random_pair(g, Rng(seed + 5000))
        got = evaluate_strategy_pair(g, sp, FLOAT)
        want = oracle_pair_values(g, sp)
        for i in range(1, g.n + 1):
            assert got.value(i) == pytest.approx(want[i], abs=1e-9)


def test_exact_and_float_agree():
    for seed in range(40):
        g = random_stopping_game(seed, max_nodes=12)
        sp = random_pair(g, Rng(seed + 9000))
        exact = evaluate_strategy_pair(g, sp, EXACT)
        fl = evaluate_strategy_pair(g, sp, FLOAT)
        for i in range(1, g.n + 1):
            assert abs(float(exact.value(i)) - fl.value(i)) <= 1e-9


def test_exact_and_float_agree_midsize():
    # a few hundred nodes, enough averages for the p-adic lifting path
    for size, ratio in ((256, 8), (500, 4)):
        g, _ = generate_fully_reduced(RatioSpec(size, ratio), seed=size + ratio)
        sp = random_pair(g, Rng(size * 7 + ratio))
        exact = evaluate_strategy_pair(g, sp, EXACT)
        fl = evaluate_strategy_pair(g, sp, FLOAT)
        for i in range(1, g.n + 1):
            assert abs(float(exact.value(i)) - fl.value(i)) <= 1e-9


@pytest.mark.parametrize("entries", [CYCLE4_ENTRIES, [("max", (2, 5)), ("min", (3, 5)), ("max", (1, 4))]], ids=["two", "three"])
def test_evaluate_rejects_max_min_cycle_on_game_flagged_stopping(entries):
    """A cycle of max/min nodes under the chosen arcs cannot occur on a
    stopping game; on a game wrongly built as stopping, pointer jumping
    gives up with an error instead of cycling or reading a wrong slot."""
    g = build_game(entries)
    flagged = stopping_game(g.n, g.kinds, g.arcs)
    sp = pair(g, sigma_bits=[0] * len(g.max_nodes), tau_bits=[0] * len(g.min_nodes))
    assert evaluate_strategy_pair(g, sp, EXACT).values[:len(entries)] == (0,) * len(entries)
    for mode in (EXACT, FLOAT):
        with pytest.raises(EvaluationContractError, match="close a cycle"):
            evaluate_strategy_pair(flagged, sp, mode)


def test_evaluate_rejects_incomplete_strategy():
    with pytest.raises(ValueError):
        evaluate_strategy_pair(CYCLE4, EMPTY_PAIR)


def stable_reference(g, xs, tol) -> bool:
    """``is_stable`` in Fractions: every node's gap at most ``tol``."""
    for i in range(1, g.n + 1):
        kind = g.kind(i)
        if kind.is_terminal:
            continue
        a, b = (xs[t - 1] for t in g.arcs_of(i))
        want = max(a, b) if kind is NodeKind.MAX else min(a, b) if kind is NodeKind.MIN else (a + b) / 2
        if abs(xs[i - 1] - want) > Fraction(tol):
            return False
    return True


# values 1/2, 1/2, 1/2, 3/4 under a max, a min and two average nodes
GAPS = build_game([("avg", (5, 6)), ("max", (1, 5)), ("min", (1, 6)), ("avg", (1, 6))])
GAPS_VALUES = [Fraction(1, 2)] * 3 + [Fraction(3, 4), Fraction(0), Fraction(1)]


def test_is_stable_examples():
    good = ValueVector((1, 0, 2), EXACT, 2)
    bad = ValueVector((0.4, 0.0, 1.0), FLOAT)
    assert is_stable(MINIMAL, good, 0)
    assert not is_stable(MINIMAL, bad, 1e-9)
    # an exact vector meets a float tol at the float's exact binary ratio
    for extra, stable in ((0, True), (Fraction(1, 10**30), False)):
        x = Fraction(1, 2) + Fraction(1e-9) + extra
        off = ValueVector((x.numerator, 0, x.denominator), EXACT, x.denominator)
        assert is_stable(MINIMAL, off, 1e-9) is stable
    # Each node moved by a gap exactly at tol or just past it, both ways.
    # The float cases use dyadic values, so every float sum is exact.
    cases = [(FLOAT, 2.0**-30, 2.0**-50), (EXACT, 2.0**-30, Fraction(1, 2**80))]
    cases += [(EXACT, tol, Fraction(1, 10**30)) for tol in (1e-9, Fraction(1, 3 * 10**9), 0)]
    for mode, tol, past in cases:
        for node in range(1, 5):
            for gap in (tol, -tol, tol + past, -tol - past):
                xs = list(GAPS_VALUES)
                xs[node - 1] += Fraction(gap)
                if mode == EXACT:
                    nums, den = linsolve.common_denominator(xs)
                    v = ValueVector(tuple(nums), EXACT, den)
                else:
                    v = ValueVector(tuple(map(float, xs)), FLOAT)
                    assert list(map(Fraction, v.scaled)) == xs
                expected = stable_reference(GAPS, xs, tol)
                assert expected is (abs(gap) == tol)
                assert is_stable(GAPS, v, tol) is expected, (mode, tol, node, gap)


def test_is_stable_rejects_nan():
    nan = float("nan")
    for values in ((nan, 0.0, 1.0), (0.5, 0.0, nan)):  # at the average, at the 1-terminal
        assert not is_stable(MINIMAL, ValueVector(values, FLOAT))
    parsed = value_vector_from_json('{"mode":"float","values":["nan","0.0","1.0"]}')
    assert not is_stable(MINIMAL, parsed)


def test_switchable_empty_iff_stable():
    for seed in range(50):
        g = random_stopping_game(seed, max_nodes=10)
        sp = random_pair(g, Rng(seed + 123))
        v = evaluate_strategy_pair(g, sp, EXACT)
        stable = is_stable(g, v, 0)
        empty = not switchable_set(g, v, Player.MAX) and not switchable_set(
            g, v, Player.MIN
        )
        assert stable == empty


def test_switchable_detects_better_arc():
    # max node choosing a 0-valued child with a 1-valued alternative
    g = build_game([("max", (3, 4)), ("avg", (3, 4))])
    v = ValueVector((0, 1, 0, 2), EXACT, 2)
    assert switchable_set(g, v, Player.MAX) == {1}


def test_switching_improves_max_values():
    improved = 0
    for seed in range(200):
        g = random_stopping_game(seed, max_nodes=10)
        rng = Rng(seed + 321)
        sp = random_pair(g, rng)
        v = evaluate_strategy_pair(g, sp, EXACT)
        flips = switchable_set(g, v, Player.MAX)
        if not flips:
            continue
        choice = dict(sp.sigma.choice)
        for i in flips:
            choice[i] = 1 - choice[i]
        v2 = evaluate_strategy_pair(
            g, StrategyPair(Strategy(Player.MAX, choice), sp.tau), EXACT
        )
        assert all(v2.value(i) >= v.value(i) for i in range(1, g.n + 1))
        improved += 1
    assert improved > 20


def test_best_response_min_picks_smaller_subgame():
    # min chooses between a 1/4-valued chain and a 3/4-valued chain
    g = build_game(
        [
            ("min", (2, 3)),
            ("avg", (4, 5)),  # value 1/4
            ("avg", (4, 6)),  # value 3/4
            ("avg", (5, 6)),  # value 1/2
        ]
    )
    tau, v = best_response(g, Strategy(Player.MAX, {}), Player.MIN, EXACT)
    assert tau.choice == {1: 0}
    assert v.value(1) == Fraction(1, 4)


def test_best_response_vacuous_without_responder_nodes():
    tau, v = best_response(MINIMAL, Strategy(Player.MAX, {}), Player.MIN, EXACT)
    assert tau.choice == {}
    assert v.value(1) == Fraction(1, 2)


def test_best_response_rejects_initial_missing_a_responder_node():
    g = build_game([("min", (3, 4)), ("min", (4, 3)), ("avg", (5, 6)), ("avg", (3, 6))])
    fixed = Strategy(Player.MAX, {})
    for initial in ({1: 0}, {1: 0, 3: 0}, {}):
        with pytest.raises(ValueError, match=re.escape("min strategy must cover exactly [1, 2]")):
            best_response(g, fixed, Player.MIN, EXACT, initial=Strategy(Player.MIN, initial))
    tau, _ = best_response(g, fixed, Player.MIN, EXACT, initial=Strategy(Player.MIN, {1: 1, 2: 0}))
    assert tau.choice == {1: 0, 2: 1}


def test_best_response_rejects_non_stopping():
    with pytest.raises(NonStoppingGameError):
        best_response(CYCLE4, Strategy(Player.MAX, {1: 0}), Player.MIN)


def test_best_response_matches_enumeration():
    for seed in range(40):
        g = random_stopping_game(seed, max_nodes=10)
        rng = Rng(seed + 777)
        sigma = Strategy(Player.MAX, {i: rng.randbelow(2) for i in g.max_nodes})
        _, got = best_response(g, sigma, Player.MIN, EXACT)
        best = None
        for sp in all_strategy_pairs(g):
            if sp.sigma.choice != sigma.choice:
                continue
            v = evaluate_strategy_pair(g, sp, EXACT)
            if best is None:
                best = list(v.values)
            else:
                best = [min(x, y) for x, y in zip(best, v.values)]
        assert list(got.values) == best


def test_value_vector_json_round_trip():
    v = evaluate_strategy_pair(CHAIN, EMPTY_PAIR, EXACT)
    text = value_vector_to_json(v)
    assert '"3/4"' in text
    back = value_vector_from_json(text)
    assert back == v
    vf = evaluate_strategy_pair(CHAIN, EMPTY_PAIR, FLOAT)
    assert value_vector_from_json(value_vector_to_json(vf)) == vf


# max node 2 and min node 3 alias the single average node 1 through their
# chosen arcs, so all three share the solved unknown
ALIASED = build_game([("avg", (4, 5)), ("max", (1, 4)), ("min", (2, 5))])
ALIASED_PAIR = pair(ALIASED, sigma_bits=[0], tau_bits=[0])


@pytest.mark.parametrize(
    "mode,solver,bad",
    [
        (EXACT, "solve_exact", ([3], 2)),
        (EXACT, "solve_exact", ([-1], 10**12)),
        (FLOAT, "solve_float", np.array([1.5])),
        (FLOAT, "solve_float", np.array([-1e-6])),
    ],
)
def test_evaluate_rejects_solution_outside_unit_interval(monkeypatch, mode, solver, bad):
    monkeypatch.setattr(linsolve, solver, lambda rhs, coo: bad)
    with pytest.raises(EvaluationContractError, match=r"outside \[0, 1\]"):
        evaluate_strategy_pair(ALIASED, ALIASED_PAIR, mode)


def test_evaluate_clamps_float_roundoff_on_aliases(monkeypatch):
    monkeypatch.setattr(linsolve, "solve_float", lambda rhs, coo: np.array([-1e-12]))
    v = evaluate_strategy_pair(ALIASED, ALIASED_PAIR, FLOAT)
    assert [repr(v.value(i)) for i in (1, 2, 3)] == ["0.0", "0.0", "0.0"]
    assert all(type(x) is float for x in v.values)


# under the stable pair max node 2 and min node 3 both move to average 4,
# so both children of average 1 alias one unknown: row 0 (node 1) of the
# value system holds two -1 entries in column 1 (node 4)
TWIN_ALIAS = build_game([("avg", (2, 3)), ("max", (5, 4)), ("min", (6, 4)), ("avg", (5, 6))])


def test_evaluate_children_aliasing_one_unknown(monkeypatch):
    systems = []
    solve_exact = linsolve.solve_exact

    def recording(rhs, coo):
        systems.append(coo)
        return solve_exact(rhs, coo)

    monkeypatch.setattr(linsolve, "solve_exact", recording)
    bf = solve_brute_force(TWIN_ALIAS)
    assert bf.strategies == pair(TWIN_ALIAS, sigma_bits=[1], tau_bits=[1])
    v = evaluate_strategy_pair(TWIN_ALIAS, bf.strategies, EXACT)
    assert v == bf.values
    assert list(v.values) == [Fraction(1, 2)] * 4 + [0, 1]
    rows, cols, _ = systems[-1]
    assert [(0, 1)] * 2 == [e for e in zip(rows, cols) if e == (0, 1)]
    vf = evaluate_strategy_pair(TWIN_ALIAS, bf.strategies, FLOAT)
    assert list(vf.values) == [float(x) for x in v.values]


@st.composite
def full_games_with_pairs(draw):
    """Games of 3..10 nodes with arc targets anywhere (often non-stopping,
    self arcs and duplicate arcs included) and a random strategy pair."""
    g = random_full_game(Rng(draw(st.integers(0, 2**64 - 1))), draw(st.integers(1, 8)))
    return g, random_pair(g, Rng(draw(st.integers(0, 2**64 - 1))))


# CYCLE4 is non-stopping; in the second game max node 1 has both arcs on
# node 2, average 2 has a self arc and min node 3 a self arc it keeps
@settings(max_examples=300, deadline=None)
@given(full_games_with_pairs())
@example((CYCLE4, pair(CYCLE4, sigma_bits=[0], tau_bits=[0])))
@example((SELF_ARCS, pair(SELF_ARCS, sigma_bits=[1], tau_bits=[0])))
def test_reachability_matches_forward_closure(case):
    g, sp = case
    assert reachable_to_terminal(g, sp) == oracle_reaching_nodes(g, sp)


def shuffled_pair(g, rng: Rng) -> StrategyPair:
    """A random strategy pair whose dicts list their nodes in shuffled
    order, each choice an int or a bool at random."""

    def choice(nodes):
        order = list(nodes)
        rng.shuffle(order)
        return {i: (int, bool)[rng.randbelow(2)](rng.randbelow(2)) for i in order}

    return StrategyPair(Strategy(Player.MAX, choice(g.max_nodes)), Strategy(Player.MIN, choice(g.min_nodes)))


@st.composite
def evaluation_cases(draw):
    """A game and a shuffled strategy pair: a small random stopping game, a
    fully reduced generated game of 64 to 512 nodes, or a small game with
    arc targets anywhere, often non-stopping."""
    source = draw(st.sampled_from(["stopping", "generated", "full"]))
    seed = draw(st.integers(0, 2**64 - 1))
    if source == "stopping":
        g = random_stopping_game(seed, draw(st.sampled_from([12, 40])))
    elif source == "generated":
        g, _ = generate_fully_reduced(RatioSpec(draw(st.sampled_from([64, 128, 256, 512])), draw(st.integers(1, 8))), seed)
    else:
        g = random_full_game(Rng(seed), draw(st.integers(1, 12)))
    return g, shuffled_pair(g, Rng(draw(st.integers(0, 2**64 - 1))))


def broken_pairs(sp: StrategyPair):
    """The pair with one node left out of a strategy, and with one choice
    set to 2, for each strategy that has a node."""
    for which in ("sigma", "tau"):
        strat = getattr(sp, which)
        if strat.choice:
            first = next(iter(strat.choice))
            for choice in ({i: c for i, c in strat.choice.items() if i != first}, {**strat.choice, first: 2}):
                other = sp.tau if which == "sigma" else sp.sigma
                broken = Strategy(strat.player, choice)
                yield StrategyPair(broken, other) if which == "sigma" else StrategyPair(other, broken)


@settings(max_examples=120, deadline=None)
@given(evaluation_cases())
@example((CYCLE4, pair(CYCLE4, sigma_bits=[0], tau_bits=[0])))
@example((SELF_ARCS, pair(SELF_ARCS, sigma_bits=[1], tau_bits=[0])))
@example((TWIN_ALIAS, pair(TWIN_ALIAS, sigma_bits=[1], tau_bits=[1])))
def test_array_evaluator_matches_per_node_oracle(case):
    """The array evaluator hands both solvers the system the per-node
    oracle builds, triplet for triplet, and returns equal exact and
    bit-identical float vectors; a bad strategy fails with the oracle's
    message."""
    g, sp = case
    want_rhs, want_coo, _, _ = oracle_value_system(g, sp)
    for mode, solver in ((EXACT, "solve_exact"), (FLOAT, "solve_float")):
        systems, real = [], getattr(linsolve, solver)

        def recording(rhs, coo):
            systems.append((np.asarray(rhs).tolist(), tuple(np.asarray(x).tolist() for x in coo)))
            return real(rhs, coo)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linsolve, solver, recording)
            got = evaluate_strategy_pair(g, sp, mode)
        assert systems == [(want_rhs, want_coo)]
        want = oracle_evaluate(g, sp, mode)
        assert got.den == want.den
        if mode == EXACT:
            assert got.scaled == want.scaled
        else:
            assert [x.hex() for x in got.scaled] == [x.hex() for x in want.scaled]
    for broken in broken_pairs(sp):
        with pytest.raises(ValueError) as expected:
            oracle_successors(g, broken)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            evaluate_strategy_pair(g, broken)
