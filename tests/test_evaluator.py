import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    all_strategy_pairs,
    build_game,
    common_denominator,
    oracle_evaluate,
    oracle_improve_all,
    oracle_is_stable,
    oracle_pair_values,
    oracle_strategy,
    oracle_value_system,
    random_full_game,
    random_pair,
    random_stopping_game,
    switchable_nodes,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stopgames import (
    EXACT,
    FLOAT,
    EvaluationContractError,
    Game,
    NodeKind,
    NonStoppingGameError,
    Player,
    Strategy,
    StrategyPair,
    ValueVector,
    best_response,
    evaluate_strategy_pair,
    is_stable,
    solve_brute_force,
)
from stopgames import linsolve
from stopgames.evaluate import improve_all
from stopgames.generate import RatioSpec, generate_fully_reduced
from stopgames.rng import Rng

MINIMAL = build_game([("avg", (2, 3))])
CHAIN = build_game([("avg", (2, 4)), ("avg", (3, 4))])
CYCLE4_ENTRIES = [("max", (2, 4)), ("min", (1, 4))]
CYCLE4 = build_game(CYCLE4_ENTRIES)
SELF_ARCS = build_game([("max", (2, 2)), ("avg", (2, 5)), ("min", (3, 4))])

EMPTY_PAIR = StrategyPair(Strategy.from_choice(MINIMAL, Player.MAX, {}), Strategy.from_choice(MINIMAL, Player.MIN, {}))


def pair(g, sigma_bits=None, tau_bits=None):
    sigma = Strategy.from_choice(g, Player.MAX, dict(zip(g.max_nodes, sigma_bits or [])))
    tau = Strategy.from_choice(g, Player.MIN, dict(zip(g.min_nodes, tau_bits or [])))
    return StrategyPair(sigma, tau)


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
    """The evaluator no longer sets trapped nodes to 0: it refuses a game
    that is not stopping.  Max node 1 and min node 2 can keep play between
    them forever, so the game is refused whatever the pair, even one under
    which every node reaches a terminal."""
    for sigma_bits, tau_bits in ((0, 0), (1, 1)):
        sp = pair(CYCLE4, sigma_bits=[sigma_bits], tau_bits=[tau_bits])
        for mode in (EXACT, FLOAT):
            with pytest.raises(NonStoppingGameError, match="^strategy evaluation requires a stopping game$"):
                evaluate_strategy_pair(CYCLE4, sp, mode)


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
    stopping game; on a game whose stopping flag is planted by hand,
    pointer jumping gives up with an error instead of cycling or reading
    a wrong slot."""
    g = build_game(entries)
    flagged = Game(g.n, g.kinds, g.arcs)
    flagged.__dict__["stopping"] = True
    sp = pair(g, sigma_bits=[0] * len(g.max_nodes), tau_bits=[0] * len(g.min_nodes))
    with pytest.raises(NonStoppingGameError):
        evaluate_strategy_pair(g, sp, EXACT)
    for mode in (EXACT, FLOAT):
        with pytest.raises(EvaluationContractError, match="close a cycle"):
            evaluate_strategy_pair(flagged, sp, mode)


def test_evaluate_rejects_incomplete_strategy():
    """A strategy missing an owned node cannot be built from a dict, and
    one built from too few bits is refused by the evaluator."""
    g = build_game([("max", (2, 3)), ("avg", (3, 4))])
    assert g.stopping
    with pytest.raises(ValueError, match=re.escape("max strategy must cover exactly [1]")):
        Strategy.from_choice(g, Player.MAX, {})
    with pytest.raises(ValueError, match=re.escape("max strategy must cover exactly [1]")):
        evaluate_strategy_pair(g, StrategyPair(Strategy(Player.MAX, b""), Strategy(Player.MIN, b"")))


def test_directly_built_strategies_are_checked_against_the_game():
    """A ``Strategy`` built from bits rather than a dict holds only 0/1
    bytes, and the evaluator and ``improve_all`` refuse one whose player
    or bit count does not fit the game, where a NumPy select would
    otherwise broadcast a single bit over every node or read one
    player's bits for the other's nodes."""
    # two max nodes and one min node
    g = build_game([("max", (3, 4)), ("max", (4, 3)), ("min", (4, 5)), ("avg", (5, 6))])
    assert g.stopping and g.max_nodes == (1, 2) and g.min_nodes == (3,)
    good = StrategyPair(Strategy(Player.MAX, b"\0\1"), Strategy(Player.MIN, b"\1"))
    v = evaluate_strategy_pair(g, good, EXACT)
    for sp, message in (
        (StrategyPair(Strategy(Player.MAX, b"\1"), good.tau), "max strategy must cover exactly [1, 2]"),
        (StrategyPair(Strategy(Player.MAX, b"\1"), Strategy(Player.MIN, b"\0\1")), "max strategy must cover exactly [1, 2]"),
        (StrategyPair(good.sigma, Strategy(Player.MIN, b"")), "min strategy must cover exactly [3]"),
        (StrategyPair(good.tau, good.sigma), "expected a max strategy, got a min one"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_strategy_pair(g, sp, EXACT)
    for strat, message in (
        (Strategy(Player.MAX, b"\1"), "max strategy must cover exactly [1, 2]"),
        (Strategy(Player.MIN, b"\0\0"), "min strategy must cover exactly [3]"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            improve_all(g, strat, v)
    for bits in (b"\2", b"\0\xff", [0, 1]):
        with pytest.raises(ValueError, match="max strategy bits must be bytes of 0s and 1s"):
            Strategy(Player.MAX, bits)


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
                    nums, den = common_denominator(xs)
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


def test_is_stable_tolerance_follows_the_mode():
    """Without a ``tol`` an exact vector is checked exactly and a float
    one at ``DEFAULT_STABLE_TOL``."""
    x = Fraction(1, 2) + Fraction(1, 2**40)
    off = ValueVector((x.numerator, 0, x.denominator), EXACT, x.denominator)
    assert not is_stable(MINIMAL, off)
    assert is_stable(MINIMAL, off, 1e-9)
    for gap, stable in ((2.0**-40, True), (2.0**-29, False)):
        assert is_stable(MINIMAL, ValueVector((0.5 + gap, 0.0, 1.0), FLOAT)) is stable


def switched(g, strat, v) -> set[int]:
    """The nodes ``improve_all`` switches in ``strat`` under ``v``."""
    better = improve_all(g, strat, v)
    return set() if better is None else {i for i, c in strat.choice(g).items() if better.choice(g)[i] != c}


def test_switchable_empty_iff_stable():
    for seed in range(50):
        g = random_stopping_game(seed, max_nodes=10)
        sp = random_pair(g, Rng(seed + 123))
        v = evaluate_strategy_pair(g, sp, EXACT)
        flips = switched(g, sp.sigma, v) | switched(g, sp.tau, v)
        assert flips == switchable_nodes(g, v)
        assert is_stable(g, v, 0) == (not flips)


def test_switchable_detects_better_arc():
    # max node choosing a 0-valued child with a 1-valued alternative
    g = build_game([("max", (3, 4)), ("avg", (3, 4))])
    v = ValueVector((0, 1, 0, 2), EXACT, 2)
    assert improve_all(g, Strategy.from_choice(g, Player.MAX, {1: 0}), v) == Strategy.from_choice(g, Player.MAX, {1: 1})
    assert switchable_nodes(g, v) == {1}


def test_switching_improves_max_values():
    improved = 0
    for seed in range(200):
        g = random_stopping_game(seed, max_nodes=10)
        rng = Rng(seed + 321)
        sp = random_pair(g, rng)
        v = evaluate_strategy_pair(g, sp, EXACT)
        sigma = improve_all(g, sp.sigma, v)
        if sigma is None:
            continue
        v2 = evaluate_strategy_pair(g, StrategyPair(sigma, sp.tau), EXACT)
        assert all(v2.value(i) >= v.value(i) for i in range(1, g.n + 1))
        improved += 1
    assert improved > 20


@st.composite
def switch_cases(draw):
    """A stopping game, a random strategy pair and a mode: a small random
    game or a fully reduced generated one of 64 to 256 nodes."""
    seed = draw(st.integers(0, 2**64 - 1))
    if draw(st.booleans()):
        g = random_stopping_game(seed, draw(st.sampled_from([8, 12, 40])))
    else:
        g, _ = generate_fully_reduced(RatioSpec(draw(st.sampled_from([64, 128, 256])), draw(st.integers(1, 8))), seed)
    return g, random_pair(g, Rng(draw(st.integers(0, 2**64 - 1)))), draw(st.sampled_from([EXACT, FLOAT]))


@settings(max_examples=60, deadline=None)
@given(switch_cases())
def test_switch_and_stability_match_scalar_oracles(case):
    """On the evaluation of a random pair, and on the stable values a best
    response reaches from it, ``improve_all`` switches the nodes the
    per-node loop switches for either player and ``is_stable`` gives the
    loop's verdict at tol 0, 1e-12 and 1e-9."""
    g, sp, mode = case
    v = evaluate_strategy_pair(g, sp, mode)
    tau, settled = best_response(g, sp.sigma, mode)
    for values, pair in ((v, sp), (settled, StrategyPair(sp.sigma, tau))):
        for strat in (pair.sigma, pair.tau):
            assert improve_all(g, strat, values) == oracle_improve_all(g, strat, values)
        for tol in (0, 1e-12, 1e-9):
            assert is_stable(g, values, tol) is oracle_is_stable(g, values, tol)
    assert improve_all(g, tau, settled) is None


# max node 1 and min node 2 each choose between averages 3 and 4
SWITCH = build_game([("max", (3, 4)), ("min", (3, 4)), ("avg", (5, 6)), ("avg", (5, 6))])


def test_float_gain_inside_margin_does_not_switch():
    """A float gain of at most 1e-12 switches no node; a larger one
    switches it, from either arc and for either player."""
    for gain, switches in ((5e-13, False), (1e-12, False), (2e-12, True)):
        for bit in (0, 1):
            for player, node in ((Player.MAX, 1), (Player.MIN, 2)):
                # the arc not taken is better for the owner by ``gain``
                taken, other = (0.0, gain) if player is Player.MAX else (gain, 0.0)
                xs = [0.5, 0.5, *((taken, other) if bit == 0 else (other, taken)), 0.0, 1.0]
                v = ValueVector(xs, FLOAT)
                strat = Strategy.from_choice(SWITCH, player, {node: bit})
                got = improve_all(SWITCH, strat, v)
                assert got == oracle_improve_all(SWITCH, strat, v)
                assert got == (Strategy.from_choice(SWITCH, player, {node: 1 - bit}) if switches else None), (gain, bit, player)


def test_nan_value_is_never_stable():
    """A NaN at any node, terminals included, fails ``is_stable`` at every
    tol, and switches nothing."""
    sp = pair(GAPS, sigma_bits=[0], tau_bits=[0])
    v = evaluate_strategy_pair(GAPS, sp, FLOAT)
    assert is_stable(GAPS, v, 0)
    for node in range(1, GAPS.n + 1):
        xs = list(v.values)
        xs[node - 1] = float("nan")
        bad = ValueVector(xs, FLOAT)
        for tol in (0, 1e-9, 1.0):
            assert not is_stable(GAPS, bad, tol), (node, tol)
        for strat in (sp.sigma, sp.tau):
            assert improve_all(GAPS, strat, bad) is None


def test_exact_tol_zero_below_and_past_int64():
    """At tol 0 an exact vector is stable only when every local equation
    holds exactly, whether its numerators fit in int64 or not: one unit
    off at any non-terminal node fails."""
    for scale in (1, 2**70):
        nums, den = common_denominator(GAPS_VALUES)
        nums, den = [x * scale for x in nums], den * scale
        v = ValueVector(nums, EXACT, den)
        assert is_stable(GAPS, v, 0) and oracle_is_stable(GAPS, v, 0)
        for node in range(1, 5):
            off = list(nums)
            off[node - 1] += 1
            w = ValueVector(off, EXACT, den)
            assert not is_stable(GAPS, w, 0) and not oracle_is_stable(GAPS, w, 0), (scale, node)


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
    tau, v = best_response(g, Strategy.from_choice(g, Player.MAX, {}), EXACT)
    assert tau.choice(g) == {1: 0}
    assert v.value(1) == Fraction(1, 4)


def test_best_response_vacuous_without_responder_nodes():
    tau, v = best_response(MINIMAL, EMPTY_PAIR.sigma, EXACT)
    assert tau.choice(MINIMAL) == {}
    assert v.value(1) == Fraction(1, 2)


def test_best_response_rejects_initial_missing_a_responder_node():
    g = build_game([("min", (3, 4)), ("min", (4, 3)), ("avg", (5, 6)), ("avg", (3, 6))])
    fixed = Strategy.from_choice(g, Player.MAX, {})
    for initial in ({1: 0}, {1: 0, 3: 0}, {}):
        with pytest.raises(ValueError, match=re.escape("min strategy must cover exactly [1, 2]")):
            best_response(g, fixed, EXACT, initial=Strategy.from_choice(g, Player.MIN, initial))
    for bits in (b"\0", b"", b"\0\0\0"):
        with pytest.raises(ValueError, match=re.escape("min strategy must cover exactly [1, 2]")):
            best_response(g, fixed, EXACT, initial=Strategy(Player.MIN, bits))
    tau, _ = best_response(g, fixed, EXACT, initial=Strategy.from_choice(g, Player.MIN, {1: 1, 2: 0}))
    assert tau.choice(g) == {1: 0, 2: 1}


def test_best_response_rejects_non_stopping():
    with pytest.raises(NonStoppingGameError):
        best_response(CYCLE4, Strategy.from_choice(CYCLE4, Player.MAX, {1: 0}))


def test_best_response_matches_enumeration():
    for seed in range(40):
        g = random_stopping_game(seed, max_nodes=10)
        rng = Rng(seed + 777)
        sigma = Strategy.from_choice(g, Player.MAX, {i: rng.randbelow(2) for i in g.max_nodes})
        _, got = best_response(g, sigma, EXACT)
        best = None
        for sp in all_strategy_pairs(g):
            if sp.sigma != sigma:
                continue
            v = evaluate_strategy_pair(g, sp, EXACT)
            if best is None:
                best = list(v.values)
            else:
                best = [min(x, y) for x, y in zip(best, v.values)]
        assert list(got.values) == best


def test_best_response_max_matches_enumeration():
    """Against a fixed min strategy the responder is the max player, and
    its values are the best of every max strategy's."""
    for seed in range(40):
        g = random_stopping_game(seed, max_nodes=10)
        rng = Rng(seed + 555)
        tau = Strategy.from_choice(g, Player.MIN, {i: rng.randbelow(2) for i in g.min_nodes})
        sigma, got = best_response(g, tau, EXACT)
        assert sigma.player is Player.MAX
        best = None
        for sp in all_strategy_pairs(g):
            if sp.tau == tau:
                v = list(evaluate_strategy_pair(g, sp, EXACT).values)
                best = v if best is None else [max(x, y) for x, y in zip(best, v)]
        assert list(got.values) == best


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
    """An exact value outside [0, 1] is a defect; a float one is float64
    losing an ill-conditioned system, which exact mode solves."""
    monkeypatch.setattr(linsolve, solver, lambda rhs, coo: bad)
    error = EvaluationContractError if mode == EXACT else linsolve.SingularSystemError
    with pytest.raises(error, match=r"outside \[0, 1\]"):
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


def shuffled_choices(g, rng: Rng) -> tuple[dict, dict]:
    """Random choice dicts for both players that list their nodes in
    shuffled order, each choice an int or a bool at random."""

    def choice(nodes):
        order = list(nodes)
        rng.shuffle(order)
        return {i: (int, bool)[rng.randbelow(2)](rng.randbelow(2)) for i in order}

    return choice(g.max_nodes), choice(g.min_nodes)


@st.composite
def evaluation_cases(draw):
    """A game and shuffled choice dicts: a small random stopping game, a
    fully reduced generated game of 64 to 512 nodes, or a small game with
    arc targets anywhere, often non-stopping and then refused."""
    source = draw(st.sampled_from(["stopping", "generated", "full"]))
    seed = draw(st.integers(0, 2**64 - 1))
    if source == "stopping":
        g = random_stopping_game(seed, draw(st.sampled_from([12, 40])))
    elif source == "generated":
        g, _ = generate_fully_reduced(RatioSpec(draw(st.sampled_from([64, 128, 256, 512])), draw(st.integers(1, 8))), seed)
    else:
        g = random_full_game(Rng(seed), draw(st.integers(1, 12)))
    return g, shuffled_choices(g, Rng(draw(st.integers(0, 2**64 - 1))))


def broken_choices(choices):
    """Per player with a node, its choice dict with one node left out and
    with one choice set to 2."""
    for player, choice in zip((Player.MAX, Player.MIN), choices):
        if choice:
            first = next(iter(choice))
            yield player, {i: c for i, c in choice.items() if i != first}
            yield player, {**choice, first: 2}


# CYCLE4 and SELF_ARCS, where min node 3 can keep its self arc, are not
# stopping; under the stable pair of TWIN_ALIAS two children alias one unknown
@settings(max_examples=120, deadline=None)
@given(evaluation_cases())
@example((CYCLE4, ({1: 0}, {2: 0})))
@example((SELF_ARCS, ({1: 1}, {3: 0})))
@example((TWIN_ALIAS, ({2: 1}, {3: 1})))
def test_array_evaluator_matches_per_node_oracle(case):
    """A choice dict builds the strategy the per-node oracle builds, and a
    bad one fails with the oracle's message.  The array evaluator hands
    both solvers the system the per-node oracle builds, triplet for
    triplet, and returns equal exact and bit-identical float vectors.  A
    game that is not stopping is refused in both modes, before its
    strategies are read."""
    g, (sigma, tau) = case
    for player, broken in broken_choices((sigma, tau)):
        with pytest.raises(ValueError) as expected:
            oracle_strategy(g, player, broken)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            Strategy.from_choice(g, player, broken)
    sp = StrategyPair(Strategy.from_choice(g, Player.MAX, sigma), Strategy.from_choice(g, Player.MIN, tau))
    assert sp == StrategyPair(oracle_strategy(g, Player.MAX, sigma), oracle_strategy(g, Player.MIN, tau))
    if not g.stopping:
        unread = StrategyPair(Strategy(Player.MAX, b""), Strategy(Player.MIN, b""))
        for mode in (EXACT, FLOAT):
            for refused in (sp, unread):
                with pytest.raises(NonStoppingGameError):
                    evaluate_strategy_pair(g, refused, mode)
        return
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
            assert got == want
        else:
            assert [x.hex() for x in got.values] == [x.hex() for x in want.values]
