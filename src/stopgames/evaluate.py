"""Strategy evaluation: the value system for a fixed strategy pair.

With both players' choices pinned, every node's value is the probability
that the random walk reaches the 1-terminal.  Nodes that cannot reach a
terminal at all are set to zero; the remaining max/min nodes just copy
their chosen successor, so the whole system collapses to a small linear
system over the average nodes.  Both the exact-rational and the float64
paths share that reduction.

An evaluation reads the game's cached layout (``Game.code``,
``Game.parents()`` and the node tuples of each kind) and builds, per
strategy pair, one successor array, one breadth-first walk back from
the terminals over the parent lists, and two per-node arrays: the column
of the unknown average a node's value equals, or else its 0/1 constant.
From those it emits the system in the one format both ``linsolve``
solvers take: an int right-hand side and integer COO triplets (the
diagonal 2 and a -1 per child whose value is an unknown).  Only the
solved unknowns are range-checked, once each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import linsolve
from .game import AVG, MAX, MIN, TERM, Game, require_stopping

EXACT = "exact"
FLOAT = "float"

DEFAULT_STABLE_TOL = 1e-9
DEFAULT_SWITCH_MARGIN = 1e-12


class EvaluationContractError(RuntimeError):
    """An internal solve violated its own guarantees (residual, range, or
    an iteration tripwire); indicates a defect, not a bad input."""


class Player(Enum):
    MAX = "max"
    MIN = "min"


@dataclass(frozen=True)
class Strategy:
    """One chosen out-arc per node of the owning player.

    ``choice[i]`` is 0 or 1 and selects the first or second arc of node i.
    """

    player: Player
    choice: dict[int, int]


@dataclass(frozen=True)
class StrategyPair:
    sigma: Strategy  # max player
    tau: Strategy  # min player


@dataclass(frozen=True)
class ValueVector:
    """Per-node values, index 1..n via ``value``.

    ``mode`` is "float" (binary64) or "exact".  ``scaled`` holds the values
    times ``den``: in exact mode one int numerator per node over one
    positive common denominator ``den``, in lowest terms; in float mode the
    floats themselves, with ``den`` 1.  Comparisons inside one vector are
    comparisons of ``scaled`` entries, ints in exact mode.  ``values`` is
    the tuple of per-node values, Fractions in exact mode, built on each
    use rather than kept beside the numerators.
    """

    scaled: tuple
    mode: str
    den: int = 1

    @property
    def values(self) -> tuple:
        if self.mode == EXACT:
            den = self.den
            return tuple(Fraction(x, den) for x in self.scaled)
        return self.scaled

    def value(self, i: int):
        if self.mode == EXACT:
            return Fraction(self.scaled[i - 1], self.den)
        return self.scaled[i - 1]


def _owned(g: Game, player: Player) -> tuple[int, ...]:
    return g.max_nodes if player is Player.MAX else g.min_nodes


def random_strategy(g: Game, player: Player, rng) -> Strategy:
    """Uniform strategy; one bit per owned node in ascending id order."""
    return Strategy(player, {i: rng.randbelow(2) for i in _owned(g, player)})


def first_arc_strategy(g: Game, player: Player) -> Strategy:
    return Strategy(player, {i: 0 for i in _owned(g, player)})


def _successors(g: Game, sp: StrategyPair) -> list[int]:
    """``succ[i]`` is the chosen target of max/min node i, 0 elsewhere;
    ``ValueError`` unless each strategy covers exactly its player's nodes
    with 0/1 choices."""
    succ = [0] * (g.n + 1)
    for name, strat, owned in (("max", sp.sigma, g.max_node_set), ("min", sp.tau, g.min_node_set)):
        if strat.choice.keys() != owned:
            raise ValueError(f"{name} strategy must cover exactly {sorted(owned)}")
        for i, c in strat.choice.items():
            if c not in (0, 1):
                raise ValueError(f"choice for node {i} must be 0 or 1, got {c}")
            succ[i] = g.arcs[i - 1][c]
    return succ


def reachable_to_terminal(g: Game, sp: StrategyPair) -> set[int]:
    """Nodes with a path to a terminal in the strategy subgraph.

    Max/min nodes follow their single chosen arc, average nodes keep both.
    Computed by backward reachability from the terminals.
    """
    return set(_reach_order(g, _successors(g, sp), (g.terminal0, g.terminal1)))


def _reach_order(g: Game, succ: list[int], roots) -> list[int]:
    """The roots and every node with a path to one in the strategy
    subgraph, breadth first over the game's parents: a max/min node comes
    after its chosen successor, through which it was reached."""
    code, parents = g.code, g.parents()
    seen = [False] * (g.n + 1)
    order = list(roots)
    for u in order:
        seen[u] = True
    for u in order:  # FIFO: the list grows while it is walked
        for p in parents[u]:
            if not seen[p] and (code[p] == AVG or succ[p] == u):
                seen[p] = True
                order.append(p)
    return order


def evaluate_strategy_pair(g: Game, sp: StrategyPair, mode: str = FLOAT) -> ValueVector:
    """Solve the value system for a fixed strategy pair.

    The unknowns are the average nodes that reach a terminal.  Row i of
    the system is the equation of the i-th of them in ascending id; its
    right-hand side is an int, the number of its children whose value is
    the constant 1, and its matrix entries are COO triplets: the diagonal 2
    and a -1 for every child whose value is an unknown, duplicates summed.

    Exact mode returns the solver's numerators over its denominator, the
    terminals reading 0 and d and every alias its unknown's numerator;
    float mode guarantees every equation's residual is at most 1e-9.
    """
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    succ = _successors(g, sp)
    n, code, arcs = g.n, g.code, g.arcs
    # Every node's value is a constant or the value of one unknown average
    # node: col[i] is that average's column and -1 for a constant, which
    # const[i] then holds (1 for the 1-terminal and the max/min nodes whose
    # chosen arcs lead to it, 0 for the rest).
    col = [-1] * (n + 1)
    const = [0] * (n + 1)
    const[g.terminal1] = 1
    reached = _reach_order(g, succ, (g.terminal0, g.terminal1))[2:]
    unknown_avg = sorted([u for u in reached if code[u] == AVG])
    for pos, u in enumerate(unknown_avg):
        col[u] = pos
    for u in reached:  # each max/min node after the successor it copies
        s = succ[u]
        if s:
            col[u], const[u] = col[s], const[s]

    a = len(unknown_avg)
    rows, cols = list(range(a)), list(range(a))
    rhs = []
    for pos, u in enumerate(unknown_avg):
        b = 0
        for child in arcs[u - 1]:
            c = col[child]
            if c < 0:
                b += const[child]
            else:
                rows.append(pos)
                cols.append(c)
        rhs.append(b)
    coo = (rows, cols, [2] * a + [-1] * (len(rows) - a))

    # Only the solved unknowns can leave [0, 1]; every alias shares the
    # checked value.
    if mode == EXACT:
        solution, den = linsolve.solve_exact(rhs, coo)
        for x in solution:
            if not 0 <= x <= den:
                raise EvaluationContractError(f"exact value {Fraction(x, den)} outside [0, 1]")
        constants = (0, den)
    else:
        solution = linsolve.solve_float(rhs, coo).tolist()
        for pos, f in enumerate(solution):
            if f < 0.0 or f > 1.0:
                if f < -1e-9 or f > 1.0 + 1e-9:
                    raise EvaluationContractError(f"float value {f} outside [0, 1]")
                solution[pos] = min(max(f, 0.0), 1.0)
        constants, den = (0.0, 1.0), 1
    values = tuple([solution[c] if c >= 0 else constants[k] for c, k in zip(col, const)][1:])
    return ValueVector(values, mode, den)


def is_stable(g: Game, v: ValueVector, tol: float = DEFAULT_STABLE_TOL) -> bool:
    """True when every node satisfies its local equation within ``tol``.

    With tol=0 and exact values this is an exact stability check.  An
    exact vector is checked in integers, against the exact ratio of
    ``tol``.
    """
    if v.mode == EXACT:
        return _is_stable_exact(g, v, tol)
    vals, code, arcs = v.scaled, g.code, g.arcs
    for i in range(1, g.n + 1):
        c = code[i]
        if c == TERM:
            continue
        j, k = arcs[i - 1]
        a, b = vals[j - 1], vals[k - 1]
        if c == MAX:
            want = a if a >= b else b
        elif c == MIN:
            want = a if a <= b else b
        else:
            want = (a + b) / 2
        diff = vals[i - 1] - want
        if diff < 0:
            diff = -diff
        if diff > tol:
            return False
    return True


def _is_stable_exact(g: Game, v: ValueVector, tol) -> bool:
    """``is_stable`` on numerators, at twice their scale so that an
    average's wanted value stays an int: with tol = p/q, a node fails when
    its doubled gap times q exceeds 2·p·den."""
    p, q = Fraction(tol).as_integer_ratio()
    limit = 2 * p * v.den
    nums, code, arcs = v.scaled, g.code, g.arcs
    for i in range(1, g.n + 1):
        c = code[i]
        if c == TERM:
            continue
        j, k = arcs[i - 1]
        a, b = nums[j - 1], nums[k - 1]
        if c == MAX:
            twice_want = 2 * (a if a >= b else b)
        elif c == MIN:
            twice_want = 2 * (a if a <= b else b)
        else:
            twice_want = a + b
        if abs(2 * nums[i - 1] - twice_want) * q > limit:
            return False
    return True


def switchable_set(g: Game, v: ValueVector, player: Player) -> set[int]:
    """The player's nodes whose other arc is strictly better than their
    current value.

    Because a node's value equals its chosen successor's value under any
    strategy-pair evaluation, comparing against ``v[i]`` needs no access
    to the strategy itself.  Strictness uses exact comparison on exact
    vectors and a small margin on float vectors.
    """
    margin = 0 if v.mode == EXACT else DEFAULT_SWITCH_MARGIN
    vals, arcs = v.scaled, g.arcs
    out = set()
    for i in _owned(g, player):
        j, k = arcs[i - 1]
        if player is Player.MAX:
            if max(vals[j - 1], vals[k - 1]) > vals[i - 1] + margin:
                out.add(i)
        elif min(vals[j - 1], vals[k - 1]) < vals[i - 1] - margin:
            out.add(i)
    return out


def _improve_all(g: Game, strat: Strategy, v: ValueVector) -> Strategy | None:
    """Switch every strictly improving node; None when already optimal."""
    margin = 0 if v.mode == EXACT else DEFAULT_SWITCH_MARGIN
    vals, arcs = v.scaled, g.arcs
    better_sign = 1 if strat.player is Player.MAX else -1
    new_choice = dict(strat.choice)
    switched = False
    for i, c in strat.choice.items():
        j, k = arcs[i - 1]
        cur, other = (j, k) if c == 0 else (k, j)
        gain = (vals[other - 1] - vals[cur - 1]) * better_sign
        if gain > margin:
            new_choice[i] = 1 - c
            switched = True
    return Strategy(strat.player, new_choice) if switched else None


def best_response(
    g: Game,
    fixed: Strategy,
    player: Player,
    mode: str = FLOAT,
    initial: Strategy | None = None,
) -> tuple[Strategy, ValueVector]:
    """Optimal response of ``player`` against the fixed opposite strategy.

    Policy iteration: evaluate, switch all improving responder nodes,
    repeat until none improve.  Every round strictly improves the
    responder's values on a stopping game, so the loop terminates.  In
    exact mode the loop first converges in float64 and then verifies and,
    if needed, finishes with exact arithmetic, which leaves the result
    exactly optimal at a fraction of the rational-arithmetic cost.
    """
    if fixed.player is player:
        raise ValueError("fixed strategy must belong to the opposite player")
    require_stopping(g, "best response")
    resp = initial if initial is not None else first_arc_strategy(g, player)
    if resp.choice.keys() != (g.max_node_set if player is Player.MAX else g.min_node_set):
        raise ValueError("initial strategy does not cover the responder's nodes")

    cap = 10 * len(resp.choice) + 20

    def pair_for(r: Strategy) -> StrategyPair:
        return StrategyPair(r, fixed) if player is Player.MAX else StrategyPair(fixed, r)

    for _ in range(cap):
        v = evaluate_strategy_pair(g, pair_for(resp), FLOAT)
        improved = _improve_all(g, resp, v)
        if improved is None:
            break
        resp = improved
    else:
        raise EvaluationContractError("float policy iteration hit its cap")

    if mode == FLOAT:
        return resp, v

    for _ in range(cap):
        v = evaluate_strategy_pair(g, pair_for(resp), EXACT)
        improved = _improve_all(g, resp, v)
        if improved is None:
            return resp, v
        resp = improved
    raise EvaluationContractError("exact policy iteration hit its cap")


# --- value vector JSON ------------------------------------------------------


def value_strings(v: ValueVector) -> list[str]:
    """One string per node: ``num/den`` in exact mode, ``repr`` in float."""
    if v.mode == EXACT:
        return [str(x) for x in v.values]
    return [repr(float(x)) for x in v.values]


def value_vector_to_json(v: ValueVector) -> str:
    return json.dumps({"mode": v.mode, "values": value_strings(v)}, separators=(",", ":"))


def value_vector_from_json(text: str) -> ValueVector:
    data = json.loads(text)
    mode = data["mode"]
    if mode == EXACT:
        nums, den = linsolve.common_denominator([Fraction(s) for s in data["values"]])
        return ValueVector(tuple(nums), EXACT, den)
    if mode == FLOAT:
        return ValueVector(tuple(float(s) for s in data["values"]), FLOAT)
    raise ValueError(f"unknown mode {mode!r}")
