"""Strategy evaluation: the value system for a fixed strategy pair.

With both players' choices pinned, every node's value is the probability
that the random walk reaches the 1-terminal.  Nodes that cannot reach a
terminal at all are set to zero.  Every other max/min node takes the
value of its anchor, the first average or terminal its chosen arcs
reach, so the whole system collapses to a small linear system over the
average nodes.  The exact and the float64 paths share that reduction.

An evaluation works on the game's cached arrays (``Game.layout``).  It
scatters both strategies into one successor array and resolves every
node to its anchor by pointer jumping, ``t = t[t]`` until each node sits
on an average or a terminal.  Each node then reads its anchor's slot:
the column of an average, or one of two slots past the columns for the
constants 0 and 1.  A few NumPy operations gather the system from the
slots of the averages' children, in the one format both ``linsolve``
solvers take: an int right-hand side and integer COO triplets (the
diagonal 2 and a -1 per child whose value is an unknown).  The values
come back with one gather through the slots, and only the solved
unknowns are range-checked, once each.

On a stopping game every node reaches a terminal under every strategy
pair, so no reachability walk runs; hk, perm, best responses, brute
force and component-wise solving establish that with
``require_stopping`` before they evaluate.  On any other game one walk
back from the terminals over the cached parents marks the nodes that
reach one; the rest anchor at the 0-terminal, and only the reached
averages are unknowns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

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


def _successors(g: Game, sp: StrategyPair) -> np.ndarray:
    """``succ[i]`` is the chosen target of max/min node i and i itself
    elsewhere, entry 0 included; ``ValueError`` unless each strategy
    covers exactly its player's nodes with 0/1 choices."""
    bits = []
    for name, choice, owned in (
        ("max", sp.sigma.choice, g.max_nodes),
        ("min", sp.tau.choice, g.min_nodes),
    ):
        try:
            chosen = list(map(choice.__getitem__, owned))
        except KeyError:
            chosen = None
        if chosen is None or len(choice) != len(owned):
            raise ValueError(f"{name} strategy must cover exactly {list(owned)}")
        if not set(chosen) <= {0, 1}:
            i, c = next((i, c) for i, c in choice.items() if c not in (0, 1))
            raise ValueError(f"choice for node {i} must be 0 or 1, got {c}")
        bits += chosen
    lay = g.layout
    succ = np.arange(g.n + 1)
    succ[lay.decision_nodes] = lay.arcs[lay.decision_nodes, np.array(bits, dtype=np.intp)]
    return succ


def _reached(g: Game, succ: np.ndarray) -> list[bool]:
    """Per node id, whether it has a path to a terminal in the strategy
    subgraph: a walk back from the terminals over the game's parents, in
    which a max/min node is reached only through its chosen successor."""
    code, parents, succ = g.code, g.parents(), succ.tolist()
    seen = [False] * (g.n + 1)
    stack = [g.terminal0, g.terminal1]
    for u in stack:
        seen[u] = True
    while stack:
        u = stack.pop()
        for p in parents[u]:
            if not seen[p] and (code[p] == AVG or succ[p] == u):
                seen[p] = True
                stack.append(p)
    return seen


def reachable_to_terminal(g: Game, sp: StrategyPair) -> set[int]:
    """Nodes with a path to a terminal in the strategy subgraph.

    Max/min nodes follow their single chosen arc, average nodes keep both.
    Computed by backward reachability from the terminals.
    """
    seen = _reached(g, _successors(g, sp))
    return {i for i in range(1, g.n + 1) if seen[i]}


def _anchor_slots(succ: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Per node id, the slot of its anchor: the first average or terminal
    that its chosen arcs reach.  Pointer jumping on the successor array
    doubles the distance followed each round, so a chain of k max/min
    nodes settles within log2(k) + 1 rounds; one that never settles is a
    cycle of max/min nodes, which neither a stopping game nor the reached
    part of any game holds."""
    for _ in range(len(succ).bit_length() + 1):
        node_slot = slot[succ]
        if node_slot[1:].min() >= 0:
            return node_slot
        succ = succ[succ]
    raise EvaluationContractError("the chosen arcs of max/min nodes close a cycle")


def evaluate_strategy_pair(g: Game, sp: StrategyPair, mode: str = FLOAT) -> ValueVector:
    """Solve the value system for a fixed strategy pair.

    The unknowns are the average nodes that reach a terminal.  Row i of
    the system is the equation of the i-th of them in ascending id; its
    right-hand side is an int, the number of its children whose value is
    the constant 1, and its matrix entries are COO triplets: the diagonal 2
    of every row first, then per row a -1 for its first and then its
    second child when that child's value is an unknown, duplicates summed.

    Exact mode returns the solver's numerators over its denominator, the
    terminals reading 0 and d and every other node its anchor's numerator;
    float mode guarantees every equation's residual is at most 1e-9.
    """
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    succ = _successors(g, sp)
    lay = g.layout
    if g.stopping:
        rows, slot = lay.average_nodes, lay.slot
    else:
        # The nodes without a path to a terminal are worth 0: they anchor
        # at the 0-terminal, and only the reached averages are unknowns.
        reached = np.array(_reached(g, succ))
        succ[~reached] = g.terminal0
        rows = lay.average_nodes[reached[lay.average_nodes]]
        slot = np.full(g.n + 1, -1, dtype=np.intp)
        slot[rows] = np.arange(len(rows))
        slot[g.terminal0], slot[g.terminal1] = len(rows), len(rows) + 1
    node_slot = _anchor_slots(succ, slot)

    # child[r] holds the slots of row r's two children: a column below a,
    # a for the constant 0 and a + 1 for the constant 1.
    a = len(rows)
    child = node_slot[lay.arcs[rows]]
    rhs = (child == a + 1).sum(axis=1)
    unknown = child < a
    unknown_rows, _ = np.nonzero(unknown)
    diagonal = np.arange(a)
    coo = (
        np.concatenate((diagonal, unknown_rows)),
        np.concatenate((diagonal, child[unknown])),
        np.repeat((2, -1), (a, len(unknown_rows))),
    )

    # Only the solved unknowns can leave [0, 1]; every other node shares
    # a checked value or a constant.
    if mode == EXACT:
        solution, den = linsolve.solve_exact(rhs, coo)
        for x in solution:
            if not 0 <= x <= den:
                raise EvaluationContractError(f"exact value {Fraction(x, den)} outside [0, 1]")
        constants = (0, den)
    else:
        solution = linsolve.solve_float(rhs, coo)
        if a and (solution.min() < 0.0 or solution.max() > 1.0):
            wild = solution[(solution < -1e-9) | (solution > 1.0 + 1e-9)]
            if wild.size:
                raise EvaluationContractError(f"float value {float(wild[0])} outside [0, 1]")
            solution = np.where(solution < 0.0, 0.0, np.where(solution > 1.0, 1.0, solution))
        solution, constants, den = solution.tolist(), (0.0, 1.0), 1
    by_slot = [*solution, *constants]
    return ValueVector(tuple(map(by_slot.__getitem__, node_slot[1:].tolist())), mode, den)


def is_stable(g: Game, v: ValueVector, tol: float = DEFAULT_STABLE_TOL) -> bool:
    """True when every node satisfies its local equation within ``tol``.

    With tol=0 and exact values this is an exact stability check.  Gaps
    are taken at twice their scale, so that an average's wanted value
    stays an int on exact numerators.  An exact vector is checked in
    integers against the exact ratio tol = p/q: an int gap exceeds
    2·p·den // q exactly when it times q exceeds 2·p·den.
    """
    if v.mode == EXACT:
        p, q = Fraction(tol).as_integer_ratio()
        limit = 2 * p * v.den // q
    else:
        limit = 2 * tol
    vals, code, arcs = v.scaled, g.code, g.arcs
    for i in range(1, g.n + 1):
        c = code[i]
        if c == TERM:
            continue
        j, k = arcs[i - 1]
        a, b = vals[j - 1], vals[k - 1]
        if c == MAX:
            twice_want = 2 * (a if a >= b else b)
        elif c == MIN:
            twice_want = 2 * (a if a <= b else b)
        else:
            twice_want = a + b
        if not abs(2 * vals[i - 1] - twice_want) <= limit:  # NaN fails too
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


def improve_all(g: Game, strat: Strategy, v: ValueVector) -> Strategy | None:
    """Switch every node of ``strat`` whose other arc is strictly better
    under ``v``; None when already optimal.  The step of ``best_response``
    and of Hoffman-Karp."""
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
    cap = 10 * len(resp.choice) + 20

    def pair_for(r: Strategy) -> StrategyPair:
        return StrategyPair(r, fixed) if player is Player.MAX else StrategyPair(fixed, r)

    for phase in (FLOAT,) if mode == FLOAT else (FLOAT, EXACT):
        for _ in range(cap):
            v = evaluate_strategy_pair(g, pair_for(resp), phase)
            improved = improve_all(g, resp, v)
            if improved is None:
                break
            resp = improved
        else:
            raise EvaluationContractError(f"{phase} policy iteration hit its cap")
    return resp, v


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
