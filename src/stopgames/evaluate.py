"""Strategy evaluation: the value system for a fixed strategy pair.

With both players' choices pinned, every node's value is the probability
that the random walk reaches the 1-terminal.  Every max/min node takes
the value of its anchor, the first average or terminal its chosen arcs
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

Only stopping games are evaluated: there every node reaches a terminal
under every strategy pair, so every average is an unknown and the
system is nonsingular.  Any other game is refused with
``NonStoppingGameError``, read from the game's cached ``stopping`` flag.
``improve_all`` is the one rule for switching a node to a better arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import linsolve
from .game import MAX, MIN, TERM, Game, require_stopping

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


def _anchor_slots(succ: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Per node id, the slot of its anchor: the first average or terminal
    that its chosen arcs reach.  Pointer jumping on the successor array
    doubles the distance followed each round, so a chain of k max/min
    nodes settles within log2(k) + 1 rounds; one that never settles is a
    cycle of max/min nodes, which no stopping game holds.  ``g.stopping``
    comes from ``find_bad_core``, so only a caller that plants the flag by
    hand on a non-stopping game reaches the error."""
    for _ in range(len(succ).bit_length() + 1):
        node_slot = slot[succ]
        if node_slot[1:].min() >= 0:
            return node_slot
        succ = succ[succ]
    raise EvaluationContractError("the chosen arcs of max/min nodes close a cycle")


def evaluate_strategy_pair(g: Game, sp: StrategyPair, mode: str = FLOAT) -> ValueVector:
    """Solve the value system for a fixed strategy pair.

    ``NonStoppingGameError`` unless ``g`` is stopping.  The unknowns are
    the average nodes.  Row i of the system is the equation of the i-th
    of them in ascending id; its right-hand side is an int, the number of
    its children whose value is the constant 1, and its matrix entries
    are COO triplets: the diagonal 2 of every row first, then per row a -1
    for its first and then its second child when that child's value is an
    unknown, duplicates summed.

    Exact mode returns the solver's numerators over its denominator, the
    terminals reading 0 and d and every other node its anchor's numerator;
    float mode guarantees every equation's residual is at most 1e-9.
    """
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    require_stopping(g, "strategy evaluation")
    succ = _successors(g, sp)
    lay = g.layout
    rows = lay.average_nodes
    node_slot = _anchor_slots(succ, lay.slot)

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


def improve_all(g: Game, strat: Strategy, v: ValueVector) -> Strategy | None:
    """Switch every node of ``strat`` whose other arc is strictly better
    under ``v``; None when already optimal.  Strictness is exact on exact
    vectors and takes a small margin on float ones.  The one switch rule:
    the step of ``best_response`` and of Hoffman-Karp, and permutation
    improvement's stop test."""
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
    exactly optimal at a fraction of the rational-arithmetic cost.  The
    float phase is only a warm start there: a float system too
    ill-conditioned to factor ends it, and the exact phase goes on from
    the current response.  The first evaluation refuses a game that is
    not stopping.
    """
    if fixed.player is player:
        raise ValueError("fixed strategy must belong to the opposite player")
    resp = initial if initial is not None else first_arc_strategy(g, player)
    cap = 10 * len(resp.choice) + 20

    def pair_for(r: Strategy) -> StrategyPair:
        return StrategyPair(r, fixed) if player is Player.MAX else StrategyPair(fixed, r)

    for phase in (FLOAT,) if mode == FLOAT else (FLOAT, EXACT):
        for _ in range(cap):
            try:
                v = evaluate_strategy_pair(g, pair_for(resp), phase)
            except linsolve.SingularSystemError:
                if phase == mode:
                    raise
                break  # the float warm start ends here; the exact phase goes on
            improved = improve_all(g, resp, v)
            if improved is None:
                break
            resp = improved
        else:
            raise EvaluationContractError(f"{phase} policy iteration hit its cap")
    return resp, v


def value_strings(v: ValueVector) -> list[str]:
    """One string per node: ``num/den`` in exact mode, ``repr`` in float."""
    if v.mode == EXACT:
        return [str(x) for x in v.values]
    return [repr(float(x)) for x in v.values]
