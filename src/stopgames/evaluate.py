"""Strategy evaluation: the value system for a fixed strategy pair.

With both players' choices pinned, every node's value is the probability
that the random walk reaches the 1-terminal.  Every max/min node takes
the value of its anchor, the first average or terminal its chosen arcs
reach, so the whole system collapses to a small linear system over the
average nodes.  The exact and the float64 paths share that reduction.

An evaluation works on the game's cached arrays (``Game.layout``), which
hold value-vector positions, node i at i - 1, as every array here does.
It scatters both strategies into one successor array and resolves every
node to its anchor by pointer jumping, ``t = t[t]`` until each node sits
on an average or a terminal.  Each node then reads its anchor's slot:
the column of an average, or one of two slots past the columns for the
constants 0 and 1.  A few NumPy operations gather the system from the
slots of the averages' children, in the one format both ``linsolve``
solvers take: an int right-hand side and integer COO triplets (the
diagonal 2 and a -1 per child whose value is an unknown).  One function,
``_value_system``, does all of this, for ``evaluate_strategy_pair`` and
for ``float_error_estimate`` alike.  The values come back with one
gather through the slots, and only the solved unknowns are
range-checked, once each.

Only stopping games are evaluated: there every node reaches a terminal
under every strategy pair, so every average is an unknown and the
system is nonsingular.  Any other game is refused with
``NonStoppingGameError``, read from the game's cached ``stopping`` flag.
``improve_all`` is the one rule for switching a node to a better arc.

Policy iteration stays on arrays too: a strategy is one byte per owned
node, a value vector one array, and the switch and stability tests are
a few gathers and compares over the layout's arc targets.
``best_response`` is one policy-iteration loop in the mode it is given;
when exact Hoffman-Karp leaves float64 is decided in
``solve.solve_hoffman_karp``, with ``float_error_estimate`` as its test
of whether float values can be trusted.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import linsolve
from .game import EvaluationContractError, Game, require_stopping

EXACT = "exact"
FLOAT = "float"

DEFAULT_STABLE_TOL = 1e-9
DEFAULT_SWITCH_MARGIN = 1e-12


class Player(Enum):
    MAX = "max"
    MIN = "min"


@dataclass(frozen=True)
class Strategy:
    """One chosen out-arc per node of the owning player.

    ``bits`` holds one byte per owned node, in ``g.max_nodes`` or
    ``g.min_nodes`` order: 0 selects the node's first arc and 1 its
    second.  ``from_choice`` builds and checks one from a per-node dict,
    and ``choice(g)`` reads that dict back.  The bits name no node, so
    the evaluator and ``improve_all`` check only that their count is the
    number of nodes the player owns in the game at hand.
    """

    player: Player
    bits: bytes

    def __post_init__(self):
        # deleting every 0 and 1 byte leaves nothing exactly when all are 0/1
        if not isinstance(self.bits, bytes) or self.bits.translate(None, b"\0\1"):
            raise ValueError(f"{self.player.value} strategy bits must be bytes of 0s and 1s")

    @classmethod
    def from_choice(cls, g: Game, player: Player, choice: dict[int, int]) -> Strategy:
        """The strategy picking arc ``choice[i]`` at each owned node i;
        ``ValueError`` unless ``choice`` covers exactly the player's nodes
        with 0/1 choices."""
        owned = _owned(g, player)
        try:
            chosen = list(map(choice.__getitem__, owned))
        except KeyError:
            chosen = None
        if chosen is None or len(choice) != len(owned):
            raise ValueError(f"{player.value} strategy must cover exactly {list(owned)}")
        if not set(chosen) <= {0, 1}:
            i, c = next((i, c) for i, c in choice.items() if c not in (0, 1))
            raise ValueError(f"choice for node {i} must be 0 or 1, got {c}")
        return cls(player, bytes(map(int, chosen)))

    def choice(self, g: Game) -> dict[int, int]:
        """The choice per owned node id, in ascending id."""
        return dict(zip(_owned(g, self.player), self.bits))


@dataclass(frozen=True)
class StrategyPair:
    sigma: Strategy  # max player
    tau: Strategy  # min player


@dataclass(frozen=True, eq=False)
class ValueVector:
    """Per-node values, index 1..n via ``value``.

    ``mode`` is "float" (binary64) or "exact".  ``scaled`` is one
    read-only NumPy array of the values times ``den``, node i at position
    i - 1.  In float mode it holds the float64 values and ``den`` is 1.
    In exact mode it holds one numerator per node, a Python int in an
    object array, over one positive common denominator ``den``, in lowest
    terms.  Either way the switch and stability tests run the same array
    operations on it.  Any other sequence passed as ``scaled`` is
    converted into such an array; an array of that dtype is kept without
    a copy and made read-only.
    """

    scaled: np.ndarray
    mode: str
    den: int = 1

    def __post_init__(self):
        scaled = np.asarray(self.scaled, dtype=np.float64 if self.mode == FLOAT else object)
        scaled.flags.writeable = False
        object.__setattr__(self, "scaled", scaled)

    def __eq__(self, other):
        if not isinstance(other, ValueVector):
            return NotImplemented
        return self.mode == other.mode and self.den == other.den and np.array_equal(self.scaled, other.scaled)

    @property
    def values(self) -> Sequence:
        """The per-node values: a tuple of Fractions of Python ints built
        on each use in exact mode, and in float mode a read-only
        memoryview of ``scaled``, which reads Python floats without a
        copy.  Unlike a tuple the memoryview equals only another buffer
        of the same values (never a tuple), is unhashable and is no JSON
        array; ``tuple(v.values)`` gives one."""
        if self.mode == EXACT:
            den = self.den
            return tuple(Fraction(x, den) for x in self.scaled.tolist())
        return self.scaled.data

    def value(self, i: int):
        if self.mode == EXACT:
            return Fraction(int(self.scaled[i - 1]), self.den)
        return float(self.scaled[i - 1])


def _owned(g: Game, player: Player) -> tuple[int, ...]:
    return g.max_nodes if player is Player.MAX else g.min_nodes


def random_strategy(g: Game, player: Player, rng) -> Strategy:
    """Uniform strategy; one bit per owned node in ascending id order."""
    return Strategy(player, bytes([rng.randbelow(2) for _ in _owned(g, player)]))


def _check_fits(g: Game, s: Strategy, player: Player) -> None:
    """``ValueError`` unless ``s`` is a ``player`` strategy with one bit
    per node ``player`` owns in ``g``."""
    if s.player is not player:
        raise ValueError(f"expected a {player.value} strategy, got a {s.player.value} one")
    if len(s.bits) != len(_owned(g, player)):
        raise ValueError(f"{player.value} strategy must cover exactly {list(_owned(g, player))}")


def _successors(g: Game, sp: StrategyPair) -> np.ndarray:
    """Per position, the position of the chosen target of a max/min node
    and the node's own position elsewhere."""
    _check_fits(g, sp.sigma, Player.MAX)
    _check_fits(g, sp.tau, Player.MIN)
    lay = g.layout
    bits = np.frombuffer(sp.sigma.bits + sp.tau.bits, dtype=np.bool_)
    succ = np.arange(g.n)
    succ[lay.decision_nodes] = np.where(bits, lay.choices[1], lay.choices[0])
    return succ


def _anchor_slots(succ: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Per position, the slot of its node's anchor: the first average or
    terminal that its chosen arcs reach.  Pointer jumping on the
    successor array doubles the distance followed each round, so a chain
    of k max/min nodes settles within log2(k) + 1 rounds; one that never
    settles is a cycle of max/min nodes, which no stopping game holds.
    ``g.stopping`` comes from ``find_bad_core``, so only a caller that
    plants the flag by hand on a non-stopping game reaches the error."""
    for _ in range(len(succ).bit_length() + 1):
        node_slot = slot[succ]
        if node_slot.min() >= 0:
            return node_slot
        succ = succ[succ]
    raise EvaluationContractError("the chosen arcs of max/min nodes close a cycle")


def _value_system(g: Game, sp: StrategyPair) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The value system of ``sp`` as ``evaluate_strategy_pair`` describes
    it: per position the slot of its node's anchor, then the right-hand
    side and the COO triplets that both ``linsolve`` solvers take.
    ``NonStoppingGameError`` unless ``g`` is stopping."""
    require_stopping(g, "strategy evaluation")
    lay = g.layout
    rows = lay.average_nodes
    node_slot = _anchor_slots(_successors(g, sp), lay.slot)
    # child[r] holds the slots of row r's two children: a column below a,
    # a for the constant 0 and a + 1 for the constant 1.
    a = len(rows)
    child = node_slot[lay.targets[:, rows]].T
    unknown_rows, unknown_cols = np.nonzero(child < a)
    diagonal = np.arange(a)
    coo = (
        np.concatenate((diagonal, unknown_rows)),
        np.concatenate((diagonal, child[unknown_rows, unknown_cols])),
        np.repeat((2, -1), (a, len(unknown_rows))),
    )
    return node_slot, (child == a + 1).sum(axis=1), coo


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
    float mode guarantees every equation's residual is at most 1e-9.  An
    exact value outside [0, 1] is a defect, ``EvaluationContractError``;
    a float one, past 1e-9, is ``linsolve.SingularSystemError``, as
    float64 lost an ill-conditioned system that exact mode solves.
    """
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    node_slot, rhs, coo = _value_system(g, sp)

    # Only the solved unknowns can leave [0, 1]; every other node shares
    # a checked value or a constant.
    if mode == EXACT:
        solution, den = linsolve.solve_exact(rhs, coo)
        for x in solution:
            if not 0 <= x <= den:
                raise EvaluationContractError(f"exact value {Fraction(x, den)} outside [0, 1]")
        by_slot = np.array([*solution, 0, den], dtype=object)
    else:
        solution = linsolve.solve_float(rhs, coo)
        if len(rhs) and (solution.min() < 0.0 or solution.max() > 1.0):
            wild = solution[(solution < -1e-9) | (solution > 1.0 + 1e-9)]
            if wild.size:  # float64 lost the system, as on a singular one
                raise linsolve.SingularSystemError(f"float value {float(wild[0])} outside [0, 1]")
            solution = np.where(solution < 0.0, 0.0, np.where(solution > 1.0, 1.0, solution))
        by_slot, den = np.concatenate((solution, (0.0, 1.0))), 1
    return ValueVector(by_slot[node_slot], mode, den)


def float_error_estimate(g: Game, sp: StrategyPair) -> float:
    """How far float64 values of ``sp`` may lie from its exact ones: the
    condition number of its value system A times the machine epsilon;
    ``inf`` where float64 cannot factor A.

    A is 2I minus the child counts, and on a stopping game A^-1 is the
    sum of (C/2)^k / 2 over k >= 0, non-negative entry by entry, so
    ‖A^-1‖∞ is the largest entry of A^-1·1; ‖A‖∞ is at most 4.  The
    estimate grows with how long play can stay among the averages: below
    1e-13 on generated games of up to 512 nodes, about 5e-10 on a chain
    of 20 averages that play leaves only after 19 fair coin flips in a
    row."""
    _, rhs, coo = _value_system(g, sp)
    return 4 * linsolve.inverse_norm(len(rhs), coo) * np.finfo(float).eps


def is_stable(g: Game, v: ValueVector, tol: float | None = None) -> bool:
    """True when every node satisfies its local equation within ``tol``.

    Without a ``tol`` the vector's mode picks it: 0 on exact vectors, an
    exact stability check, and ``DEFAULT_STABLE_TOL`` on float ones.  Gaps
    are taken at twice their scale, so that an average's wanted value
    stays an int on exact numerators.  An exact vector is checked in
    integers against the exact ratio tol = p/q: an int gap exceeds
    2·p·den // q exactly when it times q exceeds 2·p·den.  A terminal
    reads its own value twice, as an average would, so its gap is 0.
    """
    if tol is None:
        tol = 0 if v.mode == EXACT else DEFAULT_STABLE_TOL
    if v.mode == EXACT:
        p, q = Fraction(tol).as_integer_ratio()
        limit = 2 * p * v.den // q
    else:
        limit = 2 * tol
    lay, vals = g.layout, v.scaled
    a, b = vals[lay.targets]
    twice_want = np.where(
        lay.is_max, 2 * np.where(a >= b, a, b), np.where(lay.is_min, 2 * np.where(a <= b, a, b), a + b)
    )
    return bool((abs(2 * vals - twice_want) <= limit).all())  # NaN fails too


def improve_all(g: Game, strat: Strategy, v: ValueVector) -> Strategy | None:
    """Switch every node of ``strat`` whose other arc is strictly better
    under ``v``; None when already optimal.  Strictness is exact on exact
    vectors and takes a small margin on float ones.  The one switch rule:
    the step of ``best_response`` and of Hoffman-Karp, and permutation
    improvement's stop test."""
    _check_fits(g, strat, strat.player)
    k = len(g.max_nodes)
    choices = g.layout.choices
    if strat.player is Player.MAX:
        first, second = v.scaled[choices[:, :k]]
        gain = second - first  # what the owner gains by the second arc
    else:
        first, second = v.scaled[choices[:, k:]]
        gain = first - second
    bits = np.frombuffer(strat.bits, dtype=np.bool_)
    margin = 0 if v.mode == EXACT else DEFAULT_SWITCH_MARGIN
    switched = (bits ^ np.where(bits, gain < -margin, gain > margin)).tobytes()
    return None if switched == strat.bits else Strategy(strat.player, switched)


def best_response(
    g: Game, fixed: Strategy, mode: str = FLOAT, initial: Strategy | None = None
) -> tuple[Strategy, ValueVector]:
    """Optimal response of the player opposite ``fixed`` against it,
    from ``initial`` or, without one, the all-first-arcs strategy.

    Policy iteration in ``mode``: evaluate, switch all improving responder
    nodes, repeat until none improve.  Every round strictly improves the
    responder's values on a stopping game, so the loop terminates.  The
    first evaluation refuses a game that is not stopping.
    """
    player = Player.MIN if fixed.player is Player.MAX else Player.MAX
    resp = initial if initial is not None else Strategy(player, bytes(len(_owned(g, player))))
    cap = 10 * len(resp.bits) + 20
    for _ in range(cap):
        pair = StrategyPair(resp, fixed) if player is Player.MAX else StrategyPair(fixed, resp)
        v = evaluate_strategy_pair(g, pair, mode)
        improved = improve_all(g, resp, v)
        if improved is None:
            return resp, v
        resp = improved
    raise EvaluationContractError(f"{mode} policy iteration hit its cap")
