"""Strategy evaluation: the value system for a fixed strategy pair.

With both players' choices pinned, every node's value is the probability
that the random walk reaches the 1-terminal.  Nodes that cannot reach a
terminal at all are set to zero; the remaining max/min nodes just copy
their chosen successor, so the whole system collapses to a small linear
system over the average nodes.  Both the exact-rational and the float64
paths share that reduction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import linsolve
from .game import Game, NodeKind, require_stopping

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

    @property
    def node_kind(self) -> NodeKind:
        return NodeKind.MAX if self is Player.MAX else NodeKind.MIN


@dataclass(frozen=True)
class Strategy:
    """One chosen out-arc per node of the owning player.

    ``choice[i]`` is 0 or 1 and selects the first or second arc of node i.
    """

    player: Player
    choice: dict[int, int]

    def target(self, g: Game, i: int) -> int:
        return g.arcs_of(i)[self.choice[i]]


@dataclass(frozen=True)
class StrategyPair:
    sigma: Strategy  # max player
    tau: Strategy  # min player


@dataclass(frozen=True)
class ValueVector:
    """Per-node values, index 1..n via ``value``.  ``mode`` is "exact"
    (Fractions) or "float" (binary64)."""

    values: tuple
    mode: str

    def value(self, i: int):
        return self.values[i - 1]

    def as_floats(self) -> list[float]:
        return [float(v) for v in self.values]


def random_strategy(g: Game, player: Player, rng) -> Strategy:
    """Uniform strategy; one bit per owned node in ascending id order."""
    return Strategy(
        player, {i: rng.randbelow(2) for i in g.nodes_of_kind(player.node_kind)}
    )


def first_arc_strategy(g: Game, player: Player) -> Strategy:
    return Strategy(player, {i: 0 for i in g.nodes_of_kind(player.node_kind)})


def _check_pair(g: Game, sp: StrategyPair) -> dict[int, int]:
    chosen: dict[int, int] = {}
    for strat, kind in ((sp.sigma, NodeKind.MAX), (sp.tau, NodeKind.MIN)):
        owned = g.nodes_of_kind(kind)
        if set(strat.choice) != set(owned):
            raise ValueError(f"{kind.value} strategy must cover exactly {owned}")
        for i, c in strat.choice.items():
            if c not in (0, 1):
                raise ValueError(f"choice for node {i} must be 0 or 1, got {c}")
            chosen[i] = g.arcs_of(i)[c]
    return chosen


def reachable_to_terminal(g: Game, sp: StrategyPair) -> set[int]:
    """Nodes with a path to a terminal in the strategy subgraph.

    Max/min nodes follow their single chosen arc, average nodes keep both.
    Computed by backward reachability from the terminals.
    """
    return _backward_reach(g, _check_pair(g, sp), {g.terminal0, g.terminal1})


def _backward_reach(g: Game, chosen: dict[int, int], targets: set[int]) -> set[int]:
    rev: list[list[int]] = [[] for _ in range(g.n + 1)]
    for i in range(1, g.n + 1):
        if i in targets:
            continue
        kind = g.kind(i)
        if kind.is_terminal:
            continue
        outs = (chosen[i],) if kind.is_decision else g.arcs_of(i)
        for t in outs:
            rev[t].append(i)
    reach = set(targets)
    stack = list(targets)
    while stack:
        u = stack.pop()
        for p in rev[u]:
            if p not in reach:
                reach.add(p)
                stack.append(p)
    return reach


def evaluate_strategy_pair(
    g: Game,
    sp: StrategyPair,
    mode: str = FLOAT,
    fixed_values: dict | None = None,
) -> ValueVector:
    """Solve the value system for a fixed strategy pair.

    ``fixed_values`` pins extra nodes to known constants (on top of the
    terminals at 0 and 1), which is how strongly-connected components are
    solved against already-solved boundary values.

    Exact mode returns Fractions; float mode guarantees every equation's
    residual is at most 1e-9.
    """
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    chosen = _check_pair(g, sp)
    n = g.n
    fixed: dict[int, Fraction] = {g.terminal0: Fraction(0), g.terminal1: Fraction(1)}
    if fixed_values:
        for i, v in fixed_values.items():
            fixed[i] = Fraction(v)

    reach = _backward_reach(g, chosen, set(fixed))
    known: dict[int, Fraction] = dict(fixed)
    for i in range(1, n + 1):
        if i not in reach:
            known[i] = Fraction(0)

    # Collapse max/min alias chains onto their first known or average node.
    resolved: dict[int, tuple] = {}

    def resolve(i: int) -> tuple:
        path = []
        cur = i
        while True:
            if cur in resolved:
                res = resolved[cur]
                break
            if cur in known:
                res = ("const", known[cur])
                break
            if g.kind(cur) is NodeKind.AVERAGE:
                res = ("var", cur)
                break
            path.append(cur)
            cur = chosen[cur]
            if len(path) > n:
                raise EvaluationContractError("alias chain failed to terminate")
        for p in path:
            resolved[p] = res
        return res

    unknown_avg = [
        i for i in range(1, n + 1) if g.kind(i) is NodeKind.AVERAGE and i not in known
    ]
    index = {u: pos for pos, u in enumerate(unknown_avg)}
    rows: list[dict[int, int]] = []
    rhs: list[Fraction] = []
    for u in unknown_avg:
        row = {index[u]: 2}
        const = Fraction(0)
        for child in g.arcs_of(u):
            tag, val = resolve(child)
            if tag == "const":
                const += val
            else:
                col = index[val]
                row[col] = row.get(col, 0) - 1
        rows.append(row)
        rhs.append(const)

    if mode == EXACT:
        solution = linsolve.solve_exact(rows, rhs)
    else:
        solution = linsolve.solve_float(rows, rhs)

    values: list = [None] * n
    for i in range(1, n + 1):
        if i in known:
            values[i - 1] = known[i]
        elif g.kind(i) is NodeKind.AVERAGE:
            values[i - 1] = solution[index[i]]
        else:
            tag, val = resolve(i)
            values[i - 1] = val if tag == "const" else solution[index[val]]

    if mode == EXACT:
        for v in values:
            if not 0 <= v <= 1:
                raise EvaluationContractError(f"exact value {v} outside [0, 1]")
        return ValueVector(tuple(values), EXACT)

    out = []
    for v in values:
        f = float(v)
        if f < 0.0 or f > 1.0:
            if f < -1e-9 or f > 1.0 + 1e-9:
                raise EvaluationContractError(f"float value {f} outside [0, 1]")
            f = min(max(f, 0.0), 1.0)
        out.append(f)
    return ValueVector(tuple(out), FLOAT)


def _local_value(kind: NodeKind, a, b):
    if kind is NodeKind.MAX:
        return a if a >= b else b
    if kind is NodeKind.MIN:
        return a if a <= b else b
    return (a + b) / 2


def is_stable(g: Game, v: ValueVector, tol: float = DEFAULT_STABLE_TOL) -> bool:
    """True when every node satisfies its local equation within ``tol``.

    With tol=0 and exact values this is an exact stability check.
    """
    vals = v.values
    for i in range(1, g.n + 1):
        kind = g.kind(i)
        if kind.is_terminal:
            continue
        j, k = g.arcs_of(i)
        want = _local_value(kind, vals[j - 1], vals[k - 1])
        diff = vals[i - 1] - want
        if diff < 0:
            diff = -diff
        if diff > tol:
            return False
    return True


def switchable_set(
    g: Game, v: ValueVector, player: Player, margin: float | None = None
) -> set[int]:
    """The player's nodes whose other arc is strictly better than their
    current value.

    Because a node's value equals its chosen successor's value under any
    strategy-pair evaluation, comparing against ``v[i]`` needs no access
    to the strategy itself.  Strictness uses exact comparison on exact
    vectors and a small margin on float vectors.
    """
    if margin is None:
        margin = 0 if v.mode == EXACT else DEFAULT_SWITCH_MARGIN
    vals = v.values
    out = set()
    for i in g.nodes_of_kind(player.node_kind):
        j, k = g.arcs_of(i)
        if player is Player.MAX:
            if max(vals[j - 1], vals[k - 1]) > vals[i - 1] + margin:
                out.add(i)
        elif min(vals[j - 1], vals[k - 1]) < vals[i - 1] - margin:
            out.add(i)
    return out


def _improve_all(
    g: Game, strat: Strategy, v: ValueVector, margin: float | None
) -> Strategy | None:
    """Switch every strictly improving node; None when already optimal."""
    if margin is None:
        margin = 0 if v.mode == EXACT else DEFAULT_SWITCH_MARGIN
    vals = v.values
    better_sign = 1 if strat.player is Player.MAX else -1
    new_choice = dict(strat.choice)
    switched = False
    for i, c in strat.choice.items():
        j, k = g.arcs_of(i)
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
    if set(resp.choice) != set(g.nodes_of_kind(player.node_kind)):
        raise ValueError("initial strategy does not cover the responder's nodes")

    cap = 10 * len(resp.choice) + 20

    def pair_for(r: Strategy) -> StrategyPair:
        return StrategyPair(r, fixed) if player is Player.MAX else StrategyPair(fixed, r)

    for _ in range(cap):
        v = evaluate_strategy_pair(g, pair_for(resp), FLOAT)
        improved = _improve_all(g, resp, v, None)
        if improved is None:
            break
        resp = improved
    else:
        raise EvaluationContractError("float policy iteration hit its cap")

    if mode == FLOAT:
        return resp, v

    for _ in range(cap):
        v = evaluate_strategy_pair(g, pair_for(resp), EXACT)
        improved = _improve_all(g, resp, v, None)
        if improved is None:
            return resp, v
        resp = improved
    raise EvaluationContractError("exact policy iteration hit its cap")


# --- value vector JSON ------------------------------------------------------


def value_vector_to_json(v: ValueVector) -> str:
    if v.mode == EXACT:
        vals = [str(Fraction(x)) for x in v.values]
    else:
        vals = [repr(float(x)) for x in v.values]
    return json.dumps({"mode": v.mode, "values": vals}, separators=(",", ":"))


def value_vector_from_json(text: str) -> ValueVector:
    data = json.loads(text)
    mode = data["mode"]
    if mode == EXACT:
        values = tuple(Fraction(s) for s in data["values"])
    elif mode == FLOAT:
        values = tuple(float(s) for s in data["values"])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ValueVector(values, mode)
