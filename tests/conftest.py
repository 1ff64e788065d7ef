"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-implement semantics from scratch (path
searches, fixed-pair fixpoint iteration, strategy enumeration) so that
library code is checked against something that does not share its code
paths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from stopgames import (
    EXACT,
    Game,
    NodeKind,
    PartialGame,
    Player,
    Strategy,
    StrategyPair,
    ValueVector,
    linsolve,
)
from stopgames.game import AVG
from stopgames.generate import GenParams, Variant, generate_basic
from stopgames.rng import Rng

KIND = {
    "max": NodeKind.MAX,
    "min": NodeKind.MIN,
    "avg": NodeKind.AVERAGE,
    "t0": NodeKind.TERMINAL0,
    "t1": NodeKind.TERMINAL1,
}


def build_game(entries) -> Game:
    """Compact game builder: entries are (kind, (j, k)) per non-terminal
    node in id order; the two terminals are appended automatically."""
    n = len(entries) + 2
    kinds = [KIND[k] for k, _ in entries] + [NodeKind.TERMINAL0, NodeKind.TERMINAL1]
    arcs = [tuple(a) for _, a in entries] + [(), ()]
    return Game(n, tuple(kinds), tuple(arcs))


def random_full_game(rng: Rng, decision_nodes: int, allow_self_arcs: bool = True) -> Game:
    """Random well-formed game, frequently non-stopping; arc targets are
    uniform over all nodes."""
    n = decision_nodes + 2
    entries = []
    for i in range(1, n - 1):
        kind = ("max", "min", "avg")[rng.randbelow(3)]
        while True:
            a = 1 + rng.randbelow(n)
            b = 1 + rng.randbelow(n)
            if allow_self_arcs or (a != i and b != i):
                break
        entries.append((kind, (a, b)))
    return build_game(entries)


def random_stopping_game(seed: int, max_nodes: int = 12) -> Game:
    """Small random stopping game via the basic generator with random
    node-type counts."""
    rng = Rng(seed)
    total = 5 + rng.randbelow(max_nodes - 4)  # 5..max_nodes
    budget = total - 2
    a = 1 + rng.randbelow(budget - 2)
    b = 1 + rng.randbelow(budget - a - 1)
    c = budget - a - b
    return generate_basic(
        GenParams(n=total, a=a, b=b, c=c, seed=rng.u64(), variant=Variant.BASIC)
    )


def random_pair(g: Game, rng: Rng) -> StrategyPair:
    return StrategyPair(
        Strategy(Player.MAX, {i: rng.randbelow(2) for i in g.max_nodes}),
        Strategy(Player.MIN, {i: rng.randbelow(2) for i in g.min_nodes}),
    )


def all_strategy_pairs(g: Game):
    max_nodes, min_nodes = g.max_nodes, g.min_nodes
    for sigma_bits in itertools.product((0, 1), repeat=len(max_nodes)):
        sigma = Strategy(Player.MAX, dict(zip(max_nodes, sigma_bits)))
        for tau_bits in itertools.product((0, 1), repeat=len(min_nodes)):
            yield StrategyPair(sigma, Strategy(Player.MIN, dict(zip(min_nodes, tau_bits))))


def oracle_reaching_nodes(g: Game, sp: StrategyPair) -> set[int]:
    """Independent path oracle: the nodes with a path to a terminal in the
    strategy subgraph.  Forward closure per node, no shared machinery."""
    chosen = {}
    for i in g.max_nodes:
        chosen[i] = g.arcs_of(i)[sp.sigma.choice[i]]
    for i in g.min_nodes:
        chosen[i] = g.arcs_of(i)[sp.tau.choice[i]]
    terminals = {g.terminal0, g.terminal1}
    reaching = set()
    for start in range(1, g.n + 1):
        seen = {start}
        stack = [start]
        found = start in terminals
        while stack and not found:
            u = stack.pop()
            if u in terminals:
                found = True
                break
            outs = (chosen[u],) if g.kind(u).is_decision else g.arcs_of(u)
            for t in outs:
                if t in terminals:
                    found = True
                    break
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if found:
            reaching.add(start)
    return reaching


def oracle_successors(g: Game, sp: StrategyPair) -> list[int]:
    """``succ[i]`` is the chosen target of max/min node i, 0 elsewhere, by
    a per-node loop; ``ValueError`` unless each strategy covers exactly
    its player's nodes with 0/1 choices."""
    succ = [0] * (g.n + 1)
    max_set, min_set = frozenset(g.max_nodes), frozenset(g.min_nodes)
    for name, strat, owned in (("max", sp.sigma, max_set), ("min", sp.tau, min_set)):
        if strat.choice.keys() != owned:
            raise ValueError(f"{name} strategy must cover exactly {sorted(owned)}")
        for i, c in strat.choice.items():
            if c not in (0, 1):
                raise ValueError(f"choice for node {i} must be 0 or 1, got {c}")
            succ[i] = g.arcs[i - 1][c]
    return succ


def reach_order(g: Game, succ: list[int]) -> list[int]:
    """The terminals and every node with a path to one in the strategy
    subgraph, breadth first over the game's parents: a max/min node comes
    after its chosen successor, through which it was reached."""
    code, parents = g.code, g.parents()
    seen = [False] * (g.n + 1)
    order = [g.terminal0, g.terminal1]
    for u in order:
        seen[u] = True
    for u in order:  # FIFO: the list grows while it is walked
        for p in parents[u]:
            if not seen[p] and (code[p] == AVG or succ[p] == u):
                seen[p] = True
                order.append(p)
    return order


def oracle_value_system(g: Game, sp: StrategyPair):
    """The value system of a strategy pair, built node by node: ``(rhs,
    coo, col, const)`` with ``rhs`` and the COO triplets as int lists in
    ``evaluate_strategy_pair``'s order, and per node id the column of the
    unknown its value equals (-1 for a constant) and its 0/1 constant.

    The unknowns are the averages of the reach walk in ascending id; each
    max/min node copies its successor's column and constant after the walk
    reached that successor.
    """
    succ = oracle_successors(g, sp)
    col = [-1] * (g.n + 1)
    const = [0] * (g.n + 1)
    const[g.terminal1] = 1
    reached = reach_order(g, succ)[2:]
    unknown_avg = sorted(u for u in reached if g.code[u] == AVG)
    for pos, u in enumerate(unknown_avg):
        col[u] = pos
    for u in reached:
        s = succ[u]
        if s:
            col[u], const[u] = col[s], const[s]
    a = len(unknown_avg)
    rows, cols, rhs = list(range(a)), list(range(a)), []
    for pos, u in enumerate(unknown_avg):
        b = 0
        for child in g.arcs[u - 1]:
            if col[child] < 0:
                b += const[child]
            else:
                rows.append(pos)
                cols.append(col[child])
        rhs.append(b)
    return rhs, (rows, cols, [2] * a + [-1] * (len(rows) - a)), col, const


def oracle_evaluate(g: Game, sp: StrategyPair, mode: str) -> ValueVector:
    """``evaluate_strategy_pair`` on ``oracle_value_system``: the same
    solvers, then every node's value read through its column or constant."""
    rhs, coo, col, const = oracle_value_system(g, sp)
    if mode == EXACT:
        solution, den = linsolve.solve_exact(rhs, coo)
        constants = (0, den)
    else:
        solution = [min(max(f, 0.0), 1.0) if f < 0.0 or f > 1.0 else f for f in linsolve.solve_float(rhs, coo).tolist()]
        constants, den = (0.0, 1.0), 1
    return ValueVector(tuple([solution[c] if c >= 0 else constants[k] for c, k in zip(col, const)][1:]), mode, den)


def subgraph_reaches_terminal(g: Game, sp: StrategyPair) -> bool:
    """Does every node reach a terminal in the strategy subgraph?"""
    return len(oracle_reaching_nodes(g, sp)) == g.n


def oracle_is_stopping(g: Game) -> bool:
    return all(subgraph_reaches_terminal(g, sp) for sp in all_strategy_pairs(g))


def oracle_scc_partition(g: Game) -> set[frozenset[int]]:
    """The non-terminal strongly connected components by mutual
    reachability: u and v share one iff each reaches the other through
    non-terminals.  One forward closure per node, no shared machinery."""
    nonterminals = [i for i in range(1, g.n + 1) if not g.kind(i).is_terminal]
    reach = {}
    for start in nonterminals:
        seen = {start}
        stack = [start]
        while stack:
            for t in g.arcs_of(stack.pop()):
                if not g.kind(t).is_terminal and t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach[start] = seen
    return {frozenset(v for v in reach[u] if u in reach[v]) for u in nonterminals}


def oracle_pair_values(g: Game, sp: StrategyPair, sweeps: int = 200000, tol: float = 1e-13):
    """Independent fixed-pair solution: iterate the per-node update from
    zero, which converges to the zero-setting solution."""
    chosen = {}
    for i in g.max_nodes:
        chosen[i] = g.arcs_of(i)[sp.sigma.choice[i]]
    for i in g.min_nodes:
        chosen[i] = g.arcs_of(i)[sp.tau.choice[i]]
    v = [0.0] * (g.n + 1)
    v[g.terminal1] = 1.0
    for _ in range(sweeps):
        delta = 0.0
        nv = v[:]
        for i in range(1, g.n + 1):
            kind = g.kind(i)
            if kind.is_terminal:
                continue
            if kind.is_decision:
                nv[i] = v[chosen[i]]
            else:
                a, b = g.arcs_of(i)
                nv[i] = 0.5 * (v[a] + v[b])
            delta = max(delta, abs(nv[i] - v[i]))
        v = nv
        if delta < tol:
            break
    return v


class _CountingParents(tuple):
    """A parent list that counts, in a shared one-cell list, every entry
    a loop over it reads."""

    def __new__(cls, entries, counter: list[int]):
        self = super().__new__(cls, entries)
        self.counter = counter
        return self

    def __iter__(self):
        for p in tuple.__iter__(self):
            self.counter[0] += 1
            yield p


def terminal_valued_and_examinations(g: Game, polarity) -> tuple[frozenset[int], int]:
    """``find_terminal_valued(g, polarity)`` and the number of parent
    entries it examined, counted from outside: the game's cached parent
    lists are swapped for counting ones around the call.  The stopping
    flag is settled first, so that the bad-core check a first
    ``require_stopping`` runs over the same lists is not counted."""
    from stopgames import find_terminal_valued

    assert g.stopping
    parents = g.parents()
    counter = [0]
    g.__dict__["_parents"] = tuple(_CountingParents(p, counter) for p in parents)
    try:
        found = find_terminal_valued(g, polarity)
    finally:
        g.__dict__["_parents"] = parents
    return found, counter[0]


def brute_force_valid_arcs(pg: PartialGame, m: int) -> set[int]:
    """Add-and-check oracle: every target whose added arc leaves the
    bad core empty."""
    from stopgames import find_bad_core

    p = pg.arcs_of(m)[0]
    valid = set()
    for q in range(1, pg.n + 1):
        if q in (m, p):
            continue
        trial = PartialGame(list(pg.kinds))
        for i in range(1, pg.n + 1):
            for t in pg.arcs_of(i):
                trial.add_arc(i, t)
        trial.add_arc(m, q)
        if not find_bad_core(trial):
            valid.add(q)
    return valid


def ancestor_peel_valid_arcs(g, m: int) -> set[int]:
    """Reference valid-arc search, the generator's former algorithm: mark
    every ancestor of m unsafe, then restore nodes that provably cannot sit
    in a player-controlled terminal-free set.  O(n) per call."""
    p = g.arcs_of(m)[0]
    parents = g.parents()
    safe = [True] * (g.n + 1)
    safe[m] = False
    removed = []
    stack = [m]
    while stack:
        u = stack.pop()
        for par in parents[u]:
            if safe[par]:
                safe[par] = False
                removed.append(par)
                stack.append(par)

    def restorable(v: int) -> bool:
        out = g.arcs_of(v)
        if g.kind(v) is NodeKind.AVERAGE:
            return len(out) < 2 or any(safe[t] for t in out)
        return all(safe[t] for t in out)

    queue = [v for v in removed if restorable(v)]
    while queue:
        v = queue.pop()
        if safe[v] or not restorable(v):
            continue
        safe[v] = True
        for par in parents[v]:
            if not safe[par] and par != m:
                queue.append(par)
    return {q for q in range(1, g.n + 1) if safe[q]} - {m, p}


def oracle_values(g: Game) -> dict[int, Fraction]:
    """Ground-truth optimal values by exhaustive strategy enumeration."""
    from stopgames import solve_brute_force

    res = solve_brute_force(g)
    return {i: res.values.value(i) for i in range(1, g.n + 1)}


def assert_value_preserving(g: Game, reduced: Game, report) -> None:
    """Solving the reduced game and mapping back must reproduce the
    original game's ground-truth values exactly."""
    from stopgames import recover_values

    before = oracle_values(g)
    if reduced.n > 2:
        reduced_vals = oracle_values(reduced)
    else:
        reduced_vals = {1: Fraction(0), 2: Fraction(1)}
    recovered = recover_values(g, report, reduced_vals)
    assert recovered == before


def deep_partial(seed: int, nodes: int) -> tuple[PartialGame, int]:
    """Random bad-core-free partial game plus a max/min node with exactly
    one out-arc, the input shape of the valid-arc search."""
    from stopgames import find_bad_core

    rng = Rng(seed)
    while True:
        n = max(4, nodes)
        kinds = [KIND[("max", "min", "avg")[rng.randbelow(3)]] for _ in range(n - 2)]
        kinds += [NodeKind.TERMINAL0, NodeKind.TERMINAL1]
        pg = PartialGame(kinds)
        for i in range(1, n - 1):
            arc_count = (0, 1, 1, 2, 2)[rng.randbelow(5)]
            for _ in range(arc_count):
                pg.add_arc(i, 1 + rng.randbelow(n))
        if find_bad_core(pg):
            continue
        candidates = [
            i
            for i in range(1, n - 1)
            if pg.kind(i).is_decision and len(pg.arcs_of(i)) == 1
        ]
        if not candidates:
            continue
        return pg, candidates[rng.randbelow(len(candidates))]
