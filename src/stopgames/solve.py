"""Solvers for stopping games.

Two benchmarked algorithms and two independent oracles:

* Hoffman-Karp strategy improvement: switch every improving max node
  against an exact min best response each round.
* Permutation improvement (after Gimbert and Horn): guess an ascending
  value order of the average nodes, derive the deterministic-reachability
  strategies consistent with it, evaluate, and re-sort until the order is
  consistent and the assignment stable.
* Brute force: enumerate all strategy pairs and return a mutually optimal
  one, the ground truth for small games.
* Value iteration: iterate the local max/min/average operator from zero.

All four agree on every stopping game because the stable assignment is
unique.  ``SOLVERS`` maps each algorithm name to one uniform call,
``(game, seed, mode) -> SolveResult``; every entry refuses a game that is
not stopping.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Callable
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .evaluate import (
    DEFAULT_STABLE_TOL,
    EXACT,
    FLOAT,
    EvaluationContractError,
    Player,
    Strategy,
    StrategyPair,
    ValueVector,
    best_response,
    evaluate_strategy_pair,
    improve_all,
    is_stable,
    random_strategy,
    switchable_set,
    value_strings,
)
from .game import AVG, MAX, MIN, Game, require_stopping
from .reduce import scc_condense
from .rng import Rng

# Brute force and component-wise solving enumerate 2^d strategy
# assignments; both refuse more than this many decision nodes d.
BRUTE_FORCE_DECISION_CAP = 12


@dataclass(frozen=True)
class SolveResult:
    """Solution of one run: stable values, a mutually optimal pair, and
    the outer-iteration count of the algorithm that produced them.

    Value iteration fixes no strategies, so its ``strategies`` is None and
    ``iterations`` counts its sweeps; brute force and value iteration take
    no seed, so theirs is None.
    """

    values: ValueVector
    strategies: StrategyPair | None
    iterations: int
    algorithm: str
    seed: int | None
    permutation: tuple[int, ...] | None = None
    value_history: tuple | None = None

    def to_json(self) -> str:
        payload = {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "iterations": self.iterations,
            "mode": self.values.mode,
            "values": value_strings(self.values),
        }
        if self.strategies is not None:
            payload["max_strategy"] = {
                str(k): v for k, v in sorted(self.strategies.sigma.choice.items())
            }
            payload["min_strategy"] = {
                str(k): v for k, v in sorted(self.strategies.tau.choice.items())
            }
        return json.dumps(payload, separators=(",", ":"))


def _check_result(g: Game, v: ValueVector) -> None:
    tol = 0 if v.mode == EXACT else DEFAULT_STABLE_TOL
    if not is_stable(g, v, tol):
        raise EvaluationContractError("solver produced an unstable assignment")


def solve_hoffman_karp(
    g: Game, seed: int, mode: str = FLOAT, keep_history: bool = False
) -> SolveResult:
    """Strategy improvement from a uniformly random initial max strategy.

    Each iteration computes the min player's exact best response, then
    switches every max node whose other arc beats its current value; the
    loop ends on the iteration that finds nothing to switch.  In exact
    mode the value vector is checked to be componentwise non-decreasing
    between iterations, which the switch-all rule guarantees.
    """
    require_stopping(g, "Hoffman-Karp")
    sigma = random_strategy(g, Player.MAX, Rng(seed))
    tau: Strategy | None = None
    prev_values = None
    history = [] if keep_history else None
    iterations = 0
    cap = 10 * g.n + 100
    while True:
        iterations += 1
        if iterations > cap:
            raise EvaluationContractError(f"Hoffman-Karp exceeded {cap} iterations")
        tau, v = best_response(g, sigma, Player.MIN, mode, initial=tau)
        if mode == EXACT and prev_values is not None:
            # v.scaled / v.den against prev.scaled / prev.den, cross-multiplied
            den, prev_den = v.den, prev_values.den
            if any(a * prev_den < b * den for a, b in zip(v.scaled, prev_values.scaled)):
                raise EvaluationContractError(
                    "max values decreased between improvement rounds"
                )
        prev_values = v
        if history is not None:
            history.append(v)
        improved = improve_all(g, sigma, v)
        if improved is None:
            break
        sigma = improved
    _check_result(g, v)
    return SolveResult(
        values=v,
        strategies=StrategyPair(sigma, tau),
        iterations=iterations,
        algorithm="hk",
        seed=seed,
        value_history=tuple(history) if history is not None else None,
    )


def _order_induced_pair(g: Game, order: list[int]) -> StrategyPair:
    """Strategies consistent with reading ``order`` as ascending values.

    In the subgame where average nodes are sinks ranked by their position
    (the 1-terminal above all, the 0-terminal below), the max player
    moves to force the highest rank it can reach and the min player
    escapes to the lowest-ranked region its opponent cannot prevent.
    Arc choices follow from each node's rank: the highest rank whose
    target set (the 1-terminal and the averages at or above it) the max
    player can force play into, together with the node's attractor level
    there, the number of moves the witness strategy needs.

    The target sets are nested, so one level array serves every rank.  A
    level is 0 on a target, 1 + the smaller successor level on a max
    node, 1 + the larger one on a min node, and infinite outside the
    attractor; it only falls as targets are added.  Adding one target is
    a single update: its level drops to 0 and only the levels that fall
    are propagated to parents, lowest first, through a heap.  A node
    popped with a finite level for the first time joins the current rank
    with that level.  The levels equal the breadth-first levels of a
    from-scratch attractor per rank.  A pass costs O((n + m + F) log n)
    for n nodes, m arcs and F falls of levels that were already finite;
    on generated games of 200 to 1024 nodes F stays below the number of
    decision nodes.
    """
    n = g.n
    k = len(order)
    arcs, code, parents = g.arcs, g.code, g.parents()
    rank = [0] * (n + 1)
    rank[g.terminal1] = k + 1
    for pos, node in enumerate(order, start=1):
        rank[node] = pos
    level = [0] * (n + 1)  # frozen when a decision node is ranked
    infinite = n + 1  # finite levels count decision nodes, so stay below n
    lvl = [infinite] * (n + 1)
    for i in range(k + 1, 0, -1):
        target = g.terminal1 if i > k else order[i - 1]
        lvl[target] = 0
        heap = [(0, target)]
        while heap:
            d, u = heappop(heap)
            if d != lvl[u]:
                continue  # superseded by a lower level
            if not rank[u]:
                rank[u] = i
                level[u] = d
            for p in parents[u]:
                c = code[p]
                if c == MAX:
                    nd = d + 1
                elif c == MIN:
                    a, b = arcs[p - 1]
                    la, lb = lvl[a], lvl[b]
                    nd = (la if la > lb else lb) + 1
                else:
                    continue
                if nd < lvl[p]:
                    lvl[p] = nd
                    heappush(heap, (nd, p))

    sigma: dict[int, int] = {}
    tau: dict[int, int] = {}
    for v in g.max_nodes:
        a, b = arcs[v - 1]
        if rank[v] == 0:
            sigma[v] = 0
        elif rank[a] == rank[v] and level[a] < level[v]:
            sigma[v] = 0
        elif rank[b] == rank[v] and level[b] < level[v]:
            sigma[v] = 1
        else:
            raise EvaluationContractError("attractor witness missing")
    for v in g.min_nodes:
        a, b = arcs[v - 1]
        # both targets sit at rank <= rank[v]; take the lower region
        # (kept play can never be forced above the node's own rank)
        if rank[a] > rank[v] and rank[b] > rank[v]:
            raise EvaluationContractError("trap escape missing")
        if rank[a] > rank[v]:
            tau[v] = 1
        elif rank[b] > rank[v]:
            tau[v] = 0
        else:
            tau[v] = 0 if rank[a] <= rank[b] else 1
    return StrategyPair(Strategy(Player.MAX, sigma), Strategy(Player.MIN, tau))


def solve_permutation_improvement(
    g: Game, seed: int, mode: str = FLOAT, iteration_cap: int | None = None
) -> SolveResult:
    """Iterate candidate value orderings of the average nodes.

    Each pass derives the strategies induced by the current order,
    evaluates them, and re-sorts the averages by value (stable, so ties
    keep their relative order); the loop stops once the values are
    non-decreasing along the order and no node of either player can
    improve.  The seeded permutation's own evaluation is setup rather
    than an improvement, so ``iterations`` counts the re-sort passes
    after it; a run whose seed permutation is already optimal reports
    the single confirming pass.  A pass is a deterministic function of
    its order, so an order met again means the loop cycles and will
    never settle: it raises ``EvaluationContractError`` at the first
    repeat.  The cap is a defect tripwire, not an expected exit.
    """
    require_stopping(g, "permutation improvement")
    averages = g.average_nodes
    if not averages:
        raise ValueError("permutation improvement needs at least one average node")
    if iteration_cap is None:
        iteration_cap = 10 * g.n
    order = list(averages)
    Rng(seed).shuffle(order)
    seen: dict[tuple[int, ...], int] = {}  # order -> the pass that evaluated it
    passes = 0
    while passes < iteration_cap:
        passes += 1
        key = tuple(order)
        if key in seen:
            raise EvaluationContractError(
                f"permutation improvement cycles: pass {passes} repeats "
                f"the order of pass {seen[key]}"
            )
        seen[key] = passes
        sp = _order_induced_pair(g, order)
        v = evaluate_strategy_pair(g, sp, mode)
        # re-sorting first makes the order consistent with these values;
        # stability of the assignment is then the binding condition
        scaled = v.scaled
        order.sort(key=lambda node: scaled[node - 1])
        if not switchable_set(g, v, Player.MAX) and not switchable_set(
            g, v, Player.MIN
        ):
            _check_result(g, v)
            return SolveResult(
                values=v,
                strategies=sp,
                iterations=max(1, passes - 1),
                algorithm="perm",
                seed=seed,
                permutation=tuple(order),
            )
    raise EvaluationContractError(
        f"permutation improvement failed to settle within {iteration_cap} rounds"
    )


def solve_brute_force(g: Game) -> SolveResult:
    """Enumerate every strategy pair and return a mutually optimal one.

    Exact arithmetic throughout; the independent ground truth for small
    games.  Refuses games with more than ``BRUTE_FORCE_DECISION_CAP``
    decision nodes.
    """
    require_stopping(g, "brute force")
    max_nodes = g.max_nodes
    min_nodes = g.min_nodes
    d = len(max_nodes) + len(min_nodes)
    if d > BRUTE_FORCE_DECISION_CAP:
        raise ValueError(
            f"{d} decision nodes exceed the brute-force cap {BRUTE_FORCE_DECISION_CAP}"
        )
    examined = 0
    for sigma_bits in itertools.product((0, 1), repeat=len(max_nodes)):
        sigma = Strategy(Player.MAX, dict(zip(max_nodes, sigma_bits)))
        for tau_bits in itertools.product((0, 1), repeat=len(min_nodes)):
            tau = Strategy(Player.MIN, dict(zip(min_nodes, tau_bits)))
            examined += 1
            pair = StrategyPair(sigma, tau)
            v = evaluate_strategy_pair(g, pair, EXACT)
            if is_stable(g, v, 0):
                return SolveResult(
                    values=v,
                    strategies=pair,
                    iterations=examined,
                    algorithm="bf",
                    seed=None,
                )
    raise EvaluationContractError("no stable strategy pair found")


def solve_value_iteration(
    g: Game, tol: float = 1e-12, max_sweeps: int = 1_000_000, keep_history: bool = False
) -> SolveResult:
    """Fixpoint iteration of the local operator from the zero vector.

    The iterates increase monotonically toward the unique stable
    assignment on a stopping game; iteration stops when the largest
    componentwise change drops below ``tol``.  ``iterations`` is the
    sweep count; ``keep_history`` keeps every iterate, the zero start
    included, in ``value_history``.
    """
    require_stopping(g, "value iteration")
    n = g.n
    t0, t1 = g.terminal0 - 1, g.terminal1 - 1
    # the terminals, nodes n-1 and n, loop to themselves
    succ = np.array(g.arcs[:-2] + ((n - 1, n - 1), (n, n)), dtype=np.int64) - 1
    a0, a1 = succ[:, 0], succ[:, 1]
    code = np.array(g.code[1:])
    max_mask = code == MAX
    min_mask = code == MIN
    avg_mask = code == AVG

    v = np.zeros(n)
    v[t1] = 1.0
    history = [ValueVector(tuple(v.tolist()), FLOAT)] if keep_history else None
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        left, right = v[a0], v[a1]
        nv = v.copy()
        nv[max_mask] = np.maximum(left, right)[max_mask]
        nv[min_mask] = np.minimum(left, right)[min_mask]
        nv[avg_mask] = (0.5 * (left + right))[avg_mask]
        nv[t0] = 0.0
        nv[t1] = 1.0
        diff = np.abs(nv - v).max()
        v = nv
        if history is not None:
            history.append(ValueVector(tuple(v.tolist()), FLOAT))
        if diff < tol:
            return SolveResult(
                values=ValueVector(tuple(v.tolist()), FLOAT),
                strategies=None,
                iterations=sweeps,
                algorithm="vi",
                seed=None,
                value_history=tuple(history) if history is not None else None,
            )
    raise EvaluationContractError(f"value iteration did not converge in {max_sweeps} sweeps")


def solve_by_components(g: Game) -> ValueVector:
    """Exact solution by settling strongly connected components in order.

    Components are taken sinks first.  Each evaluation covers the whole
    game, with every component settled so far held at its stable
    strategies; inside the current component every strategy assignment
    is tried until none of its nodes can switch for either player.  A
    component's values depend only on its own strategies and on the
    components below it, so the rest of the pair does not matter, and on
    a stopping game every pair's system is nonsingular.
    """
    require_stopping(g, "component-wise solving")
    code = g.code
    pair = StrategyPair(
        Strategy(Player.MAX, {i: 0 for i in g.max_nodes}),
        Strategy(Player.MIN, {i: 0 for i in g.min_nodes}),
    )
    sigma, tau = pair.sigma.choice, pair.tau.choice  # updated in place below
    for comp in scc_condense(g):
        comp_max = sorted(i for i in comp if code[i] == MAX)
        comp_min = sorted(i for i in comp if code[i] == MIN)
        if len(comp_max) + len(comp_min) > BRUTE_FORCE_DECISION_CAP:
            raise ValueError("component exceeds the enumeration cap")
        if not comp_max and not comp_min:
            continue
        for bits in itertools.product((0, 1), repeat=len(comp_max) + len(comp_min)):
            sigma.update(zip(comp_max, bits))
            tau.update(zip(comp_min, bits[len(comp_max) :]))
            v = evaluate_strategy_pair(g, pair, EXACT)
            switchable = switchable_set(g, v, Player.MAX) | switchable_set(g, v, Player.MIN)
            if switchable.isdisjoint(comp):
                break
        else:
            raise EvaluationContractError("component has no stable assignment")
    return evaluate_strategy_pair(g, pair, EXACT)


# Entries look their solver up when called, so a module attribute rebound
# later (as the benchmark's layer tracer does) sees registry calls too.
SOLVERS: dict[str, Callable[[Game, int, str], SolveResult]] = {
    "hk": lambda g, seed, mode: solve_hoffman_karp(g, seed, mode),
    "perm": lambda g, seed, mode: solve_permutation_improvement(g, seed, mode),
    "bf": lambda g, seed, mode: solve_brute_force(g),
    "vi": lambda g, seed, mode: solve_value_iteration(g),
}
ALGORITHMS = tuple(SOLVERS)

