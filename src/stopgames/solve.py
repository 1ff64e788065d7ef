"""Solvers for stopping games.

Two benchmarked algorithms and two independent oracles:

* Hoffman-Karp strategy improvement: switch every improving max node
  against a min best response each round; exact mode runs in float64
  until float settles, fails or cannot be trusted.
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
not stopping, and every result leaves through ``_finish``, which checks
it stable at its mode's tolerance.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .evaluate import (
    DEFAULT_SWITCH_MARGIN,
    EXACT,
    FLOAT,
    STEER,
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
)
from .game import MAX, MIN, Game, require_stopping
from .linsolve import SingularSystemError
from .rng import Rng

# Brute force enumerates 2^d strategy assignments; it refuses more than
# this many decision nodes d.
BRUTE_FORCE_DECISION_CAP = 12


class NonConvergenceError(RuntimeError):
    """Value iteration reached its sweep cap before its largest change fell
    below its tolerance: a numerical outcome on a slowly converging game,
    not a defect."""


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

    def payload(self, g: Game) -> dict:
        """The result as a JSON-ready dict, each value as its ``str``
        (``num/den`` exact, the shortest round-trip repr in float); ``g``
        is the solved game, whose node ids key the strategies."""
        out = {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "iterations": self.iterations,
            "mode": self.values.mode,
            "values": list(map(str, self.values.values)),
        }
        if self.strategies is not None:
            for key, strat in (("max_strategy", self.strategies.sigma), ("min_strategy", self.strategies.tau)):
                out[key] = {str(k): c for k, c in strat.choice(g).items()}
        return out


def _check_mode(mode: str) -> None:
    """``ValueError`` unless ``mode`` is one a solver runs in: exact or
    float, not the steering mode that only exact hk uses inside."""
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown mode {mode!r}")


def _finish(
    g: Game, algorithm: str, seed: int | None, v: ValueVector, strategies: StrategyPair | None, iterations: int, **extra
) -> SolveResult:
    """The one exit of every solver: ``EvaluationContractError`` unless
    ``v`` is stable at its mode's tolerance, else the ``SolveResult``."""
    if not is_stable(g, v):
        raise EvaluationContractError(f"{algorithm} produced an unstable assignment")
    return SolveResult(v, strategies, iterations, algorithm, seed, **extra)


def solve_hoffman_karp(
    g: Game, seed: int, mode: str = FLOAT, keep_history: bool = False
) -> SolveResult:
    """Strategy improvement from a uniformly random initial max strategy.

    Each iteration computes the min player's best response, then switches
    every max node whose other arc beats its current value; the loop ends
    on the iteration that finds nothing to switch.

    Exact mode starts in float64: its best responses run in ``STEER``
    mode, each evaluation built and factored once, and their values
    steer the max strategy only while the ``float_error_estimate`` that
    the final pair's values carry stays within half the switch margin:
    where the estimate bounds the float error, a tie then never switches
    in float, and a gain above twice the margin switches as in exact
    arithmetic.  At the first iteration that finds nothing to switch in
    float, whose float system float64 cannot factor or solve within the
    residual bound, or whose final pair's estimate exceeds that bound,
    the loop turns exact for good: that iteration is redone from the
    same max strategy, the best response starting from the last float
    one, and the loop goes on until an exact iteration switches nothing.
    With ``keep_history`` each float iteration is also evaluated exactly,
    by an exact best response from the float one that steers nothing,
    and ``value_history`` holds the exact vector of every iteration.
    Every exact vector is checked to be componentwise non-decreasing from
    the one before, which the switch-all rule guarantees.
    """
    require_stopping(g, "Hoffman-Karp")
    _check_mode(mode)
    sigma = random_strategy(g, Player.MAX, Rng(seed))
    tau: Strategy | None = None
    float_ahead = mode == EXACT  # until float settles, fails or is not trusted, then exact for good
    prev_values = None
    history = [] if keep_history else None
    iterations = 0
    cap = 10 * g.n + 100
    while True:
        iterations += 1
        if iterations > cap:
            raise EvaluationContractError(f"Hoffman-Karp exceeded {cap} iterations")
        if float_ahead:
            try:
                tau, v = best_response(g, sigma, STEER, initial=tau)
                improved = improve_all(g, sigma, v)
            except SingularSystemError:
                improved = None
            # a switch compares two values, each off by up to the estimate
            float_ahead = improved is not None and v.estimate <= DEFAULT_SWITCH_MARGIN / 2
        if float_ahead:
            # float steers; a history records the exact vector, which steers nothing
            seen = best_response(g, sigma, EXACT, initial=tau)[1] if keep_history else None
        else:
            tau, v = best_response(g, sigma, mode, initial=tau)
            improved = improve_all(g, sigma, v)
            seen = v
        if seen is not None:
            if mode == EXACT and prev_values is not None:
                # seen.scaled / seen.den against prev.scaled / prev.den, cross-multiplied
                den, prev_den = seen.den, prev_values.den
                if any(a * prev_den < b * den for a, b in zip(seen.scaled, prev_values.scaled)):
                    raise EvaluationContractError(
                        "max values decreased between improvement rounds"
                    )
            prev_values = seen
            if history is not None:
                history.append(seen)
        if improved is None:
            break
        sigma = improved
    history = None if history is None else tuple(history)
    return _finish(g, "hk", seed, v, StrategyPair(sigma, tau), iterations, value_history=history)


def _order_induced_pair(g: Game, order: list[int]) -> StrategyPair:
    """Strategies consistent with reading ``order`` as ascending values.

    Averages are sinks ranked by their position in ``order``, the
    1-terminal k + 1 and the 0-terminal 0.  A max/min node's rank is the
    highest rank r whose target set (the 1-terminal and the averages of
    rank r or more) the max player can force play into.  The max/min
    nodes of a stopping game form a DAG, so one sweep over
    ``g.decision_order`` gives each max node the larger rank of its
    children and each min node the smaller.

    A min node moves to its lower-ranked child and a max node to its
    higher-ranked one, each to the first on a tie, except that a max node
    of rank r >= 1 with both children at r moves to the second when that
    child's attractor level toward the targets of rank r is smaller.  A
    level is 0 on a target, 1 + the smallest level among a max node's
    children of rank r or more, and 1 + the larger level of a min node's
    children, each counted toward the targets of rank r whatever its own
    rank.  Only such ties ask for levels, memoized in one list per rank
    and walked on an explicit stack, as the DAG can be deeper than the
    recursion limit.

    These are the ranks and breadth-first levels of the max player's
    attractor of each target set, taken from scratch (after Gimbert and
    Horn), so every max node of rank r >= 1 has a child at r with a
    smaller level and every min node a child at its own rank: the
    attractor witness and the trap escape always exist, and no pass
    checks for them.
    """
    n, k = g.n, len(order)
    arcs, code = g.arcs, g.code
    rank = [0] * (n + 1)
    rank[g.terminal1] = k + 1
    for pos, node in enumerate(order, start=1):
        rank[node] = pos
    for v in g.decision_order:
        a, b = arcs[v - 1]
        ra, rb = rank[a], rank[b]
        rank[v] = (ra if ra > rb else rb) if code[v] == MAX else (ra if ra < rb else rb)

    levels: dict[int, list[int]] = {}  # rank -> level per node, -1 until known

    def level(u: int, r: int) -> int:
        lv = levels.get(r)
        if lv is None:
            # every average reads 0: the walk never reaches one below r, as
            # a max node skips its children below r and a min node on the
            # walk has both children at r or above
            lv = levels[r] = [-1] * (n + 1)
            for x in order:
                lv[x] = 0
            lv[g.terminal1] = 0
        stack = [u]
        while stack:
            x = stack[-1]
            if lv[x] >= 0:
                stack.pop()
                continue
            a, b = arcs[x - 1]
            if code[x] == MAX:  # a child below rank r is outside the attractor
                if rank[a] < r:
                    a = b
                elif rank[b] < r:
                    b = a
                la, lb = lv[a], lv[b]
                if not la or not lb:  # a target child: the other cannot beat it
                    lv[x] = 1
                    stack.pop()
                    continue
            else:
                la, lb = lv[a], lv[b]
            if la < 0 or lb < 0:
                stack += (a, b)
                continue
            stack.pop()
            lv[x] = 1 + ((la if la < lb else lb) if code[x] == MAX else (la if la > lb else lb))
        return lv[u]

    sigma = []
    for v in g.max_nodes:
        a, b = arcs[v - 1]
        ra, rb = rank[a], rank[b]
        if ra != rb or not ra:
            sigma.append(1 if ra < rb else 0)
        else:
            sigma.append(1 if level(b, ra) < level(a, ra) else 0)
    tau = []
    for v in g.min_nodes:
        a, b = arcs[v - 1]
        tau.append(1 if rank[a] > rank[b] else 0)
    return StrategyPair(Strategy(Player.MAX, bytes(sigma)), Strategy(Player.MIN, bytes(tau)))


def solve_permutation_improvement(
    g: Game, seed: int, mode: str = FLOAT, iteration_cap: int | None = None
) -> SolveResult:
    """Iterate candidate value orderings of the average nodes.

    Each pass derives the strategies induced by the current order,
    evaluates them, and re-sorts the averages by value (stable, so ties
    keep their relative order); the loop stops once the values are
    non-decreasing along the order and ``improve_all`` switches no node
    of either player.  The seeded permutation's own evaluation is setup
    rather than an improvement, so ``iterations`` counts the re-sort
    passes after it; a run whose seed permutation is already optimal
    reports the single confirming pass.  A pass is a deterministic
    function of its order, so an order met again means the loop cycles
    and will never settle: it raises ``EvaluationContractError`` at the
    first repeat.  The cap is a defect tripwire, not an expected exit.
    """
    require_stopping(g, "permutation improvement")
    _check_mode(mode)
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
        keys = v.scaled.tolist()
        order.sort(key=lambda node: keys[node - 1])
        if improve_all(g, sp.sigma, v) is None and improve_all(g, sp.tau, v) is None:
            return _finish(g, "perm", seed, v, sp, max(1, passes - 1), permutation=tuple(order))
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
        sigma = Strategy(Player.MAX, bytes(sigma_bits))
        for tau_bits in itertools.product((0, 1), repeat=len(min_nodes)):
            tau = Strategy(Player.MIN, bytes(tau_bits))
            examined += 1
            pair = StrategyPair(sigma, tau)
            v = evaluate_strategy_pair(g, pair, EXACT)
            if is_stable(g, v, 0):
                return _finish(g, "bf", None, v, pair, examined)
    raise EvaluationContractError("no stable strategy pair found")


def solve_value_iteration(
    g: Game, tol: float = 1e-12, max_sweeps: int = 1_000_000, keep_history: bool = False
) -> SolveResult:
    """Fixpoint iteration of the local operator from the zero vector.

    The iterates increase monotonically toward the unique stable
    assignment on a stopping game; iteration stops when the largest
    componentwise change drops below ``tol``.  ``iterations`` is the
    sweep count; ``keep_history`` keeps every iterate, the zero start
    included, in ``value_history``.  ``NonConvergenceError`` when
    ``max_sweeps`` sweeps pass without that.
    """
    require_stopping(g, "value iteration")
    # a terminal's targets are its own position twice, so the average
    # rule keeps its value 0 or 1
    lay = g.layout
    v = np.zeros(g.n)
    v[g.terminal1 - 1] = 1.0
    history = [ValueVector(v, FLOAT)] if keep_history else None
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        left, right = v[lay.targets]
        nv = np.where(
            lay.is_max, np.maximum(left, right), np.where(lay.is_min, np.minimum(left, right), 0.5 * (left + right))
        )
        diff = np.abs(nv - v).max()
        v = nv
        if history is not None:
            history.append(ValueVector(v, FLOAT))
        if diff < tol:
            history = None if history is None else tuple(history)
            return _finish(g, "vi", None, ValueVector(v, FLOAT), None, sweeps, value_history=history)
    raise NonConvergenceError(f"value iteration did not converge in {max_sweeps} sweeps")


# Entries look their solver up when called, so a module attribute rebound
# later (as the benchmark's layer tracer does) sees registry calls too.
SOLVERS: dict[str, Callable[[Game, int, str], SolveResult]] = {
    "hk": lambda g, seed, mode: solve_hoffman_karp(g, seed, mode),
    "perm": lambda g, seed, mode: solve_permutation_improvement(g, seed, mode),
    "bf": lambda g, seed, mode: solve_brute_force(g),
    "vi": lambda g, seed, mode: solve_value_iteration(g),
}
ALGORITHMS = tuple(SOLVERS)

