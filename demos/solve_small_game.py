"""Walkthrough: build a small stopping game by hand and solve it four ways.

The game: one min node choosing between two average chains, plus a max
node that would rather ride the better chain.  All four solvers must
agree because a stopping game has exactly one stable assignment.
"""

from stopgames import (
    EXACT,
    Game,
    NodeKind,
    solve_brute_force,
    solve_hoffman_karp,
    solve_permutation_improvement,
    solve_value_iteration,
)

K = NodeKind
game = Game(
    n=7,
    kinds=(K.MIN, K.MAX, K.AVERAGE, K.AVERAGE, K.AVERAGE, K.TERMINAL0, K.TERMINAL1),
    arcs=((3, 4), (1, 5), (5, 6), (5, 7), (6, 7), (), ()),
)

print("node values (exact):")
truth = solve_brute_force(game)
for i in range(1, game.n + 1):
    print(f"  node {i} ({game.kind(i).value}): {truth.values.value(i)}")

hk = solve_hoffman_karp(game, seed=1, mode=EXACT)
perm = solve_permutation_improvement(game, seed=1, mode=EXACT)
vi = solve_value_iteration(game, tol=1e-12)

print(f"\nbrute force examined {truth.iterations} strategy pairs")
print(f"hoffman-karp: {hk.iterations} iterations, values match: {hk.values == truth.values}")
print(f"permutation improvement: {perm.iterations} iterations, values match: {perm.values == truth.values}")
drift = max(abs(float(truth.values.value(i)) - vi.values.value(i)) for i in range(1, game.n + 1))
print(f"value iteration: max drift from exact = {drift:.2e}")

print(f"\nmax strategy found: {hk.strategies.sigma.choice(game)}")
print(f"min strategy found: {hk.strategies.tau.choice(game)}")
