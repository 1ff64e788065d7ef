import hashlib
import json
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    build_game,
    fallback_chain,
    oracle_hoffman_karp,
    oracle_value_iteration,
    oracle_value_system,
    random_stopping_game,
    solve_by_components,
    twin_chain,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from stopgames import (
    EXACT,
    FLOAT,
    EvaluationContractError,
    Game,
    NodeKind,
    NonConvergenceError,
    NonStoppingGameError,
    Player,
    RatioSpec,
    Strategy,
    StrategyPair,
    best_response,
    check_assumptions,
    generate_fully_reduced,
    is_stable,
    linsolve,
    reduce_game,
    solve_brute_force,
    solve_hoffman_karp,
    solve_permutation_improvement,
    solve_value_iteration,
)
from stopgames.bench import generate_instance
from stopgames.evaluate import DEFAULT_STABLE_TOL, float_error_estimate, random_strategy
from stopgames.generate import GenParams, Variant, generate_basic, ratio_counts
from stopgames.reduce import scc_condense
from stopgames.rng import Rng, derive_seed
from stopgames import solve as solve_module
from stopgames.solve import SOLVERS, _order_induced_pair

MINIMAL = build_game([("avg", (2, 3))])
CHAIN = build_game([("avg", (2, 4)), ("avg", (3, 4))])
CYCLE4 = build_game([("max", (2, 4)), ("min", (1, 4))])


def test_brute_force_examples():
    assert solve_brute_force(MINIMAL).values.value(1) == Fraction(1, 2)
    res = solve_brute_force(CHAIN)
    assert [res.values.value(i) for i in range(1, 5)] == [
        Fraction(3, 4),
        Fraction(1, 2),
        Fraction(0),
        Fraction(1),
    ]


def test_brute_force_cap():
    """Both enumerators refuse more than 12 decision nodes; a fully
    reduced game is one component, so it holds all 14 of this one."""
    g, _ = generate_fully_reduced(RatioSpec(24, 4), 1)
    assert len(g.max_nodes) + len(g.min_nodes) == 14
    with pytest.raises(ValueError, match="14 decision nodes exceed the brute-force cap 12"):
        solve_brute_force(g)
    with pytest.raises(ValueError, match="component exceeds the enumeration cap"):
        solve_by_components(g)


def test_value_iteration_minimal():
    res = solve_value_iteration(MINIMAL, tol=1e-12)
    assert res.values.value(1) == pytest.approx(0.5, abs=1e-12)
    assert res.algorithm == "vi" and res.seed is None and res.strategies is None


def test_value_iteration_monotone_from_zero():
    for seed in (1, 7, 23):
        g = random_stopping_game(seed, max_nodes=10)
        res = solve_value_iteration(g, 1e-10, 100000, keep_history=True)
        history = res.value_history
        assert len(history) == res.iterations + 1  # the zero start, then each sweep
        for prev, cur in zip(history, history[1:]):
            assert all(c >= p - 1e-15 for p, c in zip(prev.values, cur.values))


def test_value_iteration_cap_is_non_convergence():
    """Value iteration that reaches ``max_sweeps`` raises
    ``NonConvergenceError``, a numerical outcome and no contract failure:
    the k = 20 twin chain is still moving after 50 sweeps."""
    assert not issubclass(NonConvergenceError, EvaluationContractError)
    with pytest.raises(NonConvergenceError, match="^value iteration did not converge in 50 sweeps$"):
        solve_value_iteration(twin_chain(20), max_sweeps=50)


@pytest.mark.parametrize("ratio", [1, 8], ids=["1:4", "8:4"])
def test_value_iteration_matches_scalar_sweeps(ratio):
    """The array sweep against a per-node loop over Python floats: the
    same sweep count and bit-identical iterates, the last one the values."""
    games = [generate_fully_reduced(RatioSpec(size, ratio), derive_seed(47, size, ratio))[0] for size in (16, 64, 160)]
    games += [random_stopping_game(seed, max_nodes=10) for seed in range(ratio, ratio + 4)]
    for g in games:
        want = [[x.hex() for x in v] for v in oracle_value_iteration(g)]
        res = solve_value_iteration(g, keep_history=True)
        assert res.iterations == len(want) - 1
        assert [[x.hex() for x in v.values] for v in res.value_history] == want
        assert [x.hex() for x in res.values.values] == want[-1]


def test_hoffman_karp_without_max_nodes_single_iteration():
    g = build_game([("min", (2, 3)), ("avg", (3, 4)), ("avg", (4, 5))])
    res = solve_hoffman_karp(g, seed=0, mode=EXACT)
    assert res.iterations == 1
    assert res.values.value(1) == solve_brute_force(g).values.value(1)


def test_exact_hoffman_karp_without_average_nodes():
    """No average node, so every value system has no unknowns and the
    float error estimate that steers exact hk is ``inverse_norm(0, ...)``,
    0.0: a max node on (min node, 1-terminal), the min node on the two
    terminals."""
    g = build_game([("max", (2, 4)), ("min", (3, 4))])
    assert linsolve.inverse_norm(0, ([], [], [])) == 0.0
    for seed in (0, 1):
        assert solve_hoffman_karp(g, seed, EXACT).values == solve_brute_force(g).values


def test_hoffman_karp_rejects_non_stopping():
    with pytest.raises(NonStoppingGameError):
        solve_hoffman_karp(CYCLE4, seed=0)


def test_permutation_single_average_one_iteration():
    res = solve_permutation_improvement(MINIMAL, seed=0, mode=EXACT)
    assert res.iterations == 1
    assert res.values.value(1) == Fraction(1, 2)


def test_permutation_requires_average_nodes():
    g = build_game([("max", (2, 3)), ("min", (3, 4))])
    with pytest.raises(ValueError):
        solve_permutation_improvement(g, seed=0)


def test_permutation_rejects_max_min_cycle_on_game_flagged_stopping():
    """Max node 1 and min node 2 close a cycle, which no stopping game
    holds; with the stopping flag planted by hand, perm stops at the
    order of the max/min nodes instead of looping or misreading ranks."""
    g = build_game([("max", (2, 3)), ("min", (1, 4)), ("avg", (4, 5))])
    assert not g.stopping
    flagged = Game(g.n, g.kinds, g.arcs)
    flagged.__dict__["stopping"] = True
    for mode in (EXACT, FLOAT):
        with pytest.raises(EvaluationContractError, match="close a cycle"):
            solve_permutation_improvement(flagged, 0, mode)


def test_permutation_deeper_than_recursion_limit():
    """A 3000-node game whose max/min DAG is 2997 deep: min nodes c_1..c_L
    each move on or to the 1-terminal, c_L to the average A, and the max
    node M picks c_1 or A.  Every rank ties at M, so its arc is chosen by
    the attractor level of c_1, which is L."""
    length = 2996
    m, avg, t0, t1 = length + 1, length + 2, length + 3, length + 4
    chain = [("min", (i + 1, t1)) for i in range(1, length)] + [("min", (avg, t1))]
    g = build_game(chain + [("max", (1, avg)), ("avg", (t0, t1))])
    assert g.n == 3000
    want = solve_hoffman_karp(g, 0, EXACT).values
    assert want.value(m) == Fraction(1, 2)
    for mode in (EXACT, FLOAT):
        res = solve_permutation_improvement(g, 0, mode)
        assert [res.values.value(i) for i in range(1, g.n + 1)] == [want.value(i) for i in range(1, g.n + 1)]
        assert res.strategies.sigma.choice(g) == {m: 1}


def test_permutation_final_order_sorted_by_value():
    for seed in range(20):
        g = random_stopping_game(seed, max_nodes=11)
        res = solve_permutation_improvement(g, seed=seed, mode=EXACT)
        vals = [res.values.value(i) for i in res.permutation]
        assert vals == sorted(vals)


def test_solvers_agree_small_batch():
    for seed in range(25):
        g = random_stopping_game(seed, max_nodes=10)
        want = solve_brute_force(g).values
        for run_seed in (0, 1):
            hk = solve_hoffman_karp(g, run_seed, EXACT)
            assert hk.values == want
            pe = solve_permutation_improvement(g, run_seed, EXACT)
            assert pe.values == want
            hkf = solve_hoffman_karp(g, run_seed, FLOAT)
            assert all(
                abs(float(want.value(i)) - hkf.values.value(i)) <= 1e-9
                for i in range(1, g.n + 1)
            )
        vi = solve_value_iteration(g, tol=1e-12)
        assert all(
            abs(float(want.value(i)) - vi.values.value(i)) <= 1e-9 for i in range(1, g.n + 1)
        )


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_solvers_agree_with_brute_force_on_drawn_games(seed, run_seed):
    """hk, perm and vi on hypothesis-drawn small stopping games: the brute
    force values exactly in exact mode, within 1e-9 of them in float."""
    g = random_stopping_game(seed, max_nodes=12)
    want = solve_brute_force(g).values
    near = [float(x) for x in want.values]
    for algo in ("hk", "perm", "vi"):
        if algo != "vi":
            assert SOLVERS[algo](g, run_seed, EXACT).values == want, algo
        got = SOLVERS[algo](g, run_seed, FLOAT).values.values
        assert max(abs(x - y) for x, y in zip(got, near)) <= 1e-9, algo


def test_hoffman_karp_history_monotone():
    for seed in range(20):
        g = random_stopping_game(seed + 50, max_nodes=11)
        res = solve_hoffman_karp(g, seed, EXACT, keep_history=True)
        assert len(res.value_history) == res.iterations
        for prev, cur in zip(res.value_history, res.value_history[1:]):
            assert all(c >= p for p, c in zip(prev.values, cur.values))


def test_iteration_counts_deterministic():
    g = random_stopping_game(17, max_nodes=12)
    for seed in (0, 5, 9):
        a = solve_hoffman_karp(g, seed, FLOAT).iterations
        b = solve_hoffman_karp(g, seed, FLOAT).iterations
        assert a == b
        c = solve_permutation_improvement(g, seed, FLOAT).iterations
        d = solve_permutation_improvement(g, seed, FLOAT).iterations
        assert c == d


def test_uniqueness_across_seeds():
    for seed in range(10):
        g = random_stopping_game(seed + 90, max_nodes=10)
        vectors = {
            tuple(solve_hoffman_karp(g, s, EXACT).values.values) for s in range(5)
        }
        assert len(vectors) == 1


def test_solve_result_json():
    res = solve_brute_force(CHAIN)
    payload = res.payload(CHAIN)
    assert payload["algorithm"] == "bf"
    assert payload["mode"] == "exact"
    assert payload["values"] == ["3/4", "1/2", "0", "1"]
    assert payload["max_strategy"] == {} and payload["min_strategy"] == {}
    fl = solve_hoffman_karp(CHAIN, seed=0, mode=FLOAT)
    fl_payload = fl.payload(CHAIN)
    assert fl_payload["values"][1] == "0.5"


@pytest.mark.parametrize("algo", sorted(SOLVERS))
def test_every_solver_returns_through_the_stability_check(monkeypatch, algo):
    """Every registry entry leaves through one finishing step, which
    refuses a result that ``is_stable`` rejects at the mode's tolerance.
    Brute force's own search still runs the real check at tol 0."""
    real = solve_module.is_stable
    monkeypatch.setattr(solve_module, "is_stable", lambda g, v, tol=None: tol is not None and real(g, v, tol))
    with pytest.raises(EvaluationContractError, match=f"^{algo} produced an unstable assignment$"):
        SOLVERS[algo](random_stopping_game(3), 0, EXACT)


def halving_chain(k: int):
    """Averages 1..k in a chain, each with one arc to the 0-terminal:
    average i < k moves on to i + 1 and average k to the 1-terminal, so
    average i is worth 2^-(k - i + 1) and the common denominator is 2^k.
    Max node k + 1 picks average 1 or 2, and min node k + 2 picks the max
    node or average 3."""
    t0, t1 = k + 3, k + 4
    chain = [("avg", (i + 1, t0)) for i in range(1, k)] + [("avg", (t1, t0))]
    return build_game(chain + [("max", (1, 2)), ("min", (k + 1, 3))])


def test_exact_solvers_past_int64_denominators():
    """With a common denominator of 2^70, past 2^62, exact numerators are
    kept as Python ints: hk and perm agree with each other and with value
    iteration, the result is exactly stable, and its values are Fractions
    of Python ints.  Max moves to average 2, min stays on the max node."""
    k = 70
    g = halving_chain(k)
    hk = solve_hoffman_karp(g, 0, EXACT)
    perm = solve_permutation_improvement(g, 0, EXACT)
    vi = solve_value_iteration(g)
    assert hk.values.den == 2**k and hk.values.scaled.dtype == object
    assert perm.values == hk.values
    assert is_stable(g, hk.values, 0)
    assert all(type(x) is Fraction and type(x.numerator) is int and type(x.denominator) is int for x in hk.values.values)
    assert hk.values.value(k + 1) == hk.values.value(k + 2) == Fraction(1, 2 ** (k - 1))
    assert max(abs(x - y) for x, y in zip(hk.values.values, vi.values.values)) <= 1e-9
    for res in (hk, perm):
        assert res.strategies == StrategyPair(Strategy(Player.MAX, b"\x01"), Strategy(Player.MIN, b"\x00"))


def test_component_solving_matches_whole_game():
    done = 0
    for seed in range(200):
        g = random_stopping_game(seed, max_nodes=11)
        if len(scc_condense(g)) < 2:
            continue
        by_comp = solve_by_components(g)
        whole = solve_brute_force(g)
        assert by_comp.values == whole.values.values or all(
            by_comp.value(i) == whole.values.value(i) for i in range(1, g.n + 1)
        )
        done += 1
        if done >= 30:
            break
    assert done >= 30


def test_exact_hoffman_karp_leaves_float_once(monkeypatch):
    """Exact hk runs in float64 and turns exact at the first iteration
    that switches nothing in float, or whose float values it cannot
    trust.  On generated games float settles on the exactly optimal pair,
    so the run makes one exact evaluation.  On
    ``twin_chain(60)`` float hk settles on a pair that is not exactly
    stable (node 1 reads 1.0 in float, for an exact 1/2), so the exact
    continuation runs and evaluates more than once."""
    calls = []
    real = linsolve.solve_exact

    def counting(rhs, coo):
        calls.append(len(rhs))
        return real(rhs, coo)

    monkeypatch.setattr(linsolve, "solve_exact", counting)
    for size in (64, 128, 256):
        for ratio in (1, 4, 8):
            g, _ = generate_fully_reduced(RatioSpec(size, ratio), derive_seed(61, size, ratio))
            for seed in (0, 1):
                calls.clear()
                solve_hoffman_karp(g, seed, EXACT)
                assert len(calls) == 1, (size, ratio, seed, calls)
    calls.clear()
    assert solve_hoffman_karp(twin_chain(60), 1, EXACT).values.value(1) == Fraction(1, 2)
    assert len(calls) > 1


def test_exact_hoffman_karp_matches_per_iteration_exact_oracle():
    """Exact hk, with and without its history, equals the loop that
    takes an exact best response at every iteration
    (``oracle_hoffman_karp``) in values, strategies and iteration count,
    on 30 (game, run seed) pairs: generated fully reduced games of 64 to
    256 nodes at ratios 1, 4 and 8 and small random stopping games.  The
    history's last vector is the result's.

    On the ill-conditioned chains, run seeds 1 to 3, it equals the oracle
    in values, max strategy and iteration count, none of which may follow
    float64 noise.  Every node of ``fallback_chain`` is worth 1/2, so the
    random max strategy is already optimal and every run takes one
    iteration; at k = 120, 140 and 160 with run seed 2 float64 proposes a
    switch there on values that are wrong, and its error estimate must
    keep that switch out.  The min strategy, a choice between ties on
    these chains, may follow where float64 stops, as the oracle's does."""
    cases = [
        (generate_fully_reduced(RatioSpec(size, ratio), derive_seed(67, size, ratio))[0], seed)
        for size in (64, 128, 256)
        for ratio in (1, 4, 8)
        for seed in (0, 1)
    ]
    cases += [(random_stopping_game(seed, max_nodes=12), seed) for seed in range(12)]
    iterations = []
    for g, seed in cases:
        want = oracle_hoffman_karp(g, seed)
        for keep_history in (False, True):
            res = solve_hoffman_karp(g, seed, EXACT, keep_history)
            assert (res.values, res.strategies, res.iterations) == want, (g.n, seed, keep_history)
        assert len(res.value_history) == res.iterations and res.value_history[-1] == res.values
        iterations.append(res.iterations)
    assert max(iterations) >= 3

    chains = [(f"fallback_chain({k})", fallback_chain(k)) for k in (20, 80, 100, 120, 140, 160)]
    chains += [(f"twin_chain({k})", twin_chain(k)) for k in (20, 60, 70, 80)]
    for name, g in chains:
        for seed in (1, 2, 3):
            values, pair, count = oracle_hoffman_karp(g, seed)
            for keep_history in (False, True):
                res = solve_hoffman_karp(g, seed, EXACT, keep_history)
                got = (res.values, res.strategies.sigma, res.iterations)
                assert got == (values, pair.sigma, count), (name, seed, keep_history)
            if name.startswith("fallback"):
                assert res.iterations == 1 and res.strategies.sigma == random_strategy(g, Player.MAX, Rng(seed))


def test_float_error_estimate_separates_generated_games_from_chains():
    """The error estimate of a float best response's values stays below
    1e-13 on generated games of 64 to 512 nodes and passes 1e-10 on the
    chains, where it stops exact hk's float iterations.  Underneath,
    ``linsolve.inverse_norm`` is ‖A^-1‖∞ and ``inf`` on a matrix float64
    cannot factor, dense or sparse."""
    for size in (64, 128, 256, 512):
        for ratio in (1, 8):
            g, _ = generate_fully_reduced(RatioSpec(size, ratio), derive_seed(71, size, ratio))
            for seed in (0, 1):
                sigma = random_strategy(g, Player.MAX, Rng(seed))
                tau, _ = best_response(g, sigma, FLOAT)
                assert float_error_estimate(g, StrategyPair(sigma, tau)) < 1e-13, (size, ratio, seed)
    for g in (fallback_chain(20), fallback_chain(120), twin_chain(20)):
        sigma = random_strategy(g, Player.MAX, Rng(2))
        tau, _ = best_response(g, sigma, FLOAT)
        assert float_error_estimate(g, StrategyPair(sigma, tau)) > 1e-10
    two = ([0, 0, 1, 1], [0, 1, 0, 1], [2, -1, -1, 2])  # A^-1 = [[2, 1], [1, 2]] / 3
    assert linsolve.inverse_norm(2, two) == pytest.approx(1.0, rel=1e-15)
    for a in (2, 70):
        zero = ([0] * a, [0] * a, [0] * a)
        assert linsolve.inverse_norm(a, zero) == float("inf")


def oracle_inverse_norm(a: int, coo) -> float:
    """‖A^-1‖∞ as the largest entry of A^-1·1: SciPy's ``dgesv`` on the
    dense matrix up to 64 unknowns and SuperLU on the CSC matrix above;
    ``inf`` where either cannot factor A or the solve overflows."""
    from scipy.linalg.lapack import dgesv
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    if a == 0:
        return 0.0
    rows, cols, coefs = coo
    ones = np.ones(a)
    if a <= 64:
        dense = np.zeros((a, a))
        np.add.at(dense, (rows, cols), coefs)
        *_, t, info = dgesv(dense, ones)
        if info:
            return np.inf
    else:
        try:
            t = splu(csc_matrix((coefs, (rows, cols)), shape=(a, a), dtype=float)).solve(ones)
        except RuntimeError:
            return np.inf
    norm = float(np.abs(t).max())
    return norm if np.isfinite(norm) else np.inf


def test_float_error_estimate_matches_gesv_and_superlu_oracle():
    """``float_error_estimate`` and ``linsolve.inverse_norm`` equal, bit
    for bit, the oracle on systems built node by node: dense and sparse
    pairs of generated games and of the chains, random and best-response
    ones, and ``inf`` on singular dense and sparse systems."""
    games = [
        generate_fully_reduced(RatioSpec(size, ratio), derive_seed(72, size, ratio))[0]
        for size, ratio in ((64, 1), (128, 8), (256, 1), (256, 4), (512, 8))
    ]
    games += [fallback_chain(20), fallback_chain(120), twin_chain(20), twin_chain(40)]
    sparse = set()
    for g in games:
        for seed in (0, 1):
            rng = Rng(seed)
            sigma = random_strategy(g, Player.MAX, rng)
            for tau in (random_strategy(g, Player.MIN, rng), best_response(g, sigma, FLOAT)[0]):
                sp = StrategyPair(sigma, tau)
                rhs, coo, _, _ = oracle_value_system(g, sp)
                norm = oracle_inverse_norm(len(rhs), coo)
                assert linsolve.inverse_norm(len(rhs), coo).hex() == norm.hex(), (g.n, seed)
                want = 4 * norm * np.finfo(float).eps
                assert float_error_estimate(g, sp).hex() == want.hex(), (g.n, seed)
                sparse.add(len(rhs) > 64)
    assert sparse == {False, True}
    for a in (2, 3, 64, 65, 200):
        cycle = (list(range(a)) * 2, [*range(a), *((i + 1) % a for i in range(a))], [2] * a + [-2] * a)
        zero = ([0] * a, [0] * a, [0] * a)
        for coo in (cycle, zero):  # A·1 = 0 for the cycle of averages
            assert linsolve.inverse_norm(a, coo) == oracle_inverse_norm(a, coo) == np.inf, a


@pytest.mark.parametrize("k", range(20, 161, 20))
def test_exact_solvers_on_ill_conditioned_chain(monkeypatch, k):
    """Exact hk, perm and brute force return 1/2 at every node.  At k = 80
    and 100 a float LU in exact hk's first iteration is exactly singular,
    and hk redoes that iteration exactly; from k = 120 float64 settles on
    wrong values, and the exact redo of the settling iteration corrects
    them (under run seed 2 it proposes a switch on them instead, which
    the error estimate keeps out: see the oracle test).  From k = 80 the
    numeric lift gives up on some system of every
    solver, and Dixon lifting answers it."""
    g = fallback_chain(k)
    assert g.stopping
    answered = []
    dixon = linsolve._solve_dixon

    def recording(rhs, coo):
        found = dixon(rhs, coo)
        answered.append(len(rhs))
        return found

    monkeypatch.setattr(linsolve, "_solve_dixon", recording)
    for algo in ("hk", "perm", "bf"):
        answered.clear()
        res = SOLVERS[algo](g, 0, EXACT)
        assert res.values.values == (Fraction(1, 2),) * (k + 2) + (0, 1), algo
        assert bool(answered) == (k >= 80), (algo, answered)


@pytest.mark.parametrize("k", [20, 60, 70, 80, 160])
def test_exact_solvers_on_twin_chain(k):
    """The twin chain is fully reduced, so ``reduce_game`` leaves it as it
    is, and exact hk, perm and brute force agree on it, node 1 worth 1/2.
    At k = 60 exact hk's float64 iterations settle on a pair that is not
    exactly stable, and the exact continuation finds the optimum.  From
    k = 70 a float solve in hk's first iteration lands outside [0, 1],
    and hk redoes that iteration exactly."""
    g = twin_chain(k)
    assert check_assumptions(g).fully_reduced
    assert reduce_game(g)[0] == g
    want = solve_brute_force(g).values
    assert want.value(1) == Fraction(1, 2)
    for algo in ("hk", "perm"):
        assert SOLVERS[algo](g, 1, EXACT).values == want, algo


# known silent wrong float answers on the twin chain, run seed 1
FLOAT_TWIN_WRONG = {
    ("hk", 60): "float hk answers 1.0 at node 1",
    ("perm", 60): "float perm answers 1.0 at node 1",
    ("perm", 70): "float perm answers about 2.1e-5 at node 1",
    ("perm", 80): "float perm answers about 3.0e-8 at node 1",
}


@pytest.mark.parametrize(
    "algo,k",
    [
        pytest.param(
            algo,
            k,
            marks=[pytest.mark.xfail(strict=True, raises=AssertionError, reason=FLOAT_TWIN_WRONG[algo, k])]
            if (algo, k) in FLOAT_TWIN_WRONG
            else [],
        )
        for algo in ("hk", "perm")
        for k in (20, 60, 70, 80, 160)
    ],
)
def test_float_solvers_on_twin_chain(algo, k):
    """Float hk and perm on the twin chain come within 1e-9 of the exact
    values or refuse with ``SingularSystemError``.  Float hk and perm at
    k = 60 and float perm at k = 70 and 80 return a wrong vector instead:
    known silent wrong answers, pinned here until float answers are
    certified against exact arithmetic."""
    g = twin_chain(k)
    want = SOLVERS[algo](g, 1, EXACT).values
    try:
        res = SOLVERS[algo](g, 1, FLOAT)
    except linsolve.SingularSystemError:
        return
    assert all(abs(res.values.value(i) - want.value(i)) <= 1e-9 for i in range(1, g.n + 1))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="float64 answers about 2.7e-20 at node 1 and is_stable accepts it")
@pytest.mark.parametrize("algo", ["hk", "perm"])
def test_float_solvers_on_ill_conditioned_chain_120(algo):
    """Float hk and perm on the k = 120 chain must come within 1e-9 of
    1/2 at every non-terminal.  Today they return a wrong vector that
    passes their own stability check: a known silent wrong answer, pinned
    here until float answers are certified against exact arithmetic."""
    g = fallback_chain(120)
    res = SOLVERS[algo](g, 0, FLOAT)
    assert is_stable(g, res.values, DEFAULT_STABLE_TOL)
    assert all(abs(res.values.value(i) - 0.5) <= 1e-9 for i in range(1, g.n - 1))


# --- permutation improvement: the order-induced pair -------------------------
#
# Reference oracle: the straightforward derivation that recomputes the max
# attractor by breadth-first search from scratch for each of the k+1 nested
# rank sets and scans every node after each one.


def _reference_max_attractor(g, targets, parents):
    """Deterministic attractor for the max player with averages as sinks:
    membership flags and breadth-first levels."""
    n = g.n
    in_attr = [False] * (n + 1)
    level = [0] * (n + 1)
    remaining = [0] * (n + 1)
    for i in range(1, n + 1):
        if g.kind(i) is NodeKind.MIN:
            remaining[i] = 2
    queue = deque()
    for t in sorted(targets):
        in_attr[t] = True
        queue.append(t)
    while queue:
        u = queue.popleft()
        for p in parents[u]:
            if in_attr[p]:
                continue
            kind = g.kind(p)
            if kind is NodeKind.MAX:
                in_attr[p] = True
                level[p] = level[u] + 1
                queue.append(p)
            elif kind is NodeKind.MIN:
                remaining[p] -= 1
                if remaining[p] == 0:
                    in_attr[p] = True
                    level[p] = level[u] + 1
                    queue.append(p)
    return in_attr, level


def _reference_order_induced_pair(g, order, parents):
    """Returns the pair and the number of decision nodes left unranked."""
    n, k = g.n, len(order)
    rank = [0] * (n + 1)
    rank[g.terminal1] = k + 1
    for pos, node in enumerate(order, start=1):
        rank[node] = pos
    level = [0] * (n + 1)
    targets = {g.terminal1}
    for i in range(k + 1, 0, -1):
        if i <= k:
            targets.add(order[i - 1])
        attr, lvl = _reference_max_attractor(g, targets, parents)
        for v in range(1, n + 1):
            if g.kind(v).is_decision and attr[v] and rank[v] == 0:
                rank[v] = i
                level[v] = lvl[v]
    sigma, tau = {}, {}
    for v in range(1, n + 1):
        kind = g.kind(v)
        if not kind.is_decision:
            continue
        a, b = g.arcs_of(v)
        if kind is NodeKind.MAX:
            if rank[v] == 0:
                sigma[v] = 0
            elif rank[a] == rank[v] and level[a] < level[v]:
                sigma[v] = 0
            elif rank[b] == rank[v] and level[b] < level[v]:
                sigma[v] = 1
            else:
                raise EvaluationContractError("attractor witness missing")
        else:
            if rank[a] > rank[v] and rank[b] > rank[v]:
                raise EvaluationContractError("trap escape missing")
            if rank[a] > rank[v]:
                tau[v] = 1
            elif rank[b] > rank[v]:
                tau[v] = 0
            else:
                tau[v] = 0 if rank[a] <= rank[b] else 1
    unranked = sum(1 for v in range(1, n + 1) if g.kind(v).is_decision and rank[v] == 0)
    return StrategyPair(Strategy.from_choice(g, Player.MAX, sigma), Strategy.from_choice(g, Player.MIN, tau)), unranked


def _equivalence_games():
    for size in (16, 32, 64, 128):
        for ratio in (1, 4, 8):
            for j in range(2):
                yield generate_fully_reduced(RatioSpec(size, ratio), derive_seed(41, size, ratio, j))[0], 12
    for j in range(6):
        a, b, c = ratio_counts(200, 1 + j)
        yield generate_basic(GenParams(a + b + c + 2, a, b, c, derive_seed(42, j), Variant.BASIC)), 24
    yield generate_fully_reduced(RatioSpec(512, 8), derive_seed(43, 512, 8))[0], 4
    # 1:4 at 1024 nodes: many max nodes with both arcs at their own rank,
    # whose arc the attractor levels choose
    yield generate_fully_reduced(RatioSpec(1024, 1), derive_seed(43, 1024, 1))[0], 4


def test_order_induced_pair_matches_from_scratch_attractors():
    cases = unranked_cases = big = 0
    for g, orders in _equivalence_games():
        parents = g.parents()
        for s in range(orders):
            order = list(g.average_nodes)
            Rng(s).shuffle(order)
            want, unranked = _reference_order_induced_pair(g, order, parents)
            assert _order_induced_pair(g, order) == want, (g.n, s)
            cases += 1
            unranked_cases += unranked > 0
            big += g.n >= 512
    assert cases >= 400
    assert unranked_cases >= 20  # decision nodes outside every attractor
    assert big >= 4


# (size, ratio, run seed) -> (iterations, permutation) on the fully reduced
# game of generator seed derive_seed(31, size, ratio), exact mode
PERM_PINNED = {
    (48, 4, 0): (3, (25, 13, 45, 3, 10, 20, 9, 33, 27, 28, 17, 32, 2, 18, 44)),
    (64, 8, 0): (3, (60, 29, 64, 30, 54, 5, 2, 25, 26, 39, 37, 34, 6, 49, 16, 40,
                     44, 45, 11, 52, 51, 8, 7, 57, 19, 13, 20, 1, 22, 17, 59, 63)),
    (96, 1, 1): (2, (94, 18, 3, 64, 38, 48, 66, 41, 23, 93)),
}


@pytest.mark.parametrize("size,ratio,seed", sorted(PERM_PINNED))
def test_permutation_runs_pinned(size, ratio, seed):
    g, _ = generate_fully_reduced(RatioSpec(size, ratio), derive_seed(31, size, ratio))
    res = solve_permutation_improvement(g, seed, EXACT)
    assert (res.iterations, res.permutation) == PERM_PINNED[(size, ratio, seed)]


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_permutation_cycle_fails_fast_512(mode):
    g, _ = generate_fully_reduced(RatioSpec(512, 1), 579936874129910648)
    with pytest.raises(EvaluationContractError, match="pass 9 repeats the order of pass 7"):
        solve_permutation_improvement(g, 5150336583094877538, mode)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_permutation_cycle_fails_fast_bench_instance(mode):
    g, _ = generate_instance(128, 4, 8, 4186076261459491109)
    with pytest.raises(EvaluationContractError, match="pass 12 repeats the order of pass 10"):
        solve_permutation_improvement(g, 2724478665962015742, mode)


def _pinned_instances(mode):
    """The 12 benchmark instances of both pin files, plus one 1024-node
    8:4 game in float mode, with the run seed of each."""
    master = 2738034203069476102
    for size in (64, 128):
        for ratio in (1, 4, 8):
            for i in (0, 1):
                g, _ = generate_instance(size, ratio, i, master)
                yield f"{size} {ratio} {i}", g, derive_seed(master, size, ratio, i)
    if mode == FLOAT:
        g, _ = generate_fully_reduced(RatioSpec(1024, 8), 1)
        yield "1024 8 fully-reduced-1", g, 1


def _sha256_lines(lines):
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_exact_outputs_pinned(mode):
    """HK and perm outputs per mode (``<mode>_sha256.json``): the
    iteration count, the sha256 of one line per node value (``num/den``
    in exact mode, ``repr`` in float mode) and the sha256 of one
    ``node choice`` line per max then min node.  The exact values were
    recorded from the solver that combined per-prime eliminations by CRT,
    the float pins from the evaluator that resolved alias chains per
    evaluation with a closure."""
    pinned = json.loads((Path(__file__).parent / f"{mode}_sha256.json").read_text())
    got = {}
    for name, g, seed in _pinned_instances(mode):
        for algo in ("hk", "perm"):
            r = SOLVERS[algo](g, seed, mode)
            if mode == EXACT:
                values = [f"{v.numerator}/{v.denominator}" for v in r.values.values]
            else:
                values = [repr(v) for v in r.values.values]
            sp = r.strategies
            choices = [*sp.sigma.choice(g).items(), *sp.tau.choice(g).items()]
            got[f"{algo} {name}"] = {
                "iterations": r.iterations,
                "values_sha256": _sha256_lines(values),
                "strategies_sha256": _sha256_lines(f"{i} {c}" for i, c in choices),
            }
    assert got == pinned
