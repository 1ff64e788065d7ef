import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import common_denominator, random_pair, random_stopping_game
from hypothesis import given, settings
from hypothesis import strategies as st

from stopgames import EXACT, evaluate_strategy_pair, linsolve
from stopgames.linsolve import (
    SingularSystemError,
    solve_exact,
    solve_float,
)
from stopgames.rng import Rng, derive_seed


def test_rng_is_deterministic_and_seed_sensitive():
    a = [Rng(1).u64() for _ in range(5)]
    b = [Rng(1).u64() for _ in range(5)]
    c = [Rng(2).u64() for _ in range(5)]
    assert a == b != c


def test_rng_known_stream():
    # SplitMix64 reference values for seed 0
    rng = Rng(0)
    assert rng.u64() == 0xE220A8397B1DCDAF
    assert rng.u64() == 0x6E789E6AA1B965F4


def test_rng_matches_published_splitmix64_outputs():
    rng = Rng(1234567)
    assert [rng.u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


@pytest.mark.parametrize("bound", [1, 3, 7, 1000003, 2**63 + 1, 2**64 - 1])
def test_randbelow_matches_reference_loop(bound):
    """``randbelow`` against the SplitMix64 step and the rejection rule
    written out: the same draw and the same state after every draw.  At
    2**63 + 1 about half of all outputs are rejected."""
    mask = 2**64 - 1
    limit = 2**64 - 2**64 % bound
    state = derive_seed(11, bound)
    rng = Rng(state)
    rejected = 0
    for _ in range(1000):
        while True:
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            if z < limit:
                break
            rejected += 1
        assert rng.randbelow(bound) == z % bound
        assert rng._state == state
    if bound == 2**63 + 1:
        assert 400 < rejected < 1600


class ScalarSplitMix64:
    """SplitMix64 one output at a time, with ``Rng``'s rejection rule and
    Fisher-Yates written out."""

    def __init__(self, seed):
        self.state = seed
        self.outputs = 0

    def u64(self):
        mask = 2**64 - 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & mask
        self.outputs += 1
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def randbelow(self, n):
        while True:
            z = self.u64()
            if z < 2**64 - 2**64 % n:
                return z % n

    def randint(self, lo, hi):
        return lo + self.randbelow(hi - lo + 1)

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


# the first state is 0: the batch's states wrap past 2**64 at once
WRAP_SEED = 2**64 - 0x9E3779B97F4A7C15


@pytest.mark.parametrize("seed", [0, 2**64 - 1, WRAP_SEED])
def test_batched_stream_matches_scalar_splitmix64(seed):
    """``Rng`` hands out its outputs from batches; across several refills
    and with every helper interleaved, each call returns what the scalar
    loop returns and leaves the same state.  At 2**63 + 1 about half of
    all outputs are rejected, so rejections cross refills too."""

    def shuffled(r):
        items = list(range(13))
        r.shuffle(items)
        return items

    calls = [
        lambda r: r.u64(),
        lambda r: r.randbelow(1),
        lambda r: r.randbelow(3),
        lambda r: r.randbelow(2**63 + 1),
        lambda r: r.randint(-5, 9),
        shuffled,
    ]
    rng, ref = Rng(seed), ScalarSplitMix64(seed)
    assert rng._state == seed
    step = 0
    while ref.outputs < 4 * 256 + 100:  # the first fill and four refills
        call = calls[step % len(calls)] if step % 7 else calls[3]
        assert call(rng) == call(ref)
        assert rng._state == ref.state
        step += 1


def test_randbelow_range_and_coverage():
    rng = Rng(3)
    draws = [rng.randbelow(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_randint_inclusive():
    rng = Rng(4)
    draws = {rng.randint(2, 4) for _ in range(200)}
    assert draws == {2, 3, 4}
    assert Rng(5).randint(3, 3) == 3


def test_shuffle_is_permutation():
    rng = Rng(9)
    items = list(range(20))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items and shuffled != items


def test_derive_seed_varies_with_parts():
    seeds = {derive_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def coo(entries):
    """COO triplets ``(rows, cols, coefs)`` from ``(row, col, coef)`` entries."""
    rows, cols, coefs = [], [], []
    for i, j, c in entries:
        rows.append(i)
        cols.append(j)
        coefs.append(c)
    return rows, cols, coefs


def dense_of(size, system_coo, dtype=float):
    """The matrix of the triplets, duplicates summed, by a plain loop."""
    dense = np.zeros((size, size), dtype=dtype)
    for i, j, c in zip(*system_coo):
        dense[i, j] += c
    return dense


def random_system(rng: Rng, size: int):
    """``(rhs, coo)`` shaped like real average-node systems: diagonal 2,
    children either another unknown or a constant.  Regenerates until
    comfortably nonsingular, mirroring how reachability pruning keeps real
    systems invertible: a singular integer matrix can keep a determinant
    sign in float, so its condition number must be small too."""
    while True:
        entries = []
        rhs = []
        for i in range(size):
            entries.append((i, i, 2))
            const = 0
            for _ in range(2):
                j = rng.randbelow(size + max(2, size // 4))
                if j < size and j != i:
                    entries.append((i, j, -1))
                else:
                    const += rng.randbelow(2)
            rhs.append(const)
        system = coo(entries)
        dense = dense_of(size, system)
        if abs(np.linalg.slogdet(dense)[0]) == 1.0 and np.linalg.cond(dense) < 1e8:
            return rhs, system


def gauss_fractions(rhs, system) -> list[Fraction]:
    """Dense rational Gaussian elimination, the reference exact answer."""
    a = len(rhs)
    m = [[Fraction(0)] * a + [Fraction(int(b))] for b in rhs]
    for i, j, c in zip(*system):
        m[int(i)][int(j)] += int(c)
    for k in range(a):
        piv = next((r for r in range(k, a) if m[r][k] != 0), None)
        if piv is None:
            raise SingularSystemError(f"no pivot in column {k}")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
        pk = m[k][k]
        for r in range(k + 1, a):
            f = m[r][k]
            if f == 0:
                continue
            ratio = f / pk
            mr, mk = m[r], m[k]
            for c in range(k, a + 1):
                mr[c] -= ratio * mk[c]
    x = [Fraction(0)] * a
    for k in range(a - 1, -1, -1):
        acc = m[k][a]
        mk = m[k]
        for c in range(k + 1, a):
            if mk[c]:
                acc -= mk[c] * x[c]
        x[k] = acc / m[k][k]
    return x


def gauss(rhs, system):
    """The reference answer in ``solve_exact``'s form: numerators over the
    least common denominator of the rational elimination."""
    return common_denominator(gauss_fractions(rhs, system))


def fractions(solution):
    nums, den = solution
    return [Fraction(v, den) for v in nums]


def test_exact_modular_path_matches_fraction_elimination():
    """At every size from one unknown, the numeric lift (through
    ``solve_exact``) and Dixon's p-adic lifting both give the least common
    denominator form of rational elimination."""
    for seed in range(30):
        rng = Rng(seed)
        size = 1 + rng.randbelow(48)
        rhs, system = random_system(rng, size)
        expected = gauss(rhs, system)
        assert solve_exact(rhs, system) == expected
        assert linsolve._solve_dixon(rhs, system) == expected
    assert solve_exact([], ([], [], [])) == ([], 1)


def game_system(g, pair):
    """The value system ``evaluate_strategy_pair`` builds for the pair."""
    systems = []

    def record(rhs, system):
        systems.append((rhs, system))
        return gauss(rhs, system)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linsolve, "solve_exact", record)
        evaluate_strategy_pair(g, pair, EXACT)
    (found,) = systems
    return found


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.sampled_from([12, 40, 160]))
def test_numeric_lift_matches_rational_elimination_on_game_systems(game_seed, pair_seed, max_nodes):
    """The lift solves the value system of a random stopping game under a
    random strategy pair, at every size from one unknown up, on a dense
    factor and past 64 unknowns on a sparse LU, and its answer is the
    least common denominator form of rational elimination."""
    g = random_stopping_game(game_seed, max_nodes)
    rhs, system = game_system(g, random_pair(g, Rng(pair_seed)))
    if len(rhs):
        assert linsolve._solve_numeric(rhs, system) == gauss(rhs, system)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 8))
def test_numeric_lift_matches_rational_elimination_on_small_systems(seed, size):
    """``solve_exact`` answers systems of one to eight unknowns by the
    numeric lift too, with rational elimination's answer."""
    rhs, system = random_system(Rng(seed), size)
    expected = gauss(rhs, system)
    assert linsolve._solve_numeric(rhs, system) == expected
    assert solve_exact(rhs, system) == expected


@pytest.mark.parametrize("defect", ["too-many-bits", "no-fit"])
def test_exact_lift_gives_up_to_dixon(monkeypatch, defect):
    """Where the lift gives up, Dixon lifting answers.  Asked for more bits
    per step than float64 holds, the lift stops on its residual bound or
    its int64 cap; with no rational fit to accept, it runs past the
    Hadamard bound."""
    if defect == "too-many-bits":
        monkeypatch.setattr(linsolve, "_LIFT_BITS", 58)
    else:
        monkeypatch.setattr(linsolve, "_approximate", lambda approx, scale: None)
    dixon, sizes = linsolve._solve_dixon, []

    def recording(rhs, system):
        sizes.append(len(rhs))
        return dixon(rhs, system)

    monkeypatch.setattr(linsolve, "_solve_dixon", recording)
    for seed in range(6):
        rng = Rng(seed + 90)
        rhs, system = random_system(rng, 9 + rng.randbelow(80))
        assert linsolve._solve_numeric(rhs, system) is None
        assert solve_exact(rhs, system) == gauss(rhs, system)
    assert len(sizes) == 6


def test_float_residual_contract():
    for seed in range(10):
        rng = Rng(seed + 50)
        for size in (5, 90):  # dense and sparse-LU paths
            rhs, system = random_system(rng, size)
            x = solve_float(rhs, system)
            dense = dense_of(size, system)
            assert np.abs(dense @ x - np.array(rhs, float)).max() <= 1e-9


def test_singular_system_raises():
    system = coo([(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
    with pytest.raises(SingularSystemError):
        solve_float([1, 2], system)


def test_float_solve_refuses_a_residual_above_the_bound():
    """[[10^6, 10^6 - 1], [10^6 + 1, 10^6]] has determinant 1 and a
    condition number near 4e12: float64 factors it, but even after a
    refinement step a residual stays above ``RESIDUAL_BOUND``.  Whether
    it does rides on the LU's last bits, so the portable-kernel CI step
    runs this test too; at 10^5 the OpenBLAS kernels without FMA
    (Prescott, Core2, Nehalem, Sandybridge) meet the bound.  Exact
    arithmetic solves it."""
    a = 10**6
    system = coo([(0, 0, a), (0, 1, a - 1), (1, 0, a + 1), (1, 1, a)])
    with pytest.raises(SingularSystemError, match=r"^residual \S+ above 1\.0e-09$"):
        solve_float([1, 0], system)
    assert solve_exact([1, 0], system) == ([1000000, -1000001], 1)


@pytest.mark.parametrize("size", [5, 40, 90], ids=["dense-gauss", "dense-dixon", "sparse-dixon"])
def test_duplicate_triplets_are_summed(size):
    """Row 0 holds two -1 entries in column 1 (two children aliasing one
    unknown), row 1 a -1 on its own diagonal (a child aliasing the row's
    own unknown); the rest is a chain of averages.  The system is upper
    triangular, so back substitution gives the exact answer.  Every size
    goes through rational elimination, the numeric lift and Dixon lifting;
    the sizes cover the lift on a dense float factor and on a sparse LU."""
    entries = [(0, 0, 2), (0, 1, -1), (0, 1, -1), (1, 1, 2), (1, 1, -1), (1, 2, -1)]
    for i in range(2, size - 1):
        entries += [(i, i, 2), (i, i + 1, -1)]
    entries.append((size - 1, size - 1, 2))
    system = coo(entries)
    rhs = [0, 1] + [i % 2 for i in range(2, size)]

    expected = [Fraction(0)] * size
    expected[-1] = Fraction(rhs[-1], 2)
    for i in range(size - 2, 1, -1):
        expected[i] = (rhs[i] + expected[i + 1]) / 2
    expected[1] = rhs[1] + expected[2]
    expected[0] = (rhs[0] + 2 * expected[1]) / 2

    assert fractions(solve_exact(rhs, system)) == expected
    assert fractions(linsolve._solve_numeric(rhs, system)) == expected
    assert fractions(linsolve._solve_dixon(rhs, system)) == expected
    assert gauss_fractions(rhs, system) == expected
    x = solve_float(rhs, system)
    assert np.abs(x - np.array([float(v) for v in expected])).max() <= 1e-12
    merged: dict[tuple[int, int], int] = {}
    for i, j, c in entries:
        merged[i, j] = merged.get((i, j), 0) + c
    merged_system = coo((i, j, c) for (i, j), c in merged.items())
    assert solve_float(rhs, merged_system).tobytes() == x.tobytes()


def _with_blocks(blocks, rhs, system):
    """Block-diagonal system: 2x2 blocks [[q+1, 1], [1, 1]] of determinant
    q, one per entry of ``blocks``, then the ``(rhs, system)`` shifted past
    them."""
    entries, out_rhs = [], []
    for q in blocks:
        k = len(out_rhs)
        entries += [(k, k, q + 1), (k, k + 1, 1), (k + 1, k, 1), (k + 1, k + 1, 1)]
        out_rhs += [1, 2]
    k = len(out_rhs)
    entries += [(i + k, j + k, c) for i, j, c in zip(*system)]
    return out_rhs + list(rhs), coo(entries)


def test_exact_lifting_retries_second_prime_then_rational_elimination(monkeypatch):
    """With the numeric lift giving up, a determinant divisible by the
    first prime makes Dixon lifting use the second, and one divisible by
    both the third, each with rational elimination's answer; a truly
    singular system raises once the primes tried pass the Hadamard bound."""
    monkeypatch.setattr(linsolve, "_solve_numeric", lambda rhs, system: None)
    first, second, third = itertools.islice(linsolve._lift_primes(), 3)
    assert (first, second, third) == (8388593, 8388587, 8388581)
    rhs, system = random_system(Rng(77), 12)
    used = []
    inverse_mod = linsolve._inverse_mod

    def recording(dense_a, p):
        inverse = inverse_mod(dense_a, p)
        used.append((p, inverse is not None))
        return inverse

    monkeypatch.setattr(linsolve, "_inverse_mod", recording)
    for blocks, tries in (([first], [(first, False), (second, True)]), ([first, second], [(first, False), (second, False), (third, True)])):
        used.clear()
        bad = _with_blocks(blocks, rhs, system)
        assert linsolve._solve_dixon(*bad) == gauss(*bad)
        assert used == tries
        assert solve_exact(*bad) == gauss(*bad)

    used.clear()
    singular = coo([(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
    with pytest.raises(SingularSystemError, match="Hadamard bound"):
        linsolve._solve_dixon([1, 2], singular)
    with pytest.raises(SingularSystemError):
        solve_exact([1, 2], singular)
    assert used[0] == (first, False)


_P = next(linsolve._lift_primes())


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [1, 0]],
        [[_P, 1], [1, 1]],
        [[0, 2, 1], [1, 0, 3], [4, 1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [3, 0, 0, 0], [0, 5, 0, 2]],
    ],
    ids=["swap", "pivot-p", "3x3", "two-swaps"],
)
def test_inverse_mod_undoes_its_row_swaps(rows):
    """A pivot that is 0 mod p makes Gauss-Jordan elimination swap rows;
    the inverse comes back with those swaps undone on its columns, so
    ``A·inv ≡ I (mod p)``."""
    dense_a = np.array(rows, dtype=np.int64)
    inverse = linsolve._inverse_mod(dense_a, _P)
    assert ((dense_a @ inverse) % _P == np.eye(len(rows), dtype=np.int64)).all()


def test_dixon_lifting_through_a_row_swap():
    """x_2 = 1, x_1 = 2: the first pivot of [[0, 1], [1, 0]] is 0."""
    assert linsolve._solve_dixon([1, 2], coo([(0, 1, 1), (1, 0, 1)])) == ([2, 1], 1)


@pytest.mark.parametrize("scale", [1, next(linsolve._lift_primes()) ** 2], ids=["unit", "p-squared"])
def test_exact_lifting_long_chain_of_averages(scale):
    """x_i = (x_{i+1} + c_i) / 2 down a chain of 320 averages: the common
    denominator is 2**320, so the numeric lift runs for 17 steps of 40
    bits.  Scaled by p**2, the right-hand sides reach 2**46, so the first
    scaled residual would overflow int64: the lift gives up and Dixon
    lifting takes over.  There the first two p-adic digits are zero, so the
    reconstruction after two steps is the zero vector, which the integer
    check must reject."""
    rng = Rng(78)
    a = 320
    consts = [scale * rng.randbelow(2) for _ in range(a)]
    entries = [(i, i, 2) for i in range(a)] + [(i, i + 1, -1) for i in range(a - 1)]
    expected = [Fraction(0)] * a
    nxt = Fraction(0)
    for i in range(a - 1, -1, -1):
        nxt = expected[i] = (nxt + consts[i]) / 2
    system = coo(entries)
    nums, den = solve_exact(consts, system)
    assert fractions((nums, den)) == expected
    assert den.bit_length() > 300
    lifted = linsolve._solve_numeric(consts, system)
    assert (lifted is None) == (scale > 1)


def test_exact_singular_system_raises():
    rhs, system = random_system(Rng(79), 12)
    entries = [e for e in zip(*system) if e[0] != 1]
    entries += [(1, j, c) for i, j, c in zip(*system) if i == 0]  # row 1 := row 0
    rhs[1] = rhs[0]
    with pytest.raises(SingularSystemError):
        solve_exact(rhs, coo(entries))


# Run in a fresh interpreter: importing the package and taking a 64-node
# game through generation, the checklist, reduction and float hk and perm
# loads no SciPy module; a float system of more than 64 unknowns then
# loads SuperLU.
IMPORT_FOOTPRINT = """
import sys


def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


import stopgames, stopgames.cli

assert not scipy_modules(), scipy_modules()
from stopgames import FLOAT, RatioSpec, check_assumptions, generate_fully_reduced, reduce_game
from stopgames import solve_hoffman_karp, solve_permutation_improvement

g, _ = generate_fully_reduced(RatioSpec(64, 4), 3)
assert check_assumptions(g).fully_reduced
reduce_game(g)
solve_hoffman_karp(g, 1, FLOAT)
solve_permutation_improvement(g, 1, FLOAT)
assert not scipy_modules(), scipy_modules()
big, _ = generate_fully_reduced(RatioSpec(256, 8), 3)
assert len(big.average_nodes) > 64
solve_hoffman_karp(big, 1, FLOAT)
assert "scipy.sparse.linalg" in sys.modules, scipy_modules()
"""


def test_import_and_small_float_pipeline_load_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
