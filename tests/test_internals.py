from fractions import Fraction

import numpy as np
import pytest

from stopgames import linsolve
from stopgames.linsolve import (
    _LIFT_PRIMES,
    SingularSystemError,
    _gauss_fractions,
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


def random_system(rng: Rng, size: int):
    """Rows shaped like real average-node systems: diagonal 2, children
    either another unknown or a constant.  Regenerates until comfortably
    nonsingular, mirroring how reachability pruning keeps real systems
    invertible."""
    while True:
        rows = []
        rhs = []
        for i in range(size):
            row = {i: 2}
            const = 0
            for _ in range(2):
                j = rng.randbelow(size + max(2, size // 4))
                if j < size and j != i:
                    row[j] = row.get(j, 0) - 1
                else:
                    const += rng.randbelow(2)
            rows.append(row)
            rhs.append(const)
        dense = np.zeros((size, size))
        for i, row in enumerate(rows):
            for j, c in row.items():
                dense[i, j] = c
        if abs(np.linalg.slogdet(dense)[0]) == 1.0:
            return rows, rhs


def test_exact_modular_path_matches_fraction_elimination():
    for seed in range(30):
        rng = Rng(seed)
        size = 9 + rng.randbelow(40)  # forces the modular path
        rows, rhs = random_system(rng, size)
        assert solve_exact(rows, rhs) == _gauss_fractions(rows, rhs)


def test_exact_handles_fraction_rhs():
    rows = [{0: 2, 1: -1}, {1: 2}]
    rhs = [Fraction(1, 3), Fraction(1, 2)]
    x = solve_exact(rows, rhs)
    assert 2 * x[0] - x[1] == Fraction(1, 3)
    assert 2 * x[1] == Fraction(1, 2)


def test_float_residual_contract():
    for seed in range(10):
        rng = Rng(seed + 50)
        for size in (5, 90):  # dense and sparse-LU paths
            rows, rhs = random_system(rng, size)
            x = solve_float(rows, rhs)
            dense = np.zeros((size, size))
            for i, row in enumerate(rows):
                for j, c in row.items():
                    dense[i, j] = c
            assert np.abs(dense @ x - np.array(rhs, float)).max() <= 1e-9


def test_singular_system_raises():
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1}]
    with pytest.raises(SingularSystemError):
        solve_float(rows, [1, 2])


def _dense(rows):
    dense = np.zeros((len(rows), len(rows)), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, c in row.items():
            dense[i, j] = c
    return dense


def _with_blocks(blocks, rows, rhs):
    """Block-diagonal system: 2x2 blocks [[q+1, 1], [1, 1]] of determinant
    q, one per entry of ``blocks``, then ``rows`` shifted past them."""
    out_rows, out_rhs = [], []
    for q in blocks:
        k = len(out_rows)
        out_rows += [{k: q + 1, k + 1: 1}, {k: 1, k + 1: 1}]
        out_rhs += [1, 2]
    k = len(out_rows)
    out_rows += [{j + k: c for j, c in row.items()} for row in rows]
    return out_rows, out_rhs + list(rhs)


def test_exact_lifting_retries_second_prime_then_rational_elimination():
    """A determinant divisible by the first prime makes the lifting use the
    second; divisible by both, the system goes to rational elimination."""
    first, second = _LIFT_PRIMES
    rows, rhs = random_system(Rng(77), 12)
    one_bad = _with_blocks([first], rows, rhs)
    assert linsolve._inverse_mod(_dense(one_bad[0]), first) is None
    assert linsolve._inverse_mod(_dense(one_bad[0]), second) is not None
    assert linsolve._solve_dixon(*one_bad) is not None
    assert solve_exact(*one_bad) == _gauss_fractions(*one_bad)

    both_bad = _with_blocks([first, second], rows, rhs)
    assert linsolve._solve_dixon(*both_bad) is None
    assert solve_exact(*both_bad) == _gauss_fractions(*both_bad)


@pytest.mark.parametrize("scale", [1, _LIFT_PRIMES[0] ** 2], ids=["unit", "p-squared"])
def test_exact_lifting_long_chain_of_averages(scale):
    """x_i = (x_{i+1} + c_i) / 2 down a chain of 320 averages: the common
    denominator is 2**320, so lifting runs for about 28 steps.  Scaled by
    p**2, the first two p-adic digits are zero, so the reconstruction after
    two steps is the zero vector, which the integer check must reject."""
    rng = Rng(78)
    a = 320
    consts = [scale * rng.randbelow(2) for _ in range(a)]
    rows = [{i: 2, i + 1: -1} for i in range(a - 1)] + [{a - 1: 2}]
    expected = [Fraction(0)] * a
    nxt = Fraction(0)
    for i in range(a - 1, -1, -1):
        nxt = expected[i] = (nxt + consts[i]) / 2
    x = solve_exact(rows, consts)
    assert x == expected
    assert max(v.denominator for v in x).bit_length() > 300


def test_exact_singular_system_raises():
    rows, rhs = random_system(Rng(79), 12)
    rows[1], rhs[1] = dict(rows[0]), rhs[0]
    with pytest.raises(SingularSystemError):
        solve_exact(rows, rhs)
