"""Linear solvers for the average-node value systems.

Strategy-fixed game evaluation reduces to ``A v = b`` where row i reads
``2*v_i - v_j - v_k = const`` over the average nodes only, so A is sparse
with tiny integer entries.  Both solvers take the system as the evaluator
builds it: ``rhs``, an int array of length a, and ``coo``, three
equal-length int arrays ``(rows, cols, coefs)`` of matrix entries.
Entries at one position are summed, so two children aliasing one
unknown, or a child aliasing the row's own unknown, need no merging.

* ``solve_exact`` returns ``(nums, d)``: one int numerator per unknown
  over one positive common denominator d, in lowest terms; a system
  without unknowns is ``([], 1)``.  Every other system, whatever its
  size, is first solved by numeric lifting (Z. Wan, J. Symbolic
  Computation 41, 2006): A is factored once in float64, and each step
  solves for the residual scaled by 2**40, rounds to integers and
  updates the residual exactly in int64.  After every step the
  approximation is turned into numerators over one common denominator,
  and the answer is returned only once ``A·N == d·b`` holds exactly in
  integers.  The lift gives up when the float factor is singular, when a
  step gains too few bits, when a scaled residual would overflow int64,
  or when it passes the Hadamard bound on Cramer's-rule numerators and
  denominators without a verified answer.  The system then goes to
  Dixon's p-adic lifting: A is inverted once modulo a prime p below
  2**23, each step costs one matrix-vector product mod p, the same
  integer check ends it, and lifting past the Hadamard bound without a
  verified answer raises ``SingularSystemError``.  The primes are tried
  largest first, 8388593, 8388587, 8388581 and on down, until one leaves
  A nonsingular.  Each prime that leaves A singular divides det A, so
  once the primes tried multiply past the Hadamard bound on |det A|, A
  is singular and ``SingularSystemError`` is raised.

* ``solve_float`` returns float64 values with one step of iterative
  refinement and a residual guarantee.

* ``inverse_norm`` returns ‖A^-1‖∞ in float64, the condition estimate
  behind ``evaluate.float_error_estimate``.

* ``solve_float_and_norm`` returns both from one factor: the float
  values that steer exact Hoffman-Karp and the norm of their error
  estimate.

One helper, ``_float_factor``, takes every float LU: LAPACK's
``dgetrf``/``dgetrs`` up to ``_DENSE_MAX`` unknowns and SuperLU above,
for the numeric lift, for ``inverse_norm``, for ``solve_float_and_norm``
and for sparse float solves.  Only float mode's dense solves take their
own, ``np.linalg.solve``: its rounding differs from ``dgetrs``'s, and
the float bit pins fix it.

SciPy is imported where it is first used, so importing this module loads
none of it: SuperLU and the sparse matrix types with the first system of
more than ``_DENSE_MAX`` unknowns, LAPACK with the first dense exact
solve, steering solve or error estimate.  Float mode's dense solves
need only NumPy.  The dense exact factor stays on LAPACK:
``np.linalg.solve`` per lift step, or one ``np.linalg.inv``, made exact
solving slower.  ``load_scipy`` imports it all up front, for callers
that time solves.
"""

from __future__ import annotations

from functools import partial
from math import gcd, isqrt, prod

import numpy as np


RESIDUAL_BOUND = 1e-9
_DENSE_MAX = 64  # unknowns up to which a system is factored dense, not sparse


def load_scipy() -> None:
    """Import every SciPy module the solvers use, which they otherwise
    import on first use, so that no timed solve pays for the import."""
    import scipy.linalg.lapack  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401


class SingularSystemError(RuntimeError):
    """The value system had no unique solution in the arithmetic used.

    ``solve_exact`` raises it only on a truly singular matrix, which no
    stopping-game evaluation builds.  ``solve_float`` and
    ``solve_float_and_norm`` raise it also on a stopping game whose
    system is singular to float64 precision, or misses the residual
    bound: an ill-conditioned system, not a bug."""


def _ints(xs) -> list[int]:
    """An int array, or list, as Python ints, for arithmetic past int64."""
    return np.asarray(xs).tolist()


def _lift_primes():
    """The primes below 2**23, largest first: 8388593, 8388587, 8388581, ...
    Reduced residues stay below 2**23, so a sum of a products of two of
    them fits int64 for a < 2**17."""
    for p in range((1 << 23) - 1, 2, -2):
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            yield p


def _inverse_mod(dense_a: np.ndarray, p: int) -> np.ndarray | None:
    """A^-1 mod p by in-place Gauss-Jordan elimination over GF(p); None
    when A is singular mod p.

    Reduction mod p is delayed: each step reduces only the pivot row and
    column and adds less than 2**46 to any other entry, so int64 holds
    every entry for a < 2**17.  Each rank-1 update touches only the rows
    where the pivot column is nonzero, which stay few on value systems.
    """
    a = dense_a.shape[0]
    m = dense_a % p
    swaps = []
    for k in range(a):
        col = m[:, k] % p
        if not col[k]:
            nz = np.flatnonzero(col[k:])
            if nz.size == 0:
                return None
            piv = k + int(nz[0])
            m[[k, piv]] = m[[piv, k]]
            col[[k, piv]] = col[[piv, k]]
            swaps.append((k, piv))
        inv = pow(int(col[k]), -1, p)
        row = m[k] % p * inv % p
        row[k] = inv
        col[k] = 0
        m[:, k] = 0
        rows = col.nonzero()[0]
        m[rows] -= col[rows, None] * row
        m[k] = row
    m %= p
    # Row swaps of A are column swaps of its inverse, undone in reverse.
    for k, piv in reversed(swaps):
        m[:, [k, piv]] = m[:, [piv, k]]
    return m


def _reconstruct(xs, modulus: int) -> tuple[list[int], int] | None:
    """Numerators N and one denominator d with ``N ≡ d·xs (mod modulus)``;
    None when no fit is found.

    Each component, scaled by the d found so far, must come out at most
    bound = sqrt(modulus / 2) in absolute value, or else be lifted by
    extended Euclid to n/e with |n| and d·e at most bound; e then
    multiplies d and the numerators before it.
    """
    bound = isqrt((modulus - 1) // 2)
    half = modulus // 2
    den = 1
    nums: list[int] = []
    for x in xs:
        y = x * den % modulus
        if y > half:
            y -= modulus
        if abs(y) > bound:
            r0, r1, t0, t1 = modulus, y % modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                t0, t1 = t1, t0 - q * t1
            e = abs(t1)
            if den * e > bound:
                return None
            y = r1 if t1 > 0 else -r1
            nums = [v * e for v in nums]
            den *= e
        nums.append(y)
    return nums, den


def _dense(a: int, coo, dtype) -> np.ndarray:
    """The a x a matrix of the triplets, duplicates summed.  The sums are
    taken in float64, exactly: every entry is a small integer."""
    rows, cols, coefs = map(np.asarray, coo)
    flat = np.bincount(rows * a + cols, weights=coefs, minlength=a * a)
    return flat.reshape(a, a).astype(dtype, copy=False)


def _float_factor(a: int, coo) -> tuple:
    """The a x a float64 matrix of the triplets and a solve on its one LU:
    LAPACK's ``getrf``/``getrs`` up to ``_DENSE_MAX`` unknowns, SuperLU
    above; ``SingularSystemError`` where float64 cannot factor it."""
    if a <= _DENSE_MAX:
        from scipy.linalg.lapack import dgetrf, dgetrs

        matrix = _dense(a, coo, float)
        lu, piv, info = dgetrf(matrix)
        if info:
            raise SingularSystemError(f"float64 LU pivot {info} is zero")
        return matrix, lambda v: dgetrs(lu, piv, v)[0]
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    rows, cols, coefs = coo
    matrix = csc_matrix((coefs, (rows, cols)), shape=(a, a), dtype=float)
    try:
        return matrix, splu(matrix).solve
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc


def _hadamard_sq(row_norms_sq, rhs) -> int:
    """The product of the squared row norms of [A | b].  It bounds the
    square of the determinant of A and of every Cramer's-rule numerator,
    so past a modulus or scale of twice it reconstruction cannot miss."""
    return prod(n + b * b for n, b in zip(_ints(row_norms_sq), _ints(rhs)))


def _certified(rhs, coo, nums, den) -> bool:
    """Whether ``A·nums == den·rhs`` holds exactly, row by row."""
    check = [-den * b for b in _ints(rhs)]
    for i, j, c in zip(*map(_ints, coo)):
        check[i] += c * nums[j]
    return not any(check)


def _solve_dixon(rhs, coo) -> tuple[list[int], int]:
    """Dixon p-adic lifting modulo the first of ``_lift_primes`` that
    leaves A nonsingular; ``SingularSystemError`` when A is singular.

    A prime that leaves A singular divides det A, so once the primes
    tried multiply past the Hadamard bound on |det A|, det A is 0.
    """
    a = len(rhs)
    dense_a = _dense(a, coo, np.int64)
    bound_sq = _hadamard_sq((dense_a * dense_a).sum(axis=1), rhs)
    tried = 1
    for p in _lift_primes():
        inverse = _inverse_mod(dense_a, p)
        if inverse is not None:
            break
        tried *= p
        if tried * tried > bound_sq:
            raise SingularSystemError("singular modulo primes past the Hadamard bound")

    ceiling = 2 * bound_sq
    residual = np.array(rhs, dtype=np.int64)
    xs = np.zeros(a, dtype=object)
    modulus = 1
    step = 0
    while True:
        digit = inverse @ (residual % p) % p
        residual = (residual - dense_a @ digit) // p
        xs += digit.astype(object) * modulus
        modulus *= p
        step += 1
        past_bound = modulus > ceiling
        if step % 2 == 0 or past_bound:
            found = _reconstruct(xs, modulus)
            if found is not None and _certified(rhs, coo, *found):
                nums, den = found
                g = gcd(den, *nums)
                return [v // g for v in nums], den // g
            if past_bound:
                raise SingularSystemError("no verified solution within the Hadamard bound")


# Bits gained per numeric lifting step, α = 2**_LIFT_BITS.  On the value
# systems of generated games of 64 to 1024 nodes (condition numbers below
# 2**7) a float solve of a residual scaled by 2**46 still lands within
# 0.53 of the exact solution; 40 bits leave a margin for harder systems.
_LIFT_BITS = 40
# |α·r| and |A·z| stay below this, so ``α·r - A·z`` cannot overflow int64.
_INT64_HALF = 1 << 62


def _approximate(approx: list[int], scale: int) -> tuple[list[int], int] | None:
    """Numerators N and one denominator d with ``|approx_i/scale - N_i/d|
    <= 1/scale`` for every i and d at most bound = sqrt(scale / 2); None
    when no fit is found.

    Each component, scaled by the d found so far, is either within d of a
    multiple of scale or is expanded by continued fractions to the
    smallest factor e that brings it that close; e then multiplies d and
    the numerators before it.  A rational with denominator at most bound
    is the only one that close, so past a scale of twice the squared
    denominator of the exact solution the fit cannot miss.
    """
    bound = isqrt((scale - 1) // 2)
    half = scale >> 1
    den = 1
    nums: list[int] = []
    for x in approx:
        y = x * den
        n, dev = divmod(y + half, scale)
        if abs(dev - half) > den:
            r0, r1, t0, t1 = scale, y % scale, 0, 1
            while r1 > den * abs(t1):
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                t0, t1 = t1, t0 - q * t1
            e = abs(t1)
            if den * e > bound:
                return None
            nums = [v * e for v in nums]
            den *= e
            n = (y * e + half) // scale
        nums.append(n)
    return nums, den


def _solve_numeric(rhs, coo) -> tuple[list[int], int] | None:
    """Numeric lifting on one float factor of A (Wan 2006); None when the
    lift gives up.

    Each step solves for the residual scaled by α in float, rounds to
    integers z, and updates exactly in integers: ``r <- α·r - A·z`` and
    ``N <- α·N + z``, so ``A·N == α**s·b - r`` after s steps and
    ``N / α**s`` is off by ``A^-1·r / α**s``, the last step's rounding
    error.  A step rounded to within 1 leaves ``|r| <= ||A||``; a larger
    residual means the step gained too few bits.
    """
    a = len(rhs)
    try:
        matrix, solve = _float_factor(a, coo)
    except SingularSystemError:
        return None
    matrix = matrix.astype(np.int64)  # its entries are small integers
    squares = matrix.multiply(matrix) if a > _DENSE_MAX else matrix * matrix
    norms_sq = np.asarray(squares.sum(axis=1)).ravel()
    norm = int(abs(matrix).sum(axis=1).max())
    ceiling = 2 * _hadamard_sq(norms_sq, rhs)
    z_cap = _INT64_HALF // norm
    r_cap = _INT64_HALF >> _LIFT_BITS
    r = np.array(rhs, dtype=np.int64)
    nums = [0] * a
    scale = 1
    while True:
        if np.abs(r).max() >= r_cap:
            return None
        scaled = r << _LIFT_BITS
        x = solve(scaled.astype(float))
        if not np.abs(x).max() < z_cap:
            return None
        z = np.rint(x).astype(np.int64)
        r = scaled - matrix @ z
        if np.abs(r).max() > norm:
            return None
        nums = [(v << _LIFT_BITS) + d for v, d in zip(nums, z.tolist())]
        scale <<= _LIFT_BITS
        found = _approximate(nums, scale)
        if found is not None and _certified(rhs, coo, *found):
            return found
        if scale > ceiling:
            return None


def solve_exact(rhs, coo) -> tuple[list[int], int]:
    """Exact solution of the sparse integer system ``A x = rhs``, A given
    by the ``coo`` triplets: ``(nums, d)`` with ``x_i = nums[i] / d``, d
    positive and in lowest terms with the numerators."""
    if len(rhs) == 0:
        return [], 1
    return _solve_numeric(rhs, coo) or _solve_dixon(rhs, coo)


def _refined(matrix, solve, b: np.ndarray) -> np.ndarray:
    """The solution of ``matrix·x = b`` by ``solve`` with one refinement
    step; ``SingularSystemError`` unless every equation's residual is at
    most ``RESIDUAL_BOUND``."""
    try:
        x = solve(b)
        x += solve(b - matrix @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    residual = np.abs(matrix @ x - b).max()
    if not residual <= RESIDUAL_BOUND:
        raise SingularSystemError(f"residual {residual:.3e} above {RESIDUAL_BOUND:.1e}")
    return x


def _inverse_norm_on(solve, a: int) -> float:
    """The largest entry of A^-1·1 by ``solve`` on a factor of A, without
    refinement; ``inf`` where the solve overflows."""
    norm = float(np.abs(solve(np.ones(a))).max())
    return norm if np.isfinite(norm) else np.inf


def inverse_norm(a: int, coo) -> float:
    """‖A^-1‖∞ in float64 for an a x a matrix whose inverse is entrywise
    non-negative, as every value system of a stopping game has: the
    largest entry of A^-1·1, solved once without refinement; ``inf``
    where float64 cannot factor A or the solve overflows."""
    if a == 0:
        return 0.0
    try:
        _, solve = _float_factor(a, coo)
    except SingularSystemError:
        return np.inf
    return _inverse_norm_on(solve, a)


def solve_float(rhs, coo) -> np.ndarray:
    """float64 solution with one refinement step; ``SingularSystemError``
    unless every equation's residual is at most ``RESIDUAL_BOUND``."""
    a = len(rhs)
    if a == 0:
        return np.zeros(0)
    if a <= _DENSE_MAX:
        # np.linalg.solve, not _float_factor's getrf/getrs: the two round
        # differently, and sharing the factor moved some values by 1.1e-16
        # (numpy 2.4.6, scipy 1.17.1), past the float bit pins.
        matrix = _dense(a, coo, float)
        solve = partial(np.linalg.solve, matrix)
    else:
        matrix, solve = _float_factor(a, coo)
    return _refined(matrix, solve, np.asarray(rhs, dtype=float))


def solve_float_and_norm(rhs, coo) -> tuple[np.ndarray, float]:
    """``solve_float``'s solution and ``inverse_norm``'s ‖A^-1‖∞, both on
    one ``_float_factor`` LU of A: the same refinement step and residual
    bound, and the same norm, bit for bit, as ``inverse_norm``.  Dense
    solutions follow ``getrs``'s rounding, not ``solve_float``'s.
    ``SingularSystemError`` where float64 cannot factor A or the residual
    bound is missed."""
    a = len(rhs)
    if a == 0:
        return np.zeros(0), 0.0
    matrix, solve = _float_factor(a, coo)
    return _refined(matrix, solve, np.asarray(rhs, dtype=float)), _inverse_norm_on(solve, a)
