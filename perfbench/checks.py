"""Output checks written apart from the program.

Each check reads only the public data of a game (``n``, ``kinds``,
``arcs``) and of a result, and returns a list of problems, empty when the
output is right.  Node kinds are compared by their string codes, so the
checks do not depend on the program's enum objects.
"""

from __future__ import annotations

import json
from fractions import Fraction

FLOAT_TOL = 1e-9


def _codes(g) -> list[str]:
    return [k.value for k in g.kinds]


def local_equation_residual(g, values) -> float:
    """Largest gap between a node's value and its local equation: 0 and 1
    at the terminals, max/min/mean of the two successors elsewhere.
    Exact on Fractions, float otherwise."""
    codes = _codes(g)
    n = g.n
    worst = max(abs(values[n - 2]), abs(values[n - 1] - 1))
    for i in range(n - 2):
        a, b = g.arcs[i]
        va, vb = values[a - 1], values[b - 1]
        kind = codes[i]
        if kind == "max":
            want = va if va >= vb else vb
        elif kind == "min":
            want = va if va <= vb else vb
        else:
            want = (va + vb) / 2
        gap = abs(values[i] - want)
        if gap > worst:
            worst = gap
    return worst


def check_float_values(g, values, tol: float = FLOAT_TOL) -> list[str]:
    if len(values) != g.n:
        return [f"{len(values)} values for {g.n} nodes"]
    residual = local_equation_residual(g, [float(v) for v in values])
    if not residual <= tol:
        return [f"local equations off by {residual:.3e} (limit {tol:.0e})"]
    return []


def check_exact_values(g, values) -> list[str]:
    if len(values) != g.n:
        return [f"{len(values)} values for {g.n} nodes"]
    if not all(isinstance(v, Fraction) for v in values):
        return ["exact result holds non-Fraction values"]
    residual = local_equation_residual(g, list(values))
    if residual != 0:
        return [f"exact local equations off by {residual}"]
    return []


def check_agree(first, second, tol: float = FLOAT_TOL) -> list[str]:
    if len(first) != len(second):
        return [f"value vectors of {len(first)} and {len(second)} nodes"]
    gap = max(abs(float(a) - float(b)) for a, b in zip(first, second))
    if not gap <= tol:
        return [f"two solvers disagree by {gap:.3e} (limit {tol:.0e})"]
    return []


def bad_core(g) -> set[int]:
    """Nodes from which the players together can avoid both terminals
    forever: start from all non-terminals and drop, until nothing changes,
    every average node with an arc leaving the set and every max/min node
    with both arcs leaving it.  Empty exactly for stopping games."""
    codes = _codes(g)
    core = {i + 1 for i, c in enumerate(codes) if c not in ("t0", "t1")}
    changed = True
    while changed:
        changed = False
        for i in sorted(core):
            inside = [t in core for t in g.arcs[i - 1]]
            keep = all(inside) if codes[i - 1] == "avg" else any(inside)
            if not keep:
                core.discard(i)
                changed = True
    return core


def check_fully_reduced(g) -> list[str]:
    """Structure, stopping, and the checklist items a fully reduced
    benchmark instance must meet."""
    problems = []
    codes = _codes(g)
    n = g.n
    if n < 4 or codes[n - 2] != "t0" or codes[n - 1] != "t1":
        return [f"terminals are not nodes {n - 1} and {n}"]
    indegree = [0] * (n + 1)
    next_to = {n - 1: set(), n: set()}
    for i in range(1, n - 1):
        arcs = g.arcs[i - 1]
        if codes[i - 1] not in ("max", "min", "avg"):
            problems.append(f"node {i} has kind {codes[i - 1]!r}")
            continue
        if len(arcs) != 2 or not all(1 <= t <= n for t in arcs):
            problems.append(f"node {i} has arcs {arcs}")
            continue
        a, b = arcs
        indegree[a] += 1
        indegree[b] += 1
        if codes[i - 1] != "avg" and (a >= n - 1 or b >= n - 1):
            problems.append(f"decision node {i} has an arc into a terminal")
        if a == b or i in (a, b):
            problems.append(f"node {i} has a duplicate or self arc")
        if codes[i - 1] == "avg":
            for t in (a, b):
                if t in next_to:
                    next_to[t].add(i)
    if g.arcs[n - 2] or g.arcs[n - 1]:
        problems.append("a terminal has out-arcs")
    zero = [i for i in range(1, n + 1) if indegree[i] == 0]
    if zero:
        problems.append(f"{len(zero)} nodes have in-degree zero, first {zero[0]}")
    if not next_to[n - 1] or not next_to[n] or len(next_to[n - 1] | next_to[n]) < 2:
        problems.append("no average nodes next to both terminals")
    if not problems and bad_core(g):
        problems.append("game is not stopping")
    return problems


def check_size(g, size: int) -> list[str]:
    """A generated instance must have about the size asked for; the node
    counts of a ratio may round one or two nodes off the label."""
    if g.n < 0.9 * size:
        return [f"realized n={g.n} for requested size {size}"]
    return []


def check_json_round_trip(g, text: str, parsed) -> list[str]:
    """``text`` is the program's serialization of ``g`` and ``parsed`` its
    parse of ``text``; both must carry exactly the game's nodes."""
    data = json.loads(text)
    nodes = [(e["id"], e["kind"], tuple(e["arcs"])) for e in data["nodes"]]
    want = [(i + 1, c, tuple(a)) for i, (c, a) in enumerate(zip(_codes(g), g.arcs))]
    problems = []
    if data["n"] != g.n or nodes != want:
        problems.append("serialized nodes differ from the game")
    if (parsed.n, _codes(parsed), tuple(map(tuple, parsed.arcs))) != (
        g.n,
        _codes(g),
        tuple(map(tuple, g.arcs)),
    ):
        problems.append("parsed game differs from the game")
    return problems
