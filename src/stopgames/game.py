"""Game graph model for simple stochastic stopping games.

A game is a directed graph over nodes 1..n.  Every non-terminal node is a
max, min, or average node with exactly two ordered out-arcs; node n-1 is
the 0-terminal and node n is the 1-terminal, both without out-arcs.  All
public interfaces use 1-based node ids.

This module also hosts the structural validator, the canonical JSON
instance format and the backward attractor of a node set (``attractor``).
The bad core, which decides whether a game is stopping (every strategy
pair gives every node a path to a terminal), is the complement of one
attractor (``safety``); the generator's safety witnesses, the
reducer's forced-value search and the children-first order of the
max/min nodes (``Game.decision_order``) run on the same function.  Both
game types answer the stopping question as ``g.stopping``, from
``find_bad_core`` alone: a ``Game`` on first read, then cached, however
it was built, and a ``PartialGame`` afresh on every read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np


class NonStoppingGameError(ValueError):
    """Raised when an operation that only makes sense on stopping games is
    handed a game with a non-empty bad core."""


class EvaluationContractError(RuntimeError):
    """An internal solve violated its own guarantees (residual, range, or
    an iteration tripwire); indicates a defect, not a bad input."""


class NodeKind(Enum):
    MAX = "max"
    MIN = "min"
    AVERAGE = "avg"
    TERMINAL0 = "t0"
    TERMINAL1 = "t1"

    @property
    def is_terminal(self) -> bool:
        return self in (NodeKind.TERMINAL0, NodeKind.TERMINAL1)

    @property
    def is_decision(self) -> bool:
        return self in (NodeKind.MAX, NodeKind.MIN)


_KIND_FROM_CODE = {k.value: k for k in NodeKind}

# Int kind codes, ``Game.code`` and ``PartialGame.code``: the hot loops
# compare these instead of enum members and their properties.
MAX, MIN, AVG, TERM = range(4)
_CODE = {
    NodeKind.MAX: MAX,
    NodeKind.MIN: MIN,
    NodeKind.AVERAGE: AVG,
    NodeKind.TERMINAL0: TERM,
    NodeKind.TERMINAL1: TERM,
}


def _kind_codes(kinds) -> tuple[int, ...]:
    """Kind codes indexed by node id; entry 0 is unused and reads TERM."""
    return (TERM,) + tuple(_CODE[k] for k in kinds)


class _NodeReads:
    """The reads by node id that ``Game`` and ``PartialGame`` share, over
    their ``n``, ``kinds`` and ``arcs``."""

    def kind(self, i: int) -> NodeKind:
        return self.kinds[i - 1]

    def arcs_of(self, i: int) -> tuple[int, ...]:
        return tuple(self.arcs[i - 1])

    @property
    def terminal0(self) -> int:
        return self.n - 1

    @property
    def terminal1(self) -> int:
        return self.n


@dataclass(frozen=True)
class Game(_NodeReads):
    """Immutable game graph.

    ``kinds[i-1]`` is the kind of node i and ``arcs[i-1]`` its ordered
    out-arc pair (empty tuple for terminals).  Instances are hashable and
    safe to share between threads.  Being immutable, a game derives its
    layout once, on first use: whether it is stopping (``stopping``), the
    kind codes (``code``), the parent lists (``parents()``), the nodes
    of each kind in ascending id (``max_nodes``, ``min_nodes``,
    ``average_nodes``), the same graph as NumPy arrays (``layout``) and
    the max/min nodes children first (``decision_order``).
    """

    n: int
    kinds: tuple[NodeKind, ...]
    arcs: tuple[tuple[int, ...], ...]

    @cached_property
    def stopping(self) -> bool:
        return not find_bad_core(self)

    @cached_property
    def code(self) -> tuple[int, ...]:
        """``code[i]`` is node i's kind as MAX, MIN, AVG or TERM."""
        return _kind_codes(self.kinds)

    @cached_property
    def max_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.code) if c == MAX)

    @cached_property
    def min_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.code) if c == MIN)

    @cached_property
    def average_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.code) if c == AVG)

    @cached_property
    def _parents(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        par: list[list[int]] = [[] for _ in range(n + 1)]
        for i, out in enumerate(self.arcs, start=1):
            for t in out:
                if not 1 <= t <= n:
                    raise ValueError(f"arc {i} -> {t} leaves the nodes 1..{n}")
                par[t].append(i)
        return tuple(tuple(p) for p in par)

    def parents(self) -> tuple[tuple[int, ...], ...]:
        """Parent lists indexed by node id (entry 0 unused).

        A parent appears once per arc, so duplicate arcs yield duplicate
        entries; that multiplicity is what the linear-cost propagation
        passes rely on.  A game built directly may hold an arc target
        outside 1..n (``validate_structure`` reports it); this first use
        of the layout raises ``ValueError`` naming the arc.
        """
        return self._parents

    @cached_property
    def decision_order(self) -> tuple[int, ...]:
        """The max/min node ids, each after its max/min children: the
        order in which they join ``attractor`` of the averages and
        terminals, a max/min node once both of its arcs lead in.  The
        max/min nodes of a stopping game form a DAG, as a cycle of them
        would let play stay off the terminals forever; a cycle, which
        only a game whose ``stopping`` flag was set by hand can hold,
        raises ``EvaluationContractError``."""
        targets = (*self.average_nodes, self.terminal0, self.terminal1)
        _, joined = attractor(self.code, self.arcs, self.parents(), targets, (MAX, MIN))
        order = tuple(joined[len(targets):])
        if len(order) != len(self.max_nodes) + len(self.min_nodes):
            raise EvaluationContractError("max/min nodes close a cycle")
        return order

    @cached_property
    def layout(self) -> ArcLayout:
        """The arcs and node kinds as arrays of positions, for array-native
        strategy evaluation; built after ``parents()``, so an arc target
        outside 1..n raises the same ``ValueError`` naming the arc."""
        self.parents()
        arcs = np.array([out or (i, i) for i, out in enumerate(self.arcs, 1)], dtype=np.intp)
        targets = np.ascontiguousarray(arcs.T - 1)
        averages = np.array(self.average_nodes, dtype=np.intp) - 1
        a = len(averages)
        slot = np.full(self.n, -1, dtype=np.intp)
        slot[averages] = np.arange(a)
        slot[self.terminal0 - 1], slot[self.terminal1 - 1] = a, a + 1
        decisions = np.array(self.max_nodes + self.min_nodes, dtype=np.intp) - 1
        code = np.array(self.code[1:])
        return ArcLayout(targets, slot, decisions, averages, targets[:, decisions], code == MAX, code == MIN)


class ArcLayout(NamedTuple):
    """``Game.layout``: one game's graph as NumPy int arrays indexed like
    value vectors, node i at position i - 1, and holding such positions.

    ``targets`` is 2×n: column i - 1 holds the positions of node i's
    first and second arc targets, a terminal's own position twice.
    ``slot[i - 1]`` is average i's column among the averages in ascending
    id, a (the average count) for the 0-terminal, a+1 for the 1-terminal
    and -1 for the max/min nodes.  ``decision_nodes`` holds the positions
    of the max nodes and then the min nodes, ``average_nodes`` those of
    the averages, each in ascending id.  ``choices`` is ``targets`` for
    the decision nodes, in ``decision_nodes`` order, and ``is_max`` and
    ``is_min`` mark each position's kind.
    """

    targets: np.ndarray
    slot: np.ndarray
    decision_nodes: np.ndarray
    average_nodes: np.ndarray
    choices: np.ndarray
    is_max: np.ndarray
    is_min: np.ndarray


class PartialGame(_NodeReads):
    """Mutable game under construction: out-degrees may be 0, 1, or 2.

    Single-writer: one generation run owns the instance.  Its kinds are
    fixed at construction, so ``code`` is set once as on ``Game``; parent
    lists are maintained incrementally because the generator queries them
    constantly.
    """

    def __init__(self, kinds: list[NodeKind]):
        self.n = len(kinds)
        self.kinds = list(kinds)
        self.code = _kind_codes(kinds)
        self.arcs: list[list[int]] = [[] for _ in range(self.n)]
        self._parents: list[list[int]] = [[] for _ in range(self.n + 1)]

    def add_arc(self, src: int, dst: int) -> None:
        if self.code[src] == TERM:
            raise ValueError(f"node {src} is a terminal and cannot have arcs")
        if len(self.arcs[src - 1]) >= 2:
            raise ValueError(f"node {src} already has two out-arcs")
        if not 1 <= dst <= self.n:
            raise ValueError(f"arc target {dst} out of range 1..{self.n}")
        self.arcs[src - 1].append(dst)
        self._parents[dst].append(src)

    def parents(self) -> list[list[int]]:
        return self._parents

    @property
    def stopping(self) -> bool:
        """Whether the game is stopping as it stands, answered afresh on
        every read because arcs can still be added."""
        return not find_bad_core(self)

    def freeze(self) -> Game:
        """The finished game; arc targets share one int object per node id."""
        ids = list(range(self.n + 1))
        g = Game(self.n, tuple(self.kinds), tuple(tuple([ids[t] for t in a]) for a in self.arcs))
        problems = validate_structure(g)
        if problems:
            raise ValueError("incomplete game: " + "; ".join(problems))
        return g


def validate_structure(g) -> list[str]:
    """Return every violated structural rule of ``g``, empty when valid.

    Accepts a Game (out-degree must be exactly 2) or a PartialGame
    (out-degree at most 2).  Duplicate arcs and self-arcs are legal here;
    the reducer deals with them.
    """
    partial = isinstance(g, PartialGame)
    problems: list[str] = []
    n = g.n
    if n < 2:
        return [f"game needs at least the two terminals, got n={n}"]
    kinds, arcs = g.kinds, g.arcs
    if len(kinds) != n or len(arcs) != n:
        problems.append("kinds/arcs length does not match n")
        return problems
    if kinds[n - 2] is not NodeKind.TERMINAL0:
        problems.append(f"node {n - 1} must be the 0-terminal")
    if kinds[n - 1] is not NodeKind.TERMINAL1:
        problems.append(f"node {n} must be the 1-terminal")
    code = g.code
    for i in range(1, n + 1):
        out = arcs[i - 1]
        if code[i] == TERM:
            k = kinds[i - 1]
            if k is NodeKind.TERMINAL0 and i != n - 1:
                problems.append(f"extra 0-terminal at node {i}")
            if k is NodeKind.TERMINAL1 and i != n:
                problems.append(f"extra 1-terminal at node {i}")
            if out:
                problems.append(f"terminal node {i} has out-arcs")
            continue
        if len(out) > 2 or (len(out) < 2 and not partial):
            problems.append(f"node {i} has out-degree {len(out)}")
        for t in out:
            if not 1 <= t <= n:
                problems.append(f"arc target out of range: {i} -> {t}")
    return problems


def attractor(code, arcs, parents, target, every) -> tuple[list[int], list[int]]:
    """The backward attractor of ``target``: the targets and, repeatedly,
    every node with an arc into the set; a node whose kind code is in
    ``every`` joins only once all of its arcs lead in, a duplicate arc
    counted twice.  ``code`` and ``parents`` are indexed by node id,
    ``arcs`` by id - 1, as on ``Game``, ``PartialGame`` and the reducer's
    work view.  Returns ``via`` and the members in the order they joined,
    targets first.  ``via[u]`` is the node u joined through, u for a
    target and 0 outside.  First in, first out: each node joins through
    nodes taken before it, and each parent list is read once.
    """
    via = [0] * len(code)
    left = [0] * len(code)  # a node in ``every``: its arcs still outside, 0 until met
    queue = list(target)
    for u in queue:
        via[u] = u
    for u in queue:
        for p in parents[u]:
            if via[p]:
                continue
            if code[p] in every:
                left[p] = (left[p] or len(arcs[p - 1])) - 1
                if left[p]:
                    continue
            via[p] = u
            queue.append(p)
    return via, queue


def safety(g) -> list[int]:
    """``attractor`` of the nodes safe outright: terminals, averages with
    fewer than two arcs and max/min nodes without arcs.  A max/min node
    is safe once all of its arcs lead to safe nodes, an average once one
    does; an arc a ``PartialGame`` lacks counts as leading out.  No safe
    node can sit in a terminal-free set that play stays in.
    """
    code, arcs = g.code, g.arcs
    parents = g.parents()  # on a Game, checks every arc target first
    outright = [
        v for v in range(1, g.n + 1) if code[v] == TERM or len(arcs[v - 1]) < (2 if code[v] == AVG else 1)
    ]
    return attractor(code, arcs, parents, outright, (MAX, MIN))[0]


def find_bad_core(g) -> frozenset[int]:
    """Maximal node set in which play can avoid the terminals forever:
    the nodes outside ``safety(g)``.

    The result is empty exactly when the game is stopping, and it is a
    superset of every node set in which both players can trap the play.
    """
    via = safety(g)
    return frozenset(v for v in range(1, g.n + 1) if not via[v])


def require_stopping(g: Game, what: str) -> None:
    """Raise ``NonStoppingGameError`` unless ``g`` is stopping."""
    if not g.stopping:
        raise NonStoppingGameError(f"{what} requires a stopping game")


# --- instance file format ---------------------------------------------------
#
# {"n": int, "nodes": [{"id": int, "kind": "max"|"min"|"avg"|"t0"|"t1",
#                       "arcs": [j, k] or []}, ...]}
# Nodes are listed in ascending id and terminals carry "arcs": [].  The
# serializer below is canonical, so parse-then-serialize is byte-identical
# modulo whitespace in the source.


def game_to_json(g: Game) -> str:
    nodes = [
        {"id": i, "kind": g.kind(i).value, "arcs": list(g.arcs_of(i))}
        for i in range(1, g.n + 1)
    ]
    return json.dumps({"n": g.n, "nodes": nodes}, separators=(",", ":")) + "\n"


def json_object(text: str, what: str) -> dict:
    """``text`` parsed as a JSON object.  Anything else is a ``ValueError``
    naming ``what``, nesting too deep for the parser's recursion included."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} nests too deeply to parse") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    return data


def game_from_json(text: str) -> Game:
    """Parse an instance file; every schema violation is a ``ValueError``."""
    data = json_object(text, "instance")
    n = data.get("n")
    nodes = data.get("nodes")
    if type(n) is not int:
        raise ValueError(f"instance needs an integer 'n', got {n!r}")
    if not isinstance(nodes, list):
        raise ValueError("instance needs a 'nodes' list")
    if len(nodes) != n:
        raise ValueError(f"instance lists {len(nodes)} nodes but n={n}")
    kinds: list[NodeKind] = [NodeKind.MAX] * n
    arcs: list[tuple[int, ...]] = [()] * n
    seen = set()
    for entry in nodes:
        if not isinstance(entry, dict):
            raise ValueError(f"node entry {entry!r} is not an object")
        i = entry.get("id")
        if type(i) is not int or not 1 <= i <= n or i in seen:
            raise ValueError(f"bad or duplicate node id {i!r}")
        seen.add(i)
        code = entry.get("kind")
        if not isinstance(code, str) or code not in _KIND_FROM_CODE:
            raise ValueError(f"unknown node kind {code!r}")
        out = entry.get("arcs")
        if not isinstance(out, list) or not all(type(t) is int for t in out):
            raise ValueError(f"node {i}: 'arcs' must be a list of node ids, got {out!r}")
        kinds[i - 1] = _KIND_FROM_CODE[code]
        arcs[i - 1] = tuple(out)
    g = Game(n, tuple(kinds), tuple(arcs))
    problems = validate_structure(g)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    return g


def load_game(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return game_from_json(fh.read())


def save_game(g: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(game_to_json(g))
