"""Polynomial-time reductions for stopping games.

Five local rules remove subgraphs whose values follow in constant time
from the rest of the game (decision arcs into terminals, duplicate arcs,
average self-arcs, in-degree-zero nodes, and the all-constant collapse
when a terminal is unreachable).  A linear propagation finds every node
whose value is forced to exactly 1 or exactly 0, so it can be merged
into its terminal: the nodes outside the other terminal's backward
attractor (``game.attractor``, the fixpoint the bad core and the
generator's witnesses come from too).  ``scc_condense`` splits the game,
sinks first, into strongly connected components that can be solved
independently; it is the one user of SciPy here and imports SciPy's
strong components when it is called, so importing this module loads no
SciPy.  ``check_assumptions`` bundles the whole checklist a fully
reduced benchmark instance must satisfy; its single-component question
needs no component labels, only two ``attractor`` sweeps.

Every transformation logs its steps in a ``ReductionReport`` keyed by
original node ids, so reduced solutions can be mapped back and the whole
reduction can be replayed for audit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain

import numpy as np

from .game import AVG, MAX, MIN, TERM, Game, attractor, require_stopping


class Polarity(Enum):
    """Which forced value a search looks for."""

    ONE = "one"
    ZERO = "zero"

    def escape(self, n: int) -> tuple[tuple[int], tuple[int]]:
        """``attractor``'s target and gated kinds for the nodes of an
        n-node game that can provably escape this value: for ``ONE``, the
        nodes that reach the 0-terminal, a max node only once both of its
        arcs do; for ``ZERO``, the 1-terminal, gated on min.  Every node
        outside that attractor is forced to the value."""
        return ((n - 1,), (MAX,)) if self is Polarity.ONE else ((n,), (MIN,))


@dataclass
class ReductionReport:
    """Audit log of one reduction run of an n-node game, in original
    node ids.

    ``events`` is the log: ``("merge", removed node, absorbed-into node,
    rule name)`` and ``("delete", node)`` in application order, so the
    run can be replayed exactly.  ``merges``, ``removed_zero_indegree``,
    ``constant_nodes`` (each node merged into a terminal, with that
    terminal's value) and ``renumbering`` (each surviving original id to
    its id in the reduced game) are views of it, computed on each read.
    """

    n: int
    events: list[tuple]

    @property
    def merges(self) -> list[tuple[int, int, str]]:
        return [e[1:] for e in self.events if e[0] == "merge"]

    @property
    def removed_zero_indegree(self) -> list[int]:
        return [e[1] for e in self.events if e[0] == "delete"]

    @property
    def constant_nodes(self) -> dict[int, Fraction]:
        t0 = self.n - 1  # terminals: n - 1 valued 0, n valued 1
        return {v: Fraction(w - t0) for v, w, _ in self.merges if w >= t0}

    @property
    def renumbering(self) -> dict[int, int]:
        removed = {e[1] for e in self.events}
        survivors = [i for i in range(1, self.n + 1) if i not in removed]
        return {old: new for new, old in enumerate(survivors, start=1)}

    def to_json(self) -> str:
        payload = {
            "merges": [[v, w, rule] for v, w, rule in self.merges],
            "removed_zero_indegree": list(self.removed_zero_indegree),
            "constant_nodes": {str(k): str(v) for k, v in self.constant_nodes.items()},
            "renumbering": {str(k): v for k, v in self.renumbering.items()},
        }
        return json.dumps(payload, separators=(",", ":")) + "\n"


class _Work:
    """Tombstone view of a game under reduction; ids stay original.

    ``live`` counts the alive non-terminals: ``merge`` and ``delete`` keep
    it, so the checks between rules cost O(1) and a whole reduction costs
    O(n) plus the work of the rules it fires.
    """

    def __init__(self, g: Game):
        self.n = g.n
        self.t0 = g.terminal0
        self.t1 = g.terminal1
        self.kinds = g.kinds
        self.code = g.code
        self.alive = [False] + [True] * g.n
        self.live = len(g.code) - g.code.count(TERM)
        self.arcs: list[list[int]] = [list(a) for a in g.arcs]
        self.parents: list[list[int]] = [list(p) for p in g.parents()]
        self.events: list[tuple] = []

    def alive_nonterminals(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if self.alive[i] and self.code[i] != TERM]

    def _require_live(self, v: int, what: str) -> None:
        if not (0 < v <= self.n and self.alive[v] and self.code[v] != TERM):
            raise ValueError(f"cannot {what} node {v}: not a live non-terminal of this game")

    def _unlink(self, v: int) -> list[int]:
        """Drop v's out-arcs and v itself; returns its old targets."""
        old_targets = self.arcs[v - 1]
        for t in old_targets:
            self.parents[t].remove(v)
        self.arcs[v - 1] = []
        self.alive[v] = False
        self.live -= 1
        return old_targets

    def merge(self, v: int, w: int, rule: str) -> tuple[list[int], list[int]]:
        """Redirect every arc into v toward w and drop v.

        Returns (old parents of v, old targets of v) so the caller can
        requeue the nodes whose local situation changed.
        """
        self._require_live(v, "merge")
        if v == w or not (0 < w <= self.n and self.alive[w]):
            raise ValueError(f"cannot merge node {v} into node {w}: not a live other node")
        old_targets = self._unlink(v)
        plist = self.parents[v]
        self.parents[v] = []
        self.parents[w].extend(plist)
        for u in set(plist):
            self.arcs[u - 1] = [w if t == v else t for t in self.arcs[u - 1]]
        self.events.append(("merge", v, w, rule))
        return plist, old_targets

    def delete(self, v: int) -> list[int]:
        """Remove an in-degree-zero node; returns its old targets."""
        self._require_live(v, "delete")
        if self.parents[v]:
            raise ValueError(f"cannot delete node {v}: it has parents {self.parents[v]}")
        self.events.append(("delete", v))
        return self._unlink(v)

    def _check_unreachable_terminal(self) -> bool:
        """Rule for a terminal with no incoming arcs: every other node's
        value equals the other terminal's, so everything collapses."""
        if not self.live:
            return False
        for unreachable, absorber in ((self.t0, self.t1), (self.t1, self.t0)):
            if not self.parents[unreachable]:
                for v in self.alive_nonterminals():
                    self.merge(v, absorber, "constant-collapse")
                return True
        return False

    def _trivial_step(self, v: int) -> tuple[list[int], list[int]] | None:
        """Apply the first matching local rule at v; None if none fits."""
        code = self.code[v]
        a, b = self.arcs[v - 1]
        if code == AVG:
            if a == b and a != v:
                return self.merge(v, a, "identical-arcs")
            if a == v and b != v:
                return self.merge(v, b, "self-arc")
            if b == v and a != v:
                return self.merge(v, a, "self-arc")
        else:
            keep, drop = (self.t1, self.t0) if code == MAX else (self.t0, self.t1)
            if a == keep or b == keep:
                return self.merge(v, keep, "terminal-arc")
            if a == drop and b != v:
                return self.merge(v, b, "terminal-arc")
            if b == drop and a != v:
                return self.merge(v, a, "terminal-arc")
            if a == b and a != v:
                return self.merge(v, a, "identical-arcs")
        if not self.parents[v]:
            return [], self.delete(v)
        return None

    def run_trivial(self) -> None:
        if self._check_unreachable_terminal():
            return
        pending = self.alive_nonterminals()
        queued = set(pending)
        # every queued node is alive: a step merges or deletes only v, and a collapse returns
        while pending:
            v = pending.pop()
            queued.discard(v)
            result = self._trivial_step(v)
            if result is None:
                continue
            old_parents, old_targets = result
            if self._check_unreachable_terminal():
                return
            for u in set(old_parents + old_targets):
                if self.alive[u] and self.code[u] != TERM and u not in queued:
                    pending.append(u)
                    queued.add(u)

    def forced(self, polarity: Polarity) -> list[int]:
        """The alive non-terminals whose value is forced to exactly 1 (or
        0), in id order; the search of ``find_terminal_valued`` run on
        this view."""
        via, _ = attractor(self.code, self.arcs, self.parents, *polarity.escape(self.n))
        return [v for v in self.alive_nonterminals() if not via[v]]

    def merge_forced(self) -> None:
        """Merge every forced-1 node into the 1-terminal, then every
        forced-0 node into the 0-terminal (both searched first)."""
        one = self.forced(Polarity.ONE)
        zero = self.forced(Polarity.ZERO)
        for v in one:
            self.merge(v, self.t1, "one-valued")
        for v in zero:
            self.merge(v, self.t0, "zero-valued")

    def materialize(self) -> tuple[Game, dict[int, int]]:
        survivors = [i for i in range(1, self.n + 1) if self.alive[i]]
        renumber = {old: new for new, old in enumerate(survivors, start=1)}
        kinds = tuple(self.kinds[i - 1] for i in survivors)
        arcs = tuple(tuple([renumber[t] for t in self.arcs[i - 1]]) for i in survivors)
        return Game(len(survivors), kinds, arcs), renumber

    def finish(self) -> tuple[Game, ReductionReport]:
        return self.materialize()[0], ReductionReport(self.n, self.events)


def apply_trivial_reductions(g: Game) -> tuple[Game, ReductionReport]:
    """Exhaustively apply the five constant-time rules to a fixpoint."""
    work = _Work(g)
    work.run_trivial()
    return work.finish()


def find_terminal_valued(g: Game, polarity: Polarity) -> frozenset[int]:
    """All nodes whose value is forced to exactly 1 (or exactly 0).

    For the 1-valued search, everything that can provably stay below 1 is
    the backward attractor of the 0-terminal: min and average parents of
    a below-1 node are below 1, a max parent only once both its children
    are.  The nodes outside it have value 1.  The 0-valued search is the
    mirror image, the attractor of the 1-terminal gated on min.  The
    matching terminal is always part of the returned set.
    """
    require_stopping(g, "terminal-valued search")
    via, _ = attractor(g.code, g.arcs, g.parents(), *polarity.escape(g.n))
    return frozenset(i for i in range(1, g.n + 1) if not via[i])


def merge_terminal_valued(g: Game) -> tuple[Game, ReductionReport]:
    """Merge every forced-1 node into the 1-terminal and every forced-0
    node into the 0-terminal, then renumber the survivors stably."""
    require_stopping(g, "terminal-valued search")
    work = _Work(g)
    work.merge_forced()
    return work.finish()


def reduce_game(g: Game) -> tuple[Game, ReductionReport]:
    """Full pipeline: trivial rules, terminal-valued merges (which can
    expose new trivial reductions), then trivial rules again.

    All three stages run on one work view of ``g``; the reduced game is
    materialized once, at the end.
    """
    require_stopping(g, "the reduction pipeline")
    work = _Work(g)
    work.run_trivial()
    if work.live:
        work.merge_forced()
        work.run_trivial()
    return work.finish()


def replay_reduction(g: Game, report: ReductionReport) -> Game:
    """Re-apply a report's events to the original game; used for audit."""
    work = _Work(g)
    for event in report.events:
        if event[0] == "merge":
            _, v, w, rule = event
            work.merge(v, w, rule)
        else:
            work.delete(event[1])
    return work.materialize()[0]


def recover_values(g: Game, report: ReductionReport, reduced_values: dict):
    """Map a reduced game's solution back onto every original node.

    ``reduced_values`` is keyed by reduced-game node id.  Merged nodes
    take their absorber's value; deleted in-degree-zero nodes are solved
    by their own local equation, walking the events backwards.
    """
    values: dict[int, Fraction] = {}
    for old, new in report.renumbering.items():
        values[old] = Fraction(reduced_values[new])
    absorber = {v: w for v, w, _ in report.merges}

    def value_of(x: int) -> Fraction:
        # Merging preserves values along the whole absorber chain, so any
        # link whose value is already recovered settles the entire chain.
        while x not in values:
            x = absorber[x]
        return values[x]

    for event in reversed(report.events):
        if event[0] == "merge":
            _, v, w, _rule = event
            values[v] = value_of(w)
        else:
            v = event[1]
            a, b = g.arcs_of(v)
            va, vb = value_of(a), value_of(b)
            code = g.code[v]
            if code == MAX:
                values[v] = max(va, vb)
            elif code == MIN:
                values[v] = min(va, vb)
            else:
                values[v] = (va + vb) / 2
    return values


def scc_condense(g) -> list[frozenset[int]]:
    """Non-terminal strongly connected components, sinks first.

    ``g`` is a ``Game`` or a complete ``PartialGame``.  SciPy's strong
    components (Pearce's variant of Tarjan's depth-first search), imported
    on the first call so that ``import stopgames`` loads no SciPy, number
    each component as it completes, and completion order is reverse
    topological: label 0 is a sink.  SciPy does not document that order;
    the sinks-first tests guard it.  So every component's out-arcs lead
    only to terminals or to components earlier in the list, and solving
    them left to right needs no lookahead.  Terminals have no out-arcs,
    so they are singletons of their own and are left out.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    code, arcs = g.code, g.arcs
    indptr = np.cumsum([0, 0] + [len(a) for a in arcs])  # row 0 is empty
    heads = np.fromiter(chain.from_iterable(arcs), np.int32, indptr[-1])
    graph = csr_matrix((np.ones(len(heads)), heads, indptr), shape=(g.n + 1, g.n + 1))
    # a repeated arc sends SciPy's strong components into an endless loop
    graph.sum_duplicates()
    count, labels = connected_components(graph, directed=True, connection="strong")
    buckets: list[list[int]] = [[] for _ in range(count)]
    for v, label in enumerate(labels.tolist()):
        if code[v] != TERM:
            buckets[label].append(v)
    return [frozenset(b) for b in buckets if b]


def _one_component(code, arcs, parents) -> bool:
    """Whether the non-terminals form one strongly connected component
    with a cycle in it: at least two nodes, or one with a self-arc.

    A forward and a backward sweep from the first non-terminal both reach
    every non-terminal exactly when all of them share its component
    (Sharir 1981).  Each is one ``attractor`` with no gated kind, which
    then reads only the lists it walks: ``parents`` backward, the arc
    lists by node id forward.  Terminals have no out-arcs, so no path
    between non-terminals passes one; only the forward sweep reaches
    them, and only non-terminals are counted.
    """
    term = bytes(c == TERM for c in code)  # entry 0 reads TERM
    live = len(term) - sum(term)
    start = term.find(0)
    if live < 2:
        return live == 1 and start in arcs[start - 1]
    for walk in ((None, *arcs), parents):
        order = attractor(code, arcs, walk, (start,), ())[1]
        if len(order) - sum(term[v] for v in order) < live:
            return False
    return True


@dataclass(frozen=True)
class AssumptionChecklist:
    """The six facts a fully reduced instance must satisfy, plus the
    strict single-component form the benchmark generator filters on.

    The paper's seventh item, a single SCC or only the two terminal
    constants, always holds here: the instance format admits no constant
    nodes beyond the two terminals (``game_from_json`` rejects a third).
    """

    stopping: bool
    no_terminal_decision_arcs: bool
    no_duplicate_or_self_arcs: bool
    no_zero_indegree: bool
    terminal_adjacent_average_pair: bool
    no_solved_nodes: bool
    single_nonterminal_scc: bool

    @property
    def fully_reduced(self) -> bool:
        return all(ok for _, ok in self.items())

    def items(self) -> list[tuple[str, bool]]:
        return [
            ("stopping", self.stopping),
            ("no max/min arcs to terminals", self.no_terminal_decision_arcs),
            ("no duplicate or self arcs", self.no_duplicate_or_self_arcs),
            ("no in-degree-zero nodes", self.no_zero_indegree),
            ("average nodes adjacent to both terminals", self.terminal_adjacent_average_pair),
            ("no forced 0/1-valued nodes", self.no_solved_nodes),
        ]


def check_assumptions(g) -> AssumptionChecklist:
    """Evaluate the full reduction checklist on a well-formed game.

    ``g`` is a ``Game`` or a complete ``PartialGame``, whose ``stopping``
    is checked afresh: the fully reduced generator checks each attempt's
    partial game and freezes only the one it accepts.
    ``single_nonterminal_scc`` comes from ``_one_component``, two O(n)
    ``attractor`` sweeps, not from ``scc_condense``, so the checklist
    loads no SciPy.
    """
    t0, t1 = g.terminal0, g.terminal1
    stopping = g.stopping

    code, arcs = g.code, g.arcs
    no_term_dec = True
    no_dup_self = True
    to_t0: set[int] = set()
    to_t1: set[int] = set()
    for i in range(1, g.n + 1):
        c = code[i]
        if c == TERM:
            continue
        a, b = arcs[i - 1]
        if a == b or a == i or b == i:
            no_dup_self = False
        if c != AVG:
            if a in (t0, t1) or b in (t0, t1):
                no_term_dec = False
        else:
            if t0 in (a, b):
                to_t0.add(i)
            if t1 in (a, b):
                to_t1.add(i)
    parents = g.parents()
    no_zero_indegree = all(parents[1:])
    adjacent_pair = bool(to_t0) and bool(to_t1) and len(to_t0 | to_t1) >= 2

    # outside the attractor: entry 0, the matching terminal and forced nodes
    no_solved = stopping and all(
        attractor(code, arcs, parents, *polarity.escape(g.n))[0].count(0) == 2 for polarity in Polarity
    )

    return AssumptionChecklist(
        stopping=stopping,
        no_terminal_decision_arcs=no_term_dec,
        no_duplicate_or_self_arcs=no_dup_self,
        no_zero_indegree=no_zero_indegree,
        terminal_adjacent_average_pair=adjacent_pair,
        no_solved_nodes=no_solved,
        single_nonterminal_scc=_one_component(code, arcs, parents),
    )
