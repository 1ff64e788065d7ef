"""Polynomial-time reductions for stopping games.

Five local rules remove subgraphs whose values follow in constant time
from the rest of the game (decision arcs into terminals, duplicate arcs,
average self-arcs, in-degree-zero nodes, and the all-constant collapse
when a terminal is unreachable).  A linear propagation finds every node
whose value is forced to exactly 1 or exactly 0 so it can be merged into
its terminal, and a Tarjan pass splits the game into strongly connected
components that can be solved independently.  ``check_assumptions``
bundles the whole checklist a fully reduced benchmark instance must
satisfy.

Every transformation logs its steps in a ``ReductionReport`` keyed by
original node ids, so reduced solutions can be mapped back and the whole
reduction can be replayed for audit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .game import TERM, Game, NodeKind, require_stopping, stopping_game


class Polarity(Enum):
    ONE = "one"
    ZERO = "zero"


@dataclass
class ReductionReport:
    """Audit log of one reduction run, in original node ids.

    ``events`` is the log: ``("merge", removed node, absorbed-into node,
    rule name)`` and ``("delete", node)`` in application order, so the
    run can be replayed exactly.  ``merges`` and ``removed_zero_indegree``
    are views of it.  ``renumbering`` maps surviving original ids to their
    ids in the reduced game.
    """

    constant_nodes: dict[int, Fraction]
    renumbering: dict[int, int]
    events: list[tuple]

    @property
    def merges(self) -> list[tuple[int, int, str]]:
        return [e[1:] for e in self.events if e[0] == "merge"]

    @property
    def removed_zero_indegree(self) -> list[int]:
        return [e[1] for e in self.events if e[0] == "delete"]

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

    ``stopping`` says the original game is known to be stopping; the rules
    keep it so, and the games materialized from it are built stopping.
    """

    def __init__(self, g: Game, stopping: bool = False):
        self.stopping = stopping
        self.n = g.n
        self.t0 = g.terminal0
        self.t1 = g.terminal1
        self.kinds = list(g.kinds)
        self.code = g.code
        self.alive = [False] + [True] * g.n
        self.arcs: list[list[int]] = [list(g.arcs_of(i)) for i in range(1, g.n + 1)]
        self.parents: list[list[int]] = [list(p) for p in g.parents()]
        self.constants: dict[int, Fraction] = {}
        self.events: list[tuple] = []

    def kind(self, i: int) -> NodeKind:
        return self.kinds[i - 1]

    def indegree(self, i: int) -> int:
        return len(self.parents[i])

    def alive_nonterminals(self) -> list[int]:
        return [
            i
            for i in range(1, self.n + 1)
            if self.alive[i] and self.code[i] != TERM
        ]

    def merge(self, v: int, w: int, rule: str) -> tuple[list[int], list[int]]:
        """Redirect every arc into v toward w and drop v.

        Returns (old parents of v, old targets of v) so the caller can
        requeue the nodes whose local situation changed.
        """
        assert v != w and self.alive[v] and self.alive[w]
        old_targets = list(self.arcs[v - 1])
        for t in old_targets:
            self.parents[t].remove(v)
        self.arcs[v - 1] = []
        plist = self.parents[v]
        self.parents[v] = []
        self.parents[w].extend(plist)
        for u in set(plist):
            self.arcs[u - 1] = [w if t == v else t for t in self.arcs[u - 1]]
        self.alive[v] = False
        self.events.append(("merge", v, w, rule))
        if self.kind(w).is_terminal:
            self.constants[v] = Fraction(1) if w == self.t1 else Fraction(0)
        return plist, old_targets

    def delete(self, v: int) -> list[int]:
        """Remove an in-degree-zero node; returns its old targets."""
        assert self.alive[v] and not self.parents[v]
        old_targets = list(self.arcs[v - 1])
        for t in old_targets:
            self.parents[t].remove(v)
        self.arcs[v - 1] = []
        self.alive[v] = False
        self.events.append(("delete", v))
        return old_targets

    def _collapse_all(self, absorber: int) -> None:
        for v in self.alive_nonterminals():
            self.merge(v, absorber, "constant-collapse")

    def _check_unreachable_terminal(self) -> bool:
        """Rule for a terminal with no incoming arcs: every other node's
        value equals the other terminal's, so everything collapses."""
        if not self.alive_nonterminals():
            return False
        if self.indegree(self.t0) == 0:
            self._collapse_all(self.t1)
            return True
        if self.indegree(self.t1) == 0:
            self._collapse_all(self.t0)
            return True
        return False

    def _trivial_step(self, v: int) -> tuple[list[int], list[int]] | None:
        """Apply the first matching local rule at v; None if none fits."""
        kind = self.kind(v)
        a, b = self.arcs[v - 1]
        if kind.is_decision:
            keep = self.t1 if kind is NodeKind.MAX else self.t0
            drop = self.t0 if kind is NodeKind.MAX else self.t1
            if a == keep or b == keep:
                return self.merge(v, keep, "terminal-arc")
            if a == drop and b != v:
                return self.merge(v, b, "terminal-arc")
            if b == drop and a != v:
                return self.merge(v, a, "terminal-arc")
            if a == b and a != v:
                return self.merge(v, a, "identical-arcs")
        else:
            if a == b and a != v:
                return self.merge(v, a, "identical-arcs")
            if a == v and b != v:
                return self.merge(v, b, "self-arc")
            if b == v and a != v:
                return self.merge(v, a, "self-arc")
        if not self.parents[v]:
            return None, self.delete(v)
        return None

    def run_trivial(self) -> None:
        if self._check_unreachable_terminal():
            return
        pending = self.alive_nonterminals()
        queued = set(pending)
        while pending:
            v = pending.pop()
            queued.discard(v)
            if not self.alive[v]:
                continue
            result = self._trivial_step(v)
            if result is None:
                continue
            old_parents, old_targets = result
            if self._check_unreachable_terminal():
                return
            for u in set((old_parents or []) + old_targets):
                if self.alive[u] and self.code[u] != TERM and u not in queued:
                    pending.append(u)
                    queued.add(u)

    def materialize(self) -> tuple[Game, dict[int, int]]:
        survivors = [i for i in range(1, self.n + 1) if self.alive[i]]
        renumber = {old: new for new, old in enumerate(survivors, start=1)}
        kinds = tuple(self.kinds[i - 1] for i in survivors)
        arcs = tuple(
            tuple(renumber[t] for t in self.arcs[i - 1]) for i in survivors
        )
        make = stopping_game if self.stopping else Game
        return make(len(survivors), kinds, arcs), renumber

    def finish(self) -> tuple[Game, ReductionReport]:
        game, renumber = self.materialize()
        report = ReductionReport(
            constant_nodes=self.constants,
            renumbering=renumber,
            events=self.events,
        )
        return game, report


def apply_trivial_reductions(g: Game) -> tuple[Game, ReductionReport]:
    """Exhaustively apply the five constant-time rules to a fixpoint."""
    work = _Work(g)
    work.run_trivial()
    return work.finish()


def _terminal_valued(g: Game, polarity: Polarity) -> tuple[frozenset[int], int]:
    require_stopping(g, "terminal-valued search")
    n = g.n
    if polarity is Polarity.ONE:
        seed = g.terminal0
        immediate = (NodeKind.MIN, NodeKind.AVERAGE)
        gated = NodeKind.MAX
    else:
        seed = g.terminal1
        immediate = (NodeKind.MAX, NodeKind.AVERAGE)
        gated = NodeKind.MIN
    marked = [False] * (n + 1)
    marked[seed] = True
    parents = g.parents()
    queue = [seed]
    examined = 0
    while queue:
        u = queue.pop()
        for p in parents[u]:
            examined += 1
            if marked[p]:
                continue
            kind = g.kind(p)
            if kind in immediate:
                marked[p] = True
                queue.append(p)
            elif kind is gated:
                a, b = g.arcs_of(p)
                if marked[a] and marked[b]:
                    marked[p] = True
                    queue.append(p)
    members = frozenset(i for i in range(1, n + 1) if not marked[i])
    return members, examined


def find_terminal_valued(g: Game, polarity: Polarity) -> frozenset[int]:
    """All nodes whose value is forced to exactly 1 (or exactly 0).

    For the 1-valued search, everything that can provably stay below 1 is
    marked by propagating from the 0-terminal: min and average parents of
    a below-1 node are below 1, a max parent only once both its children
    are.  Unmarked nodes have value 1.  The 0-valued search is the mirror
    image, propagating above-0 from the 1-terminal.  The matching
    terminal is always part of the returned set.
    """
    return _terminal_valued(g, polarity)[0]


def find_terminal_valued_with_stats(
    g: Game, polarity: Polarity
) -> tuple[frozenset[int], int]:
    """Same, plus the number of parent examinations (at most 2n)."""
    return _terminal_valued(g, polarity)


def merge_terminal_valued(g: Game) -> tuple[Game, ReductionReport]:
    """Merge every forced-1 node into the 1-terminal and every forced-0
    node into the 0-terminal, then renumber the survivors stably."""
    one = find_terminal_valued(g, Polarity.ONE)
    zero = find_terminal_valued(g, Polarity.ZERO)
    work = _Work(g, stopping=True)
    for v in sorted(one - {g.terminal1}):
        work.merge(v, g.terminal1, "one-valued")
    for v in sorted(zero - {g.terminal0}):
        work.merge(v, g.terminal0, "zero-valued")
    return work.finish()


def reduce_game(g: Game) -> tuple[Game, ReductionReport]:
    """Full pipeline: trivial rules, terminal-valued merges (which can
    expose new trivial reductions), then trivial rules again."""
    require_stopping(g, "the reduction pipeline")
    work = _Work(g, stopping=True)
    work.run_trivial()
    snap, renumber = work.materialize()
    if snap.n > 2:
        back = {new: old for old, new in renumber.items()}
        one = find_terminal_valued(snap, Polarity.ONE)
        zero = find_terminal_valued(snap, Polarity.ZERO)
        for v in sorted(one - {snap.terminal1}):
            work.merge(back[v], work.t1, "one-valued")
        for v in sorted(zero - {snap.terminal0}):
            work.merge(back[v], work.t0, "zero-valued")
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
            kind = g.kind(v)
            if kind is NodeKind.MAX:
                values[v] = max(va, vb)
            elif kind is NodeKind.MIN:
                values[v] = min(va, vb)
            else:
                values[v] = (va + vb) / 2
    return values


@dataclass(frozen=True)
class SccComponent:
    """One strongly connected component of the non-terminal graph.

    ``boundary`` lists the arcs (source, arc index, target) that leave
    the component; their targets carry already-known values when the
    component is solved on its own.
    """

    nodes: frozenset[int]
    boundary: tuple[tuple[int, int, int], ...]


def scc_condense(g: Game) -> list[SccComponent]:
    """Non-terminal strongly connected components, sinks first.

    Components are emitted in reverse topological order, so every
    component's out-arcs lead only to terminals or to components earlier
    in the list; solving them left to right needs no lookahead.
    """
    n = g.n
    sys_index = {}
    low = {}
    onstack = [False] * (n + 1)
    stack: list[int] = []
    counter = 0
    comps: list[list[int]] = []

    def neighbours(v: int) -> list[int]:
        return [t for t in g.arcs_of(v) if not g.kind(t).is_terminal]

    for root in range(1, n + 1):
        if g.kind(root).is_terminal or root in sys_index:
            continue
        work: list[list] = [[root, 0]]
        sys_index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        while work:
            v, ptr = work[-1]
            outs = neighbours(v)
            advanced = False
            while ptr < len(outs):
                w = outs[ptr]
                ptr += 1
                if w not in sys_index:
                    work[-1][1] = ptr
                    sys_index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append([w, 0])
                    advanced = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], sys_index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == sys_index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    out = []
    comp_of = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = idx
    for idx, comp in enumerate(comps):
        boundary = []
        for v in sorted(comp):
            for arc_idx, t in enumerate(g.arcs_of(v)):
                if g.kind(t).is_terminal or comp_of[t] != idx:
                    boundary.append((v, arc_idx, t))
        out.append(SccComponent(frozenset(comp), tuple(boundary)))
    return out


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
        return (
            self.stopping
            and self.no_terminal_decision_arcs
            and self.no_duplicate_or_self_arcs
            and self.no_zero_indegree
            and self.terminal_adjacent_average_pair
            and self.no_solved_nodes
        )

    def items(self) -> list[tuple[str, bool]]:
        return [
            ("stopping", self.stopping),
            ("no max/min arcs to terminals", self.no_terminal_decision_arcs),
            ("no duplicate or self arcs", self.no_duplicate_or_self_arcs),
            ("no in-degree-zero nodes", self.no_zero_indegree),
            ("average nodes adjacent to both terminals", self.terminal_adjacent_average_pair),
            ("no forced 0/1-valued nodes", self.no_solved_nodes),
        ]


def check_assumptions(g: Game) -> AssumptionChecklist:
    """Evaluate the full reduction checklist on a well-formed game."""
    t0, t1 = g.terminal0, g.terminal1
    stopping = g.stopping

    no_term_dec = True
    no_dup_self = True
    to_t0: set[int] = set()
    to_t1: set[int] = set()
    indeg = [0] * (g.n + 1)
    for i in range(1, g.n + 1):
        kind = g.kind(i)
        if kind.is_terminal:
            continue
        a, b = g.arcs_of(i)
        indeg[a] += 1
        indeg[b] += 1
        if kind.is_decision and (a in (t0, t1) or b in (t0, t1)):
            no_term_dec = False
        if a == b or a == i or b == i:
            no_dup_self = False
        if kind is NodeKind.AVERAGE:
            if t0 in (a, b):
                to_t0.add(i)
            if t1 in (a, b):
                to_t1.add(i)
    no_zero_indegree = all(indeg[i] > 0 for i in range(1, g.n + 1))
    adjacent_pair = bool(to_t0) and bool(to_t1) and len(to_t0 | to_t1) >= 2

    if stopping:
        one = find_terminal_valued(g, Polarity.ONE)
        zero = find_terminal_valued(g, Polarity.ZERO)
        no_solved = one == frozenset({t1}) and zero == frozenset({t0})
    else:
        no_solved = False

    comps = scc_condense(g)
    single = False
    if len(comps) == 1:
        nodes = comps[0].nodes
        single = len(nodes) >= 2 or any(
            v in g.arcs_of(v) for v in nodes
        )

    return AssumptionChecklist(
        stopping=stopping,
        no_terminal_decision_arcs=no_term_dec,
        no_duplicate_or_self_arcs=no_dup_self,
        no_zero_indegree=no_zero_indegree,
        terminal_adjacent_average_pair=adjacent_pair,
        no_solved_nodes=no_solved,
        single_nonterminal_scc=single,
    )
