"""Random stopping-game generators.

Both variants build a game in two phases.  Phase 1 numbers the nodes and
gives every non-terminal a first arc to a strictly higher-numbered node,
which already guarantees a path to a terminal.  Phase 2 hands out second
arcs: average nodes may point anywhere, while each max/min node picks
uniformly among the targets that provably cannot close a player-
controlled terminal-free trap (the valid arcs; ``find_valid_arcs``
lists them as a set).  The result is always a stopping game, and any
stopping game without max/min arcs to terminals can be produced under
some seed.

Valid targets come from a witness index (``_WitnessIndex``) over the
partial game, which must have an empty bad core; the phase-1 game has
one, and every arc the loop adds keeps it so.  The index starts from
``game.safety``, the same backward attractor whose complement is the bad
core: it records one well-founded derivation of every node's safety,
i.e. of its inability to sit in a player-controlled terminal-free set.
Terminals, averages with fewer than two arcs and max/min nodes without
arcs are safe outright, an average through one arc to a node whose
derivation avoids it (its witness, the node it joined the attractor
through), a max/min node through all of its arcs.  The nodes whose
derivation passes through a node m form m's dependency region; only
inside it can an arc out of m trap a node, so the search and the
witness updates after each added arc touch that region alone (delete and
rederive, as in Gupta, Mumick & Subrahmanian, "Maintaining views
incrementally", SIGMOD 1993), never all of m's ancestors.  The search
builds no set: it leaves one mark per node.  Every phase-2 pick is one
``_draw``, a uniform element of an ascending pool minus a few of its
elements; a max/min node's pool is the unmarked in-degree-zero nodes,
or the unmarked non-terminals from one NumPy pass over the marks.

The modified variant additionally plants average nodes next to both
terminals, keeps max/min arcs off the terminals, steers second arcs
toward in-degree-zero nodes, and merges provably 0/1-valued nodes into
the terminals, so that its output usually satisfies the full reduction
checklist out of the box.  The fully reduced generator skips the merge:
it runs the checklist on each attempt's partial game, which fails when a
node is forced to 0 or 1, and freezes only the attempt it accepts.

Draw order (fixed for reproducibility): kind labels are shuffled first;
first arcs are drawn in ascending node order; each phase-2 loop picks the
pending node by index, then its target.  All randomness comes from the
package's SplitMix64 stream seeded per attempt with ``derive_seed``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .game import AVG, MAX, MIN, Game, NodeKind, PartialGame, safety
from .reduce import check_assumptions, merge_terminal_valued
from .rng import Rng, derive_seed

# Attempts ``generate_fully_reduced`` makes before it gives up.
RETRY_CAP = 10000


class GenerationError(RuntimeError):
    pass


class Variant(Enum):
    BASIC = "basic"
    MODIFIED = "modified"


@dataclass(frozen=True)
class GenParams:
    """Node budget for one generation run: n = a + b + c + 2."""

    n: int
    a: int  # average nodes
    b: int  # min nodes
    c: int  # max nodes
    seed: int
    variant: Variant = Variant.BASIC

    def __post_init__(self):
        if self.n != self.a + self.b + self.c + 2:
            raise ValueError(f"n={self.n} is not a+b+c+2")
        min_a = 2 if self.variant is Variant.MODIFIED else 1
        if self.a < min_a or self.b < 1 or self.c < 1:
            raise ValueError(
                f"{self.variant.value} generation needs a>={min_a}, b,c>=1"
            )


@dataclass(frozen=True)
class RatioSpec:
    """Benchmark cell: target node count and average:max ratio num/4."""

    size: int
    ratio_num: int

    def __post_init__(self):
        if not 1 <= self.ratio_num <= 8:
            raise ValueError("ratio numerator must be in 1..8")
        if self.size < 6:
            raise ValueError("size must be at least 6")


def ratio_counts(size: int, ratio_num: int) -> tuple[int, int, int]:
    """Node counts (a, b, c) realizing ratio a:c = ratio_num:4 with b = c.

    The max count follows from the size, the average count from the exact
    ratio, so totals may drift one or two nodes from the label; realized
    counts are recorded in instance metadata.
    """
    c = round(4 * (size - 2) / (ratio_num + 8))
    c = max(c, 1)
    a = max(2, round(ratio_num * c / 4))
    return a, c, c


@dataclass(frozen=True)
class GenMeta:
    """Sidecar metadata for one generated instance."""

    seed: int
    variant: str
    a: int
    b: int
    c: int
    retries: int
    realized_n: int

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "variant": self.variant,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "retries": self.retries,
            "realized": {"n": self.realized_n},
        }


class _WitnessIndex:
    """One derivation of safety for every node of a partial game with an
    empty bad core, kept well-founded while max/min arcs are added through
    ``add_arc``.

    ``witness`` starts as ``game.safety(g)``: ``witness[v]`` is, for an
    average v with two arcs, one of its arcs whose derivation does not
    pass through v; a max/min node's derivation uses all of its arcs
    (module docstring), so its entry is never read.  Kind codes, arc and
    parent lists are the game's own, read live; parents are never
    terminals, so a parent that is not an average is a max/min node.

    ``marks`` holds the answer of the last ``trapped(m)``, one byte per
    node id: 1 for a trapped node, 2 for a freed one (in m's region, not
    trapped), 0 outside m's region; ``region`` lists m's region.
    """

    def __init__(self, g):
        n = g.n
        self.game = g
        self.arcs = g.arcs
        self.parents = g.parents()
        self.code = g.code
        self.witness = safety(g)
        if 0 in self.witness[1:]:
            raise ValueError(
                f"partial game has a non-empty bad core (node {self.witness.index(0, 1)} can avoid the terminals)"
            )
        self.marks = bytearray(n + 1)
        self.region = []
        self.new_witness = {}  # freed average -> its witness, from the last ``trapped``

    def trapped(self, m: int) -> int:
        """Mark the nodes that an added arc out of max/min node m could
        trap, those with no derivation of safety that avoids m (m
        included), and return their count.

        One upward walk collects m's region, the nodes whose derivation
        passes through m (every max/min parent of a region node, an
        average only through its witness).  Averages with an arc out of
        the region are freed, and freedom spreads upward inside it, one
        freed node per turn, first freed first: an average is freed by
        its first freed child, which becomes its new witness, and a
        max/min node once none of its arcs leads to a node marked 1 (in
        the region, not freed) or 3 (freed, its turn still to come); the
        rest is trapped.  The new witnesses are kept for ``add_arc``.
        ``marks`` stays valid until the next call, which clears the last
        region's marks, so a call touches that region and its own alone.
        """
        code, arcs, parents, witness = self.code, self.arcs, self.parents, self.witness
        marks = self.marks
        for v in self.region:
            marks[v] = 0
        marks[m] = 1
        region = self.region = [m]
        averages = []
        for u in region:
            for par in parents[u]:
                if marks[par]:
                    continue
                if code[par] != AVG:
                    marks[par] = 1
                    region.append(par)
                elif witness[par] == u:
                    marks[par] = 1
                    region.append(par)
                    averages.append(par)
        new = self.new_witness = {}
        for v in averages:
            a, b = arcs[v - 1]
            if not (marks[a] and marks[b]):
                new[v] = b if marks[a] else a
                marks[v] = 3
        freed = list(new)
        for u in freed:
            marks[u] = 2
            for par in parents[u]:
                if marks[par] != 1:
                    continue
                if code[par] == AVG:
                    new[par] = u
                else:
                    out = arcs[par - 1]  # one or two arcs
                    if marks[out[0]] & 1 or marks[out[-1]] & 1:
                        continue
                marks[par] = 3
                freed.append(par)
        return len(region) - len(freed)

    def add_arc(self, m: int, q: int) -> None:
        """Add arc (m, q): ``trapped(m)`` is the last ``trapped`` call,
        and q is not trapped by it.

        Only a q in m's region has a derivation through m, which the new
        arc would close into a cycle; then every freed node takes the
        derivation found for it by ``trapped(m)``, which avoids m.
        """
        self.game.add_arc(m, q)
        if self.marks[q]:
            witness = self.witness
            for v, w in self.new_witness.items():
                witness[v] = w


def find_valid_arcs(g, m: int) -> set[int]:
    """Targets q such that adding arc (m, q) cannot create a trap.

    ``g`` must be a partial game with an empty bad core, the generator's
    invariant; otherwise ``ValueError``.  ``m`` must be a max or min node
    with exactly one out-arc.  A target is valid unless
    ``_WitnessIndex.trapped`` marks it trapped: the nodes that, with m
    unsafe, have no derivation of safety (an average node with a missing
    arc or an arc to a safe node, a max/min node whose every present arc
    leads to one).  Terminals are always valid targets and are left in the
    result; generators strip them.

    The set is built from the marks, for callers outside the generator;
    it excludes m and m's current target.
    """
    if not g.kind(m).is_decision:
        raise ValueError(f"node {m} is not a max or min node")
    out_m = g.arcs_of(m)
    if len(out_m) != 1:
        raise ValueError(f"node {m} must have exactly one out-arc, has {len(out_m)}")
    index = _WitnessIndex(g)
    index.trapped(m)
    marks = index.marks
    return {q for q in range(1, g.n + 1) if marks[q] != 1 and q != out_m[0]}


def _draw(rng: Rng, pool, skip) -> int | None:
    """Uniform element of the ascending sequence ``pool`` other than the
    ascending elements ``skip`` of it, with one ``randbelow`` call; None,
    without a call, when nothing is left."""
    count = len(pool) - len(skip)
    if not count:
        return None
    x = rng.randbelow(count)
    for s in skip:
        if pool[x] < s:
            break
        x += 1
    return pool[x]


def _second_arcs(pg: PartialGame, rng: Rng, prefer_zero_indegree: bool) -> PartialGame | None:
    """Phase 2: every node with one arc gets its second, the averages
    first, then the max/min nodes; None at a dead end.

    An average m may point anywhere but at m and its first target.  A
    max/min node m draws among the nodes ``trapped(m)`` leaves unmarked,
    minus m's current target and the terminals: first among the
    in-degree-zero nodes if ``prefer_zero_indegree``, which are never a
    target or a terminal (the modified builder feeds both terminals).
    """
    n, code, arcs = pg.n, pg.code, pg.arcs
    pending = [m for m in range(1, n + 1) if code[m] == AVG and len(arcs[m - 1]) == 1]
    while pending:
        m = pending.pop(rng.randbelow(len(pending)))
        # m below its first target: first arcs point higher
        pg.add_arc(m, _draw(rng, range(1, n + 1), (m, arcs[m - 1][0])))

    pending = [m for m in range(1, n + 1) if code[m] in (MAX, MIN) and len(arcs[m - 1]) == 1]
    index = _WitnessIndex(pg)
    marks, parents = index.marks, index.parents
    view = np.frombuffer(marks, np.uint8, n - 2, 1)  # the non-terminals' marks, node i at i - 1
    zero = [q for q in range(1, n + 1) if not parents[q]]
    while pending:
        m = pending.pop(rng.randbelow(len(pending)))
        index.trapped(m)
        q = _draw(rng, [q for q in zero if marks[q] != 1], ()) if prefer_zero_indegree else None
        if q is None:
            p = arcs[m - 1][0]
            q = _draw(rng, (view != 1).nonzero()[0], (p - 1,) if p <= n - 2 and marks[p] != 1 else ())
            if q is None:
                return None
            q = int(q) + 1
        if not parents[q]:
            del zero[bisect_left(zero, q)]
        index.add_arc(m, q)
    return pg


def _labelled(p: GenParams, rng: Rng, planted: int) -> PartialGame:
    """The arc-free partial game: the shuffled kind labels on the first
    nodes, then ``planted`` averages just below the two terminals."""
    labels = [NodeKind.AVERAGE] * (p.a - planted) + [NodeKind.MIN] * p.b + [NodeKind.MAX] * p.c
    rng.shuffle(labels)
    return PartialGame(labels + [NodeKind.AVERAGE] * planted + [NodeKind.TERMINAL0, NodeKind.TERMINAL1])


def _build_basic(p: GenParams, rng: Rng) -> PartialGame | None:
    n = p.n
    pg = _labelled(p, rng, 1)
    for v in range(1, n - 1):
        pg.add_arc(v, v + 1 + rng.randbelow(n - v))
    return _second_arcs(pg, rng, prefer_zero_indegree=False)


def _first_build(build, p: GenParams) -> PartialGame:
    """The first of 256 sub-attempts of ``build`` that does not dead-end.

    A tiny fraction of attempts can dead-end when the only valid second
    arc left for some max/min node is its own current target; those
    attempts restart on a derived sub-seed, keeping generation a pure map
    from parameters to a game.  Every arc the builders add is a valid
    one, so the result is complete and its bad core empty: stopping.
    """
    for attempt in range(256):
        pg = build(p, Rng(derive_seed(p.seed, attempt)))
        if pg is not None:
            return pg
    raise GenerationError(f"{p.variant.value} generation dead-ended 256 times (seed {p.seed})")


def generate_basic(p: GenParams) -> Game:
    """Basic generator; deterministic in ``p.seed``."""
    if p.variant is not Variant.BASIC:
        raise ValueError("generate_basic needs variant=Variant.BASIC")
    return _first_build(_build_basic, p).freeze()


def _build_modified(p: GenParams, rng: Rng) -> PartialGame | None:
    n = p.n
    pg = _labelled(p, rng, 2)
    pg.add_arc(n - 2, n - 1)  # terminal-adjacent average feeding the 0-terminal
    pg.add_arc(n - 3, n)  # and its 1-terminal twin

    code, arcs = pg.code, pg.arcs
    for v in range(1, n - 1):
        if code[v] == AVG:
            if not arcs[v - 1]:
                pg.add_arc(v, v + 1 + rng.randbelow(n - v))
        else:
            # max/min first arcs stay off the terminals
            pg.add_arc(v, v + 1 + rng.randbelow(n - 2 - v))

    parents = pg.parents()
    zero = [q for q in range(1, n + 1) if not parents[q]]
    single = [m for m in range(1, n + 1) if code[m] == AVG and len(arcs[m - 1]) == 1]
    r = rng.randint(max(len(zero) - (p.b + p.c), 0), min(p.a, len(zero)))
    for _ in range(r):
        # eligible while an in-degree-zero node other than m is left (m's
        # target has m's arc, so it is never one)
        eligible = single if len(zero) > 1 else [m for m in single if set(zero) - {m}]
        if not eligible:
            break
        m = eligible[rng.randbelow(len(eligible))]
        q = _draw(rng, zero, (m,) if not parents[m] else ())
        pg.add_arc(m, q)
        del zero[bisect_left(zero, q)]
        del single[bisect_left(single, m)]
    return _second_arcs(pg, rng, prefer_zero_indegree=True)


def generate_reduced(p: GenParams, merge: bool = True) -> Game:
    """Modified generator; merges 0/1-valued nodes unless ``merge=False``."""
    if p.variant is not Variant.MODIFIED:
        raise ValueError("generate_reduced needs variant=Variant.MODIFIED")
    g = _first_build(_build_modified, p).freeze()
    return merge_terminal_valued(g)[0] if merge else g


def generate_fully_reduced(spec: RatioSpec, seed: int) -> tuple[Game, GenMeta]:
    """Generate until an instance satisfies the whole reduction checklist
    (including the single-component form), within ``RETRY_CAP`` attempts;
    returns it with its metadata.

    Each attempt is the modified generator's partial game, checked before
    it is frozen.  A node forced to 0 or 1, which the 0/1-valued merge of
    ``generate_reduced`` would remove, fails the checklist, so the
    returned game always has the a + b + c + 2 nodes its metadata records.
    """
    a, b, c = ratio_counts(spec.size, spec.ratio_num)
    for k in range(RETRY_CAP):
        params = GenParams(
            n=a + b + c + 2,
            a=a,
            b=b,
            c=c,
            seed=derive_seed(seed, k),
            variant=Variant.MODIFIED,
        )
        pg = _first_build(_build_modified, params)
        checklist = check_assumptions(pg)
        if checklist.fully_reduced and checklist.single_nonterminal_scc:
            meta = GenMeta(
                seed=seed,
                variant=Variant.MODIFIED.value,
                a=a,
                b=b,
                c=c,
                retries=k,
                realized_n=pg.n,
            )
            return pg.freeze(), meta
    raise GenerationError(
        f"no fully reduced instance within {RETRY_CAP} attempts "
        f"(size {spec.size}, ratio {spec.ratio_num}:4, seed {seed})"
    )
