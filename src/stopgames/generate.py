"""Random stopping-game generators.

Both variants build a game in two phases.  Phase 1 numbers the nodes and
gives every non-terminal a first arc to a strictly higher-numbered node,
which already guarantees a path to a terminal.  Phase 2 hands out second
arcs: average nodes may point anywhere, while each max/min node picks
uniformly from the set of targets that provably cannot close a player-
controlled terminal-free trap (``find_valid_arcs``).  The result is
always a stopping game, and any stopping game without max/min arcs to
terminals can be produced under some seed.

Valid targets come from an attractor-rank index (``_RankIndex``) over the
partial game, which must have an empty bad core; the phase-1 game has
one, and every arc the loop adds keeps it so.  A node's rank is the round
in which it is shown safe, i.e. unable to sit in a player-controlled
terminal-free set: terminals, averages with fewer than two arcs and
max/min nodes without arcs have rank 0, an average one more than its
lowest-ranked successor (its witness), a max/min node one more than its
highest.  The nodes whose recorded derivation passes through a node m
form m's dependency region; only inside it can an arc out of m trap a
node, so the search and the re-ranking after each added arc touch that
region alone (delete and rederive, as in Gupta, Mumick & Subrahmanian,
"Maintaining views incrementally", SIGMOD 1993), never all of m's
ancestors.

The modified variant additionally plants average nodes next to both
terminals, keeps max/min arcs off the terminals, steers second arcs
toward in-degree-zero nodes, and merges provably 0/1-valued nodes into
the terminals, so that its output usually satisfies the full reduction
checklist out of the box.

Draw order (fixed for reproducibility): kind labels are shuffled first;
first arcs are drawn in ascending node order; each phase-2 loop picks the
pending node by index, then its target.  All randomness comes from the
package's SplitMix64 stream seeded per attempt with ``derive_seed``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush

from .game import AVG, TERM, Game, NodeKind, PartialGame
from .reduce import check_assumptions, merge_terminal_valued
from .rng import Rng, derive_seed


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


class _RankIndex:
    """Attractor ranks of a partial game with an empty bad core, kept up
    to date while max/min arcs are added through ``add_arc``.

    ``rank[v]`` and, for averages, ``witness[v]`` record one derivation of
    v's safety (module docstring).  Kind codes, arc and parent lists are
    the game's own, read live; parents are never terminals, so a parent
    that is not an average is a max/min node.
    """

    def __init__(self, g):
        n = g.n
        self.game = g
        self.arcs = g.arcs
        self.parents = g.parents()
        self.code = g.code
        code, arcs = self.code, self.arcs
        rank = [-1] * (n + 1)
        witness = [0] * (n + 1)
        waiting = [0] * (n + 1)  # unranked arcs of a max/min node
        queue = []
        for v in range(1, n + 1):
            if code[v] == TERM or len(arcs[v - 1]) < (2 if code[v] == AVG else 1):
                rank[v] = 0
                queue.append(v)
            elif code[v] != AVG:
                waiting[v] = len(arcs[v - 1])
        for u in queue:  # FIFO: every push is one rank above the node popped
            r = rank[u] + 1
            for par in self.parents[u]:
                if rank[par] >= 0:
                    continue
                if code[par] == AVG:
                    witness[par] = u
                elif waiting[par] > 1:
                    waiting[par] -= 1
                    continue
                rank[par] = r
                queue.append(par)
        if len(queue) < n:
            stuck = next(v for v in range(1, n + 1) if rank[v] < 0)
            raise ValueError(
                f"partial game has a non-empty bad core (node {stuck} can avoid the terminals)"
            )
        self.rank, self.witness = rank, witness
        self._last = (0, None)  # the last region computed, as (m, region)

    def _region(self, m: int) -> set[int]:
        """m and every node whose recorded derivation passes through m."""
        if self._last[0] == m:
            return self._last[1]
        code, witness, parents = self.code, self.witness, self.parents
        region = {m}
        stack = [m]
        while stack:
            u = stack.pop()
            for par in parents[u]:
                if par not in region and (code[par] != AVG or witness[par] == u):
                    region.add(par)
                    stack.append(par)
        self._last = (m, region)
        return region

    def trapped(self, m: int) -> set[int]:
        """Nodes that an added arc out of max/min node m could trap: those
        with no derivation of safety that avoids m (m included)."""
        region = self._region(m)
        code, arcs, parents = self.code, self.arcs, self.parents
        waiting = {}
        freed = []
        for v in region:
            if v == m:
                continue
            out = arcs[v - 1]
            if code[v] == AVG:  # an average with a witness has both arcs
                if out[0] not in region or out[1] not in region:
                    freed.append(v)
            else:
                waiting[v] = len([t for t in out if t in region])
        safe = set(freed)
        while freed:
            u = freed.pop()
            for par in parents[u]:
                if par in safe or par not in region or par == m:
                    continue
                if code[par] != AVG:
                    waiting[par] -= 1
                    if waiting[par]:
                        continue
                safe.add(par)
                freed.append(par)
        return region - safe

    def add_arc(self, m: int, q: int) -> None:
        """Add arc (m, q), q outside ``trapped(m)``, and re-rank m's region.

        Ranks only rise, so nodes outside the region keep their rank and
        their derivation; the region is re-ranked in rank order.
        """
        region = self._region(m)
        self._last = (0, None)
        self.game.add_arc(m, q)
        code, arcs, parents = self.code, self.arcs, self.parents
        rank, witness = self.rank, self.witness
        if q not in region and rank[q] < rank[m]:
            return  # m keeps its rank, so every other node keeps its own
        heap = []
        waiting = {}
        high = {}  # highest rank among a max/min node's ranked arcs
        for v in region:
            out = arcs[v - 1]
            outside = [t for t in out if t not in region]
            if code[v] == AVG:
                if outside:
                    w = min(outside, key=rank.__getitem__)
                    heap.append((rank[w] + 1, v, w))
                continue
            high[v] = max([rank[t] for t in outside], default=-1)
            waiting[v] = len(out) - len(outside)
            if not waiting[v]:
                heap.append((high[v] + 1, v, 0))
        heapify(heap)
        # ``region`` keeps the nodes not yet re-ranked
        while heap:
            r, v, w = heappop(heap)
            if v not in region:
                continue
            region.discard(v)
            rank[v], witness[v] = r, w
            for par in parents[v]:
                if par not in region:
                    continue
                if code[par] == AVG:
                    heappush(heap, (r + 1, par, v))
                    continue
                waiting[par] -= 1
                if r > high[par]:
                    high[par] = r
                if not waiting[par]:
                    heappush(heap, (high[par] + 1, par, 0))


def find_valid_arcs(g, m: int) -> set[int]:
    """Targets q such that adding arc (m, q) cannot create a trap.

    ``g`` must be a partial game with an empty bad core, the generator's
    invariant; otherwise ``ValueError``.  ``m`` must be a max or min node
    with exactly one out-arc.  A target is valid unless it lies in m's
    trapped set (``_RankIndex.trapped``): the nodes that, with m unsafe,
    have no derivation of safety (an average node with a missing arc or
    an arc to a safe node, a max/min node whose every present arc leads to
    one).  Terminals are always valid targets and are left in the result;
    generators strip them.

    The returned set excludes m and m's current target.
    """
    if not g.kind(m).is_decision:
        raise ValueError(f"node {m} is not a max or min node")
    out_m = g.arcs_of(m)
    if len(out_m) != 1:
        raise ValueError(f"node {m} must have exactly one out-arc, has {len(out_m)}")
    valid = set(range(1, g.n + 1)) - _RankIndex(g).trapped(m)
    valid.discard(out_m[0])
    return valid


def _draw(rng: Rng, pool, skip: set[int]) -> int | None:
    """Uniform element of the ascending sequence ``pool`` outside the
    positions ``skip``, with one ``randbelow`` call; None, without a call,
    when nothing is left."""
    count = len(pool) - len(skip)
    if not count:
        return None
    x = rng.randbelow(count)
    for i in sorted(skip):
        if i <= x:
            x += 1
    return pool[x]


def _assign_second_arcs_decisions(pg: PartialGame, rng: Rng, prefer_zero_indegree: bool):
    """Phase-2 loop for max/min nodes; False return means a dead end."""
    n = pg.n
    terminals = (pg.terminal0, pg.terminal1)
    pending = [
        i
        for i in range(1, n + 1)
        if pg.kind(i).is_decision and len(pg.arcs_of(i)) == 1
    ]
    index = _RankIndex(pg)
    parents = pg.parents()
    zero = [q for q in range(1, n + 1) if not parents[q]]
    while pending:
        m = pending.pop(rng.randbelow(len(pending)))
        excluded = index.trapped(m).union(pg.arcs_of(m), terminals)
        q = None
        if prefer_zero_indegree:
            skip = {bisect_left(zero, e) for e in excluded if not parents[e]}
            q = _draw(rng, zero, skip)
        if q is None:
            q = _draw(rng, range(1, n + 1), {e - 1 for e in excluded})
            if q is None:
                return False
        if not parents[q]:
            del zero[bisect_left(zero, q)]
        index.add_arc(m, q)
    return True


def _complete_average_arcs(pg: PartialGame, rng: Rng):
    pending = [
        i
        for i in range(1, pg.n + 1)
        if pg.kind(i) is NodeKind.AVERAGE and len(pg.arcs_of(i)) == 1
    ]
    while pending:
        m = pending.pop(rng.randbelow(len(pending)))
        pg.add_arc(m, _draw(rng, range(1, pg.n + 1), {m - 1, pg.arcs_of(m)[0] - 1}))


def _build_basic(p: GenParams, rng: Rng) -> Game | None:
    n = p.n
    kinds: list[NodeKind] = [NodeKind.MAX] * n
    kinds[n - 2] = NodeKind.TERMINAL0
    kinds[n - 1] = NodeKind.TERMINAL1
    kinds[n - 3] = NodeKind.AVERAGE
    labels = (
        [NodeKind.AVERAGE] * (p.a - 1) + [NodeKind.MIN] * p.b + [NodeKind.MAX] * p.c
    )
    rng.shuffle(labels)
    for i, kind in enumerate(labels):
        kinds[i] = kind
    pg = PartialGame(kinds)

    for v in range(1, n - 1):
        pg.add_arc(v, v + 1 + rng.randbelow(n - v))

    _complete_average_arcs(pg, rng)
    if not _assign_second_arcs_decisions(pg, rng, prefer_zero_indegree=False):
        return None
    return pg.freeze(stopping=True)  # valid second arcs keep the bad core empty


def generate_basic(p: GenParams) -> Game:
    """Basic generator; deterministic in ``p.seed``.

    A tiny fraction of attempts can dead-end when the only valid second
    arc left for some max/min node is its own current target; those
    attempts restart on a derived sub-seed, keeping the overall function
    a pure map from parameters to a stopping game.
    """
    if p.variant is not Variant.BASIC:
        raise ValueError("generate_basic needs variant=Variant.BASIC")
    for attempt in range(256):
        g = _build_basic(p, Rng(derive_seed(p.seed, attempt)))
        if g is not None:
            return g
    raise GenerationError(f"basic generation dead-ended 256 times (seed {p.seed})")


def _build_modified(p: GenParams, rng: Rng) -> PartialGame | None:
    n = p.n
    kinds: list[NodeKind] = [NodeKind.MAX] * n
    kinds[n - 2] = NodeKind.TERMINAL0
    kinds[n - 1] = NodeKind.TERMINAL1
    kinds[n - 3] = NodeKind.AVERAGE
    kinds[n - 4] = NodeKind.AVERAGE
    labels = (
        [NodeKind.AVERAGE] * (p.a - 2) + [NodeKind.MIN] * p.b + [NodeKind.MAX] * p.c
    )
    rng.shuffle(labels)
    for i, kind in enumerate(labels):
        kinds[i] = kind
    pg = PartialGame(kinds)
    pg.add_arc(n - 2, n - 1)  # terminal-adjacent average feeding the 0-terminal
    pg.add_arc(n - 3, n)  # and its 1-terminal twin

    for v in range(1, n - 1):
        kind = pg.kind(v)
        if kind is NodeKind.AVERAGE:
            if not pg.arcs_of(v):
                pg.add_arc(v, v + 1 + rng.randbelow(n - v))
        else:
            # max/min first arcs stay off the terminals
            pg.add_arc(v, v + 1 + rng.randbelow(n - 2 - v))

    parents = pg.parents()
    zero = [q for q in range(1, n + 1) if not parents[q]]
    single = [
        m
        for m in range(1, n + 1)
        if pg.kind(m) is NodeKind.AVERAGE and len(pg.arcs_of(m)) == 1
    ]
    r = rng.randint(max(len(zero) - (p.b + p.c), 0), min(p.a, len(zero)))
    for _ in range(r):
        # eligible while an in-degree-zero node other than m is left (m's
        # target has m's arc, so it is never one)
        eligible = single if len(zero) > 1 else [m for m in single if set(zero) - {m}]
        if not eligible:
            break
        m = eligible[rng.randbelow(len(eligible))]
        q = _draw(rng, zero, {bisect_left(zero, m)} if not parents[m] else set())
        pg.add_arc(m, q)
        del zero[bisect_left(zero, q)]
        del single[bisect_left(single, m)]

    _complete_average_arcs(pg, rng)
    if not _assign_second_arcs_decisions(pg, rng, prefer_zero_indegree=True):
        return None
    return pg


def generate_reduced(p: GenParams, merge: bool = True) -> Game:
    """Modified generator; merges 0/1-valued nodes unless ``merge=False``."""
    if p.variant is not Variant.MODIFIED:
        raise ValueError("generate_reduced needs variant=Variant.MODIFIED")
    for attempt in range(256):
        pg = _build_modified(p, Rng(derive_seed(p.seed, attempt)))
        if pg is not None:
            g = pg.freeze(stopping=True)  # valid second arcs keep the bad core empty
            if not merge:
                return g
            reduced, _ = merge_terminal_valued(g)
            return reduced
    raise GenerationError(f"modified generation dead-ended 256 times (seed {p.seed})")


def generate_fully_reduced(
    spec: RatioSpec, seed: int, retry_cap: int = 10000
) -> tuple[Game, GenMeta]:
    """Generate until an instance satisfies the whole reduction checklist
    (including the single-component form); returns it with its metadata.

    An attempt whose 0/1-valued merge removed nodes is rejected like a
    checklist failure, so the returned game always has the a + b + c + 2
    nodes its metadata records.
    """
    a, b, c = ratio_counts(spec.size, spec.ratio_num)
    for k in range(retry_cap):
        params = GenParams(
            n=a + b + c + 2,
            a=a,
            b=b,
            c=c,
            seed=derive_seed(seed, k),
            variant=Variant.MODIFIED,
        )
        g = generate_reduced(params)
        if g.n < params.n:
            continue
        checklist = check_assumptions(g)
        if checklist.fully_reduced and checklist.single_nonterminal_scc:
            meta = GenMeta(
                seed=seed,
                variant=Variant.MODIFIED.value,
                a=a,
                b=b,
                c=c,
                retries=k,
                realized_n=g.n,
            )
            return g, meta
    raise GenerationError(
        f"no fully reduced instance within {retry_cap} attempts "
        f"(size {spec.size}, ratio {spec.ratio_num}:4, seed {seed})"
    )
