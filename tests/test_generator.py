import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import ancestor_peel_trapped, ancestor_peel_valid_arcs, brute_force_valid_arcs, build_game, deep_partial
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stopgames import (
    GenParams,
    NodeKind,
    PartialGame,
    RatioSpec,
    Variant,
    check_assumptions,
    find_bad_core,
    find_valid_arcs,
    game_to_json,
    generate_basic,
    generate_fully_reduced,
    generate_reduced,
    merge_terminal_valued,
    ratio_counts,
    reduce_game,
    scc_condense,
)
from stopgames import generate
from stopgames.generate import _build_modified
from stopgames.rng import Rng, derive_seed


def test_params_validation():
    with pytest.raises(ValueError):
        GenParams(n=5, a=1, b=1, c=2, seed=0)
    with pytest.raises(ValueError):
        GenParams(n=5, a=1, b=1, c=1, seed=0, variant=Variant.MODIFIED)


def test_basic_outputs_are_stopping_small_sweep():
    for seed in range(100):
        g = generate_basic(GenParams(n=5, a=1, b=1, c=1, seed=seed))
        assert find_bad_core(g) == frozenset()


def test_basic_first_arcs_point_higher():
    for seed in range(50):
        g = generate_basic(GenParams(n=9, a=3, b=2, c=2, seed=seed))
        for i in range(1, g.n - 1):
            assert g.arcs_of(i)[0] > i


def test_basic_deterministic():
    p = GenParams(n=12, a=4, b=3, c=3, seed=42)
    assert game_to_json(generate_basic(p)) == game_to_json(generate_basic(p))
    other = GenParams(n=12, a=4, b=3, c=3, seed=43)
    assert game_to_json(generate_basic(other)) != game_to_json(generate_basic(p))


def test_valid_arcs_no_ancestors():
    # node 1 (max) has one arc and nobody points at it
    pg = PartialGame(
        [NodeKind.MAX, NodeKind.AVERAGE, NodeKind.AVERAGE, NodeKind.TERMINAL0, NodeKind.TERMINAL1]
    )
    pg.add_arc(1, 2)
    pg.add_arc(2, 4)
    pg.add_arc(2, 3)
    pg.add_arc(3, 5)
    q = find_valid_arcs(pg, 1)
    assert q == {3, 4, 5}  # everything except m=1 and p=2, terminals included


def test_valid_arcs_excludes_trap_closing_target():
    # adding (1, 2) would close a max/min trap {1, 2}
    pg = PartialGame([NodeKind.MAX, NodeKind.MIN, NodeKind.TERMINAL0, NodeKind.TERMINAL1])
    pg.add_arc(1, 4)
    pg.add_arc(2, 1)
    pg.add_arc(2, 4)
    q = find_valid_arcs(pg, 1)
    assert 2 not in q
    assert q == {3}
    plus = PartialGame([NodeKind.MAX, NodeKind.MIN, NodeKind.TERMINAL0, NodeKind.TERMINAL1])
    plus.add_arc(1, 4)
    plus.add_arc(2, 1)
    plus.add_arc(2, 4)
    plus.add_arc(1, 2)
    assert find_bad_core(plus)


def test_valid_arcs_requires_single_arc_decision_node():
    pg = PartialGame([NodeKind.AVERAGE, NodeKind.MAX, NodeKind.TERMINAL0, NodeKind.TERMINAL1])
    pg.add_arc(1, 3)
    with pytest.raises(ValueError):
        find_valid_arcs(pg, 1)  # average node
    with pytest.raises(ValueError):
        find_valid_arcs(pg, 2)  # no arcs yet


def test_valid_arcs_matches_add_and_check_oracle():
    for seed in range(120):
        pg, m = deep_partial(seed, nodes=4 + seed % 9)
        assert find_valid_arcs(pg, m) == brute_force_valid_arcs(pg, m)


def test_valid_arcs_rejects_partial_game_with_bad_core():
    # max nodes 1 and 2 point at each other: a trap before any arc is added
    pg = PartialGame([NodeKind.MAX, NodeKind.MAX, NodeKind.MIN, NodeKind.TERMINAL0, NodeKind.TERMINAL1])
    pg.add_arc(1, 2)
    pg.add_arc(2, 1)
    pg.add_arc(3, 1)
    with pytest.raises(ValueError, match="non-empty bad core") as err:
        find_valid_arcs(pg, 3)
    assert "\n" not in str(err.value)


def _partial(kinds: str, arcs) -> PartialGame:
    codes = {"x": NodeKind.MAX, "n": NodeKind.MIN, "a": NodeKind.AVERAGE}
    pg = PartialGame([codes[k] for k in kinds] + [NodeKind.TERMINAL0, NodeKind.TERMINAL1])
    for i, out in enumerate(arcs, start=1):
        for t in out:
            pg.add_arc(i, t)
    return pg


@st.composite
def partial_games(draw):
    """Partial games of 4..9 nodes with 0, 1 or 2 arcs per non-terminal,
    targets anywhere: self arcs and duplicate arcs included."""
    n = draw(st.integers(4, 9))
    kinds = draw(st.text(alphabet="xna", min_size=n - 2, max_size=n - 2))
    arcs = draw(st.lists(st.lists(st.integers(1, n), max_size=2), min_size=n - 2, max_size=n - 2))
    return _partial(kinds, arcs)


@settings(max_examples=400, deadline=None)
@given(partial_games(), st.integers(0, 8))
# an average with a self arc, one with no arcs and one with one arc, a
# min node with no arcs, a max node with a duplicate arc
@example(_partial("xaanxa", [[2], [2, 6], [], [], [3, 3], [1]]), 0)
# m = 1: min node 3 has both arcs in m's region, to m, trapped, and to
# average 2, freed through its arc to 4, so 3 stays trapped
@example(_partial("xanxn", [[6], [1, 4], [1, 2], [5], [7]]), 0)
# m = 1: min node 4 has both arcs in m's region, to averages 2 and 3,
# both freed through their arcs to 5, so 4 is freed
@example(_partial("xaanxn", [[7], [1, 5], [1, 5], [2, 3], [6], [8]]), 0)
def test_valid_arcs_property_matches_add_and_check(pg, pick):
    if find_bad_core(pg):
        with pytest.raises(ValueError):
            generate._WitnessIndex(pg)
        return
    singles = [i for i in range(1, pg.n - 1) if pg.kind(i).is_decision and len(pg.arcs_of(i)) == 1]
    if not singles:
        return
    m = singles[pick % len(singles)]
    assert find_valid_arcs(pg, m) == brute_force_valid_arcs(pg, m)


def assert_well_founded(index):
    """Every witness is one of its average's arcs, and the derivation
    graph (an average to its witness, a max/min node to each of its arcs)
    is acyclic, so every node's safety derives from the outright safe."""
    g, witness = index.game, index.witness
    n = g.n
    succ = [[] for _ in range(n + 1)]
    for v in range(1, n + 1):
        out = list(g.arcs_of(v))
        if g.kind(v) is NodeKind.AVERAGE and len(out) == 2:
            assert witness[v] in out
            succ[v] = [witness[v]]
        elif g.kind(v).is_decision:
            succ[v] = out
    indeg = [0] * (n + 1)
    for v in range(1, n + 1):
        for t in succ[v]:
            indeg[t] += 1
    ready = [v for v in range(1, n + 1) if not indeg[v]]
    for v in ready:
        for t in succ[v]:
            indeg[t] -= 1
            if not indeg[t]:
                ready.append(t)
    assert len(ready) == n


class CheckedWitnessIndex(generate._WitnessIndex):
    """The generator's witness index, checked at every step of the
    decision loop against the ancestor-peel reference and for
    well-founded derivations.  ``steps`` counts the arcs added and
    ``checks`` the ``trapped`` answers checked against the peel."""

    steps = 0
    checks = 0

    def __init__(self, g):
        super().__init__(g)
        assert_well_founded(self)

    def trapped(self, m):
        count = super().trapped(m)
        n, marks = self.game.n, self.marks
        assert set(marks) <= {0, 1, 2} and marks[0] == 0
        assert {v for v in range(1, n + 1) if marks[v]} == set(self.region)
        u = {v for v in range(1, n + 1) if marks[v] == 1}
        valid = set(range(1, n + 1)) - u - set(self.game.arcs_of(m))
        assert valid == ancestor_peel_valid_arcs(self.game, m)
        peel = ancestor_peel_trapped(self.game, m)
        assert u == peel and count == len(peel)
        CheckedWitnessIndex.checks += 1
        return count

    def add_arc(self, m, q):
        super().add_arc(m, q)
        assert_well_founded(self)
        CheckedWitnessIndex.steps += 1


@pytest.mark.parametrize("variant", list(Variant))
def test_witness_index_matches_peel_and_stays_acyclic_at_every_step(monkeypatch, variant):
    cells = ((64, 1), (128, 8), (256, 4), (512, 1), (512, 8))
    plain = []
    for size, ratio in cells:
        a, b, c = ratio_counts(size, ratio)
        params = GenParams(a + b + c + 2, a, b, c, derive_seed(44, size, ratio), variant)
        plain.append(game_to_json(generate_basic(params) if variant is Variant.BASIC else generate_reduced(params, merge=False)))
    monkeypatch.setattr(generate, "_WitnessIndex", CheckedWitnessIndex)
    CheckedWitnessIndex.steps = CheckedWitnessIndex.checks = 0
    for (size, ratio), text in zip(cells, plain):
        a, b, c = ratio_counts(size, ratio)
        params = GenParams(a + b + c + 2, a, b, c, derive_seed(44, size, ratio), variant)
        g = generate_basic(params) if variant is Variant.BASIC else generate_reduced(params, merge=False)
        assert game_to_json(g) == text
    assert CheckedWitnessIndex.steps >= sum(2 * ratio_counts(*cell)[1] for cell in cells)
    # the peel check ran: at least one checked trapped answer per added arc
    assert CheckedWitnessIndex.checks >= CheckedWitnessIndex.steps


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _grid_texts() -> dict[str, str]:
    """Canonical text of every instance on the fixed 144-cell grid."""
    got = {}
    for size in (12, 24, 48, 100, 200):
        for ratio in (1, 4, 8):
            a, b, c = ratio_counts(size, ratio)
            for i in range(3):
                seed = derive_seed(41, size, ratio, i)
                basic = generate_basic(GenParams(a + b + c + 2, a, b, c, seed))
                got[f"basic {size} {ratio} {i}"] = game_to_json(basic)
                modified = generate_reduced(GenParams(a + b + c + 2, a, b, c, seed, Variant.MODIFIED), merge=False)
                got[f"modified {size} {ratio} {i}"] = game_to_json(modified)
    for size, count in ((16, 3), (32, 3), (64, 3), (128, 3), (256, 2), (512, 2), (1024, 2)):
        for ratio in (1, 4, 8):
            for i in range(count):
                g, meta = generate_fully_reduced(RatioSpec(size, ratio), derive_seed(43, size, ratio, i))
                got[f"full {size} {ratio} {i}"] = game_to_json(g) + json.dumps(meta.as_dict(), sort_keys=True)
    return got


def test_generator_bytes_pinned():
    """Instances over a fixed grid hash as recorded from the generator
    that searched valid arcs by an ancestor peel (generator_sha256.json)."""
    pinned = json.loads((Path(__file__).parent / "generator_sha256.json").read_text())
    got = {key: _sha256(text) for key, text in _grid_texts().items()}
    assert sorted(got) == sorted(pinned)
    assert [key for key in pinned if got[key] != pinned[key]] == []


def test_checklist_stopping_attempts_have_empty_bad_core(monkeypatch):
    """Every attempt's partial game that the fully reduced generator
    checks, which the checklist finds stopping, has an empty bad core,
    over the 144-cell grid."""
    checked = []
    original_check = generate.check_assumptions

    def recording_check(g):
        checklist = original_check(g)
        checked.append((checklist.stopping, find_bad_core(g)))
        return checklist

    monkeypatch.setattr(generate, "check_assumptions", recording_check)
    texts = _grid_texts()
    # at least one checked attempt per fully reduced game of the grid
    assert len(checked) >= sum(key.startswith("full") for key in texts)
    assert set(checked) == {(True, frozenset())}


def test_generated_and_reduced_games_decide_stopping_once(monkeypatch):
    """Generator and reducer output carries no stopping flag of its own:
    ``find_bad_core`` decides it on the first read of ``stopping``, once,
    and the second read comes from the cache."""
    import stopgames.game as game_module

    built = []
    for ratio in (1, 8):
        a, b, c = ratio_counts(128, ratio)
        built.append(generate_basic(GenParams(a + b + c + 2, a, b, c, derive_seed(45, ratio))))
        built.append(generate_fully_reduced(RatioSpec(128, ratio), derive_seed(46, ratio))[0])
        basic = generate_basic(GenParams(a + b + c + 2, a, b, c, derive_seed(48, ratio)))
        reduced, _ = reduce_game(basic)
        assert reduced.n < basic.n
        built.append(reduced)
    calls = []
    original = game_module.find_bad_core

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(game_module, "find_bad_core", counting)
    for g in built:
        calls.clear()
        assert g.stopping is True
        assert g.stopping is True
        assert calls == [g]


def test_fully_reduced_decisions_match_freeze_merge_check_pipeline():
    """Each attempt of ``generate_fully_reduced`` is accepted or rejected
    as by the generator that froze every attempt, merged its 0/1-valued
    nodes, rejected a merge that removed nodes and then ran the checklist
    on the merged game; the accepted game is that pipeline's."""
    cases = [(RatioSpec(size, ratio), derive_seed(47, size, ratio, i)) for size in (16, 32, 64, 128, 256) for ratio in (1, 4, 8) for i in range(2)]
    cases += [(RatioSpec(128, 1), derive_seed(*parts)) for parts in ((7, 128, 1), (7, 128, 1, 233))]
    attempts = shrunk = 0
    for spec, seed in cases:
        g, meta = generate_fully_reduced(spec, seed)
        a, b, c = ratio_counts(spec.size, spec.ratio_num)
        for k in range(meta.retries + 1):
            params = GenParams(a + b + c + 2, a, b, c, derive_seed(seed, k), Variant.MODIFIED)
            merged, _ = merge_terminal_valued(generate_reduced(params, merge=False))
            checklist = check_assumptions(merged)
            accepted = merged.n == params.n and checklist.fully_reduced and checklist.single_nonterminal_scc
            assert accepted == (k == meta.retries), (spec, seed, k)
            attempts += 1
            shrunk += merged.n < params.n
        assert game_to_json(g) == game_to_json(merged)
    assert attempts > len(cases) and shrunk >= 2


@pytest.mark.parametrize("parts, collapsed_attempt, retries", [((7, 128, 1), 1, 2), ((7, 128, 1, 233), 4, 10)])
def test_fully_reduced_rejects_attempt_collapsed_by_merge(parts, collapsed_attempt, retries):
    seed = derive_seed(*parts)
    a, b, c = ratio_counts(128, 1)
    # this attempt passes the checklist, but its 0/1-valued merge leaves
    # only two averages and the terminals
    params = GenParams(a + b + c + 2, a, b, c, derive_seed(seed, collapsed_attempt), Variant.MODIFIED)
    assert generate_reduced(params).n == 4
    g, meta = generate_fully_reduced(RatioSpec(128, 1), seed)
    assert meta.retries == retries
    assert (meta.a, meta.b, meta.c) == (a, b, c)
    assert g.n == meta.realized_n == a + b + c + 2
    assert (len(g.average_nodes), len(g.min_nodes), len(g.max_nodes)) == (a, b, c)
    checklist = check_assumptions(g)
    assert checklist.fully_reduced and checklist.single_nonterminal_scc


def test_modified_construction_lines():
    p = GenParams(n=12, a=4, b=3, c=3, seed=5, variant=Variant.MODIFIED)
    pg = _build_modified(p, Rng(derive_seed(5, 0)))
    n = pg.n
    assert pg.kind(n - 2) is NodeKind.AVERAGE and pg.kind(n - 3) is NodeKind.AVERAGE
    assert pg.arcs_of(n - 2)[0] == n - 1  # feeds the 0-terminal
    assert pg.arcs_of(n - 3)[0] == n  # feeds the 1-terminal
    for i in range(1, n - 1):
        if pg.kind(i).is_decision:
            assert not any(t in (n - 1, n) for t in pg.arcs_of(i))


def test_modified_outputs_stopping_and_terminal_free_decisions():
    # terminal-free decision arcs hold for the construction; the final
    # 0/1-valued merge can redirect surviving arcs onto terminals, which
    # the fully-reduced filter later rejects
    for seed in range(60):
        p = GenParams(n=14, a=4, b=4, c=4, seed=seed, variant=Variant.MODIFIED)
        raw = generate_reduced(p, merge=False)
        for i in range(1, raw.n - 1):
            if raw.kind(i).is_decision:
                assert not any(t in (raw.terminal0, raw.terminal1) for t in raw.arcs_of(i))
        g = generate_reduced(p)
        assert find_bad_core(g) == frozenset()


def test_unmerged_modified_has_terminal_adjacent_averages():
    for seed in range(30):
        p = GenParams(n=16, a=5, b=4, c=5, seed=seed, variant=Variant.MODIFIED)
        g = generate_reduced(p, merge=False)
        to0 = any(
            g.kind(i) is NodeKind.AVERAGE and g.terminal0 in g.arcs_of(i)
            for i in range(1, g.n - 1)
        )
        to1 = any(
            g.kind(i) is NodeKind.AVERAGE and g.terminal1 in g.arcs_of(i)
            for i in range(1, g.n - 1)
        )
        assert to0 and to1


def test_ratio_counts_reference_point():
    assert ratio_counts(4096, 1) == (455, 1820, 1820)


def test_ratio_counts_shape():
    for size in (32, 128, 512):
        for ratio in range(1, 9):
            a, b, c = ratio_counts(size, ratio)
            assert b == c and a >= 2
            assert abs(a / c - ratio / 4) < 0.25
            assert abs((a + b + c + 2) - size) <= 3


def test_fully_reduced_instances_pass_checklist():
    for ratio in (1, 8):
        g, meta = generate_fully_reduced(RatioSpec(32, ratio), seed=1234 + ratio)
        checklist = check_assumptions(g)
        assert checklist.fully_reduced
        assert checklist.single_nonterminal_scc
        assert len(scc_condense(g)) == 1
        assert meta.retries >= 0 and meta.realized_n == g.n


def test_fully_reduced_deterministic():
    a, _ = generate_fully_reduced(RatioSpec(32, 4), seed=9)
    b, _ = generate_fully_reduced(RatioSpec(32, 4), seed=9)
    assert game_to_json(a) == game_to_json(b)


def canonical_form(g):
    """A key equal for two games exactly when a kind-preserving node
    bijection fixing both terminals maps each node's arcs, as an unordered
    pair, onto its image's."""
    n = g.n
    by_kind = [[i for i in range(1, n - 1) if g.kind(i) is k] for k in (NodeKind.MAX, NodeKind.MIN, NodeKind.AVERAGE)]
    keys = []
    for order in itertools.product(*(itertools.permutations(ids) for ids in by_kind)):
        phi = {old: new for new, old in enumerate(itertools.chain(*order), start=1)}
        phi[n - 1], phi[n] = n - 1, n
        relabelled = {phi[i]: tuple(sorted(phi[t] for t in g.arcs_of(i))) for i in range(1, n - 1)}
        keys.append(tuple(relabelled[i] for i in range(1, n - 1)))
    return tuple(len(ids) for ids in by_kind), min(keys)


def test_seed_sweep_reaches_fixed_six_node_game():
    # a stopping game with no max/min arcs to terminals, reachable by the
    # generator up to monotone renumbering
    target = build_game(
        [
            ("max", (3, 2)),
            ("min", (4, 3)),
            ("avg", (4, 6)),
            ("avg", (5, 2)),
        ]
    )
    assert target.stopping
    params = dict(n=6, a=2, b=1, c=1)
    for seed in range(20000):
        g = generate_basic(GenParams(seed=seed, **params))
        if canonical_form(g) == canonical_form(target):
            return
    raise AssertionError("seed sweep never produced the target game")


def set_draw(rng, pool, skip):
    """The phase-2 draw as a set-based oracle: a uniform element of the
    ascending sequence ``pool`` outside the positions in the set
    ``skip``, with one ``randbelow`` call; None, without a call, when
    nothing is left."""
    count = len(pool) - len(skip)
    if not count:
        return None
    x = rng.randbelow(count)
    for i in sorted(skip):
        if i > x:
            break
        x += 1
    return pool[x]


def test_marks_draws_pick_what_the_set_draw_picks():
    """On random marks, pools and arcs, ``_draw`` on each pool shape
    phase 2 passes it takes the same node and RNG state as the set-based
    draw over the same exclusions: an average's second arc over all
    nodes minus the average and its first target; a max/min node's over
    the unmarked part of a list pool; and over the positions of the
    non-terminals not marked trapped (1), minus the current target p's
    position p - 1."""
    picks = nones = 0
    for case in range(600):
        rng = Rng(derive_seed(51, case))
        n = 3 + rng.randbelow(40)
        marks = bytearray(n + 1)
        for v in range(1, n - 1):
            marks[v] = (0, 0, 1, 1, 1, 2)[rng.randbelow(6)] if case % 5 else 1
        view = np.frombuffer(marks, np.uint8, n - 2, 1)
        p = 1 + rng.randbelow(n)
        excluded = {v for v in range(1, n + 1) if marks[v] == 1} | {p, n - 1, n}
        pool = [q for q in range(1, n - 1) if q != p and rng.randbelow(2)]
        m = 1 + rng.randbelow(n - 1)
        first = m + 1 + rng.randbelow(n - m)
        seed = rng.u64()

        def nonterminal(r):
            q = generate._draw(r, (view != 1).nonzero()[0], (p - 1,) if p <= n - 2 and marks[p] != 1 else ())
            return None if q is None else int(q) + 1

        draws = [
            (
                lambda r: generate._draw(r, range(1, n + 1), (m, first)),
                lambda r: set_draw(r, range(1, n + 1), {m - 1, first - 1}),
            ),
            (
                lambda r: generate._draw(r, [q for q in pool if marks[q] != 1], ()),
                lambda r: set_draw(r, pool, {pool.index(e) for e in excluded if e in pool}),
            ),
            (nonterminal, lambda r: set_draw(r, range(1, n + 1), {e - 1 for e in excluded})),
        ]
        for new, old in draws:
            got_rng, want_rng = Rng(seed), Rng(seed)
            got = new(got_rng)
            assert got == old(want_rng) and type(got) in (int, type(None))
            assert got_rng._state == want_rng._state
            picks += got is not None
            nones += got is None
    assert picks > 1000 and nones > 100


@pytest.mark.parametrize("prefer_zero_indegree", [False, True])
def test_phase2_step_without_valid_target_is_a_dead_end_without_a_draw(prefer_zero_indegree):
    # max node 1 points at average 2, which feeds both terminals: the
    # non-terminals are 1 itself, trapped, and its current target 2, so
    # no second arc is left
    pg = PartialGame([NodeKind.MAX, NodeKind.AVERAGE, NodeKind.TERMINAL0, NodeKind.TERMINAL1])
    pg.add_arc(1, 2)
    pg.add_arc(2, 3)
    pg.add_arc(2, 4)
    rng, picked = Rng(7), Rng(7)
    picked.randbelow(1)  # the pending node's pick, the step's only draw
    assert generate._second_arcs(pg, rng, prefer_zero_indegree) is None
    assert rng._state == picked._state
    assert pg.arcs_of(1) == (2,)


class ReplayRng(Rng):
    """Answers the draws of one choice path: the i-th ``randbelow`` call
    returns ``path[i]``, or 0 past its end, and every bound is recorded."""

    def __init__(self, path):
        super().__init__(0)
        self.path = path
        self.bounds = []

    def randbelow(self, n):
        i = len(self.bounds)
        self.bounds.append(n)
        return self.path[i] if i < len(self.path) else 0

    def u64(self):
        raise AssertionError("the builders draw through randbelow alone")


def every_choice_path(build, params):
    """``build(params, rng)`` on every choice path of its draws, in
    lexicographic order of the choices."""
    path = []
    while True:
        rng = ReplayRng(path)
        yield build(params, rng)
        choices = path + [0] * (len(rng.bounds) - len(path))
        i = len(choices) - 1
        while i >= 0 and choices[i] == rng.bounds[i] - 1:
            i -= 1
        if i < 0:
            return
        path = choices[:i] + [choices[i] + 1]


def fully_reduced_classes(games):
    """``canonical_form`` of each fully reduced game, mapped to whether
    its non-terminals form a single component."""
    classes = {}
    for g in games:
        checklist = check_assumptions(g)
        if checklist.fully_reduced:
            classes[canonical_form(g.freeze())] = checklist.single_nonterminal_scc
    return classes


def test_modified_builder_reaches_every_fully_reduced_six_node_game():
    """Completeness at n = 6 with 2 averages, 1 min and 1 max node: the
    attempts that pass the checklist over every choice path of
    ``_build_modified`` are, up to kind-preserving isomorphism with the
    terminals fixed, exactly the fully reduced games of those kinds,
    listed by brute force; so are the single-component ones, which
    ``generate_fully_reduced`` accepts."""
    params = GenParams(n=6, a=2, b=1, c=1, seed=0, variant=Variant.MODIFIED)
    attempts = list(every_choice_path(_build_modified, params))
    image = fully_reduced_classes(pg for pg in attempts if pg is not None)

    def listed_games():
        # nodes 1 max, 2 min, 3 and 4 averages; fully reduced games have
        # no self or duplicate arcs and no max/min arcs to the terminals
        kinds = [NodeKind.MAX, NodeKind.MIN, NodeKind.AVERAGE, NodeKind.AVERAGE, NodeKind.TERMINAL0, NodeKind.TERMINAL1]
        options = [itertools.combinations([t for t in range(1, 7 if i > 2 else 5) if t != i], 2) for i in range(1, 5)]
        for arcs in itertools.product(*map(list, options)):
            pg = PartialGame(kinds)
            for i, out in enumerate(arcs, start=1):
                for t in out:
                    pg.add_arc(i, t)
            yield pg

    listed = fully_reduced_classes(listed_games())
    assert len(attempts) == 1796
    assert len(listed) == 11 and sum(listed.values()) == 7
    assert sorted(set(listed) - set(image)) == [] and sorted(set(image) - set(listed)) == []
    assert image == listed
