"""Walkthrough: generate stopping games with both generator variants.

Shows the raw basic generator, the modified generator before and after
its 0/1-valued merge, and the fully-reduced retry loop that benchmark
instances go through.
"""

from stopgames import (
    GenParams,
    RatioSpec,
    Variant,
    check_assumptions,
    game_to_json,
    generate_basic,
    generate_fully_reduced,
    generate_reduced,
)

basic = generate_basic(GenParams(n=10, a=3, b=2, c=3, seed=7))
print(f"basic generator, 10 nodes: stopping={basic.stopping}")
for i in range(1, basic.n + 1):
    arcs = basic.arcs_of(i)
    print(f"  node {i}: {basic.kind(i).value} -> {list(arcs) if arcs else 'terminal'}")

params = GenParams(n=16, a=5, b=4, c=5, seed=11, variant=Variant.MODIFIED)
raw = generate_reduced(params, merge=False)
merged = generate_reduced(params)
print(f"\nmodified generator: {raw.n} nodes built, {merged.n} after merging 0/1-valued nodes")
print(f"checklist on merged output: {check_assumptions(merged)}")

game, meta = generate_fully_reduced(RatioSpec(64, 4), seed=2024)
checklist = check_assumptions(game)
print(f"\nfully reduced 64-node instance (ratio 4:4): n={game.n}, retries={meta.retries}")
for name, ok in checklist.items():
    print(f"  {'ok ' if ok else 'FAIL'} {name}")
print(f"  ok  single non-terminal SCC: {checklist.single_nonterminal_scc}")

print("\nserialized form (first 160 chars):")
print(game_to_json(game)[:160] + "...")
