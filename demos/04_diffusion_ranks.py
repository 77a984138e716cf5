"""
Character ranks under the dual action
=====================================

Additive rules act on characters by spreading their support; the number of
support cells (the rank) follows binomial parity for the two-cell sum rule.
Rank growth "in density" is the engine behind Cesàro randomization, and the
same bookkeeping works relative to a skew decomposition.
"""
from mcalab import (Character, GroupMap, LinearRuleDual, McaRule,
                    abelian_invariants, central_split, decompose_mca,
                    diffusion_report, fibre_rank_independence, make_cyclic,
                    make_frame, make_quaternion, center,
                    relative_diffusion_rank)

Z2 = make_cyclic(2)
ident = GroupMap.identity(Z2)
xor = McaRule(Z2, 0, 1, [(0, ident), (1, ident)], one_sided=True)
dual = LinearRuleDual.from_rule(xor)
seed = Character.make(abelian_invariants(Z2), {0: (1,)})

report = diffusion_report(dual, seed, 512, thresholds=(2, 10))
print("rank(j) for j = 0..16:", report.ranks[:17])
print("   (= 2^(binary digit sum), the Pascal-mod-2 row weights)")
print("density of j <= 512 with rank > 10:", report.densities[10])
print("growth of that density with the horizon:")
for j, d in report.density_trail[10]:
    print(f"   j <= {j:3d}: {d:.4f}")

# relative version: a width-4 rule over Q8, reduced modulo the center
Q8 = make_quaternion()
idq = GroupMap.identity(Q8)
wide = McaRule(Q8, 0, 3, [(3, idq)] + [(0, idq)] * 3 + [(2, idq)] * 5
               + [(1, idq)] * 3)
frame = make_frame(Q8, center(Q8))
dec = decompose_mca(wide, frame)
split = central_split(wide, frame, dec=dec)
alpha = Character.make(abelian_invariants(frame.a_group), {0: (1,)})
print("\nrelative ranks over the center:",
      [relative_diffusion_rank(split, alpha, j) for j in range(3)])

# independence from the driving word, checked exhaustively at j = 1
check = fibre_rank_independence(dec, split, alpha, 1)
print(f"fibre ranks across all driving words: {check.ranks_seen} "
      f"(linear prediction {check.linear_rank}, agree: {check.all_equal})")
