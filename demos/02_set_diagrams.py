"""Limits and colimits of finite-set diagrams, and the interchange law.

Limits are compatible tuples, colimits are union-find quotients of the
tagged disjoint union. The payoff result: colimits over a filtered
category commute with limits over a finite one, checked here by
building both sides and the explicit comparison map.
"""

from random import Random

from abcat.fincat import (chain_category, full_subcategory, parallel_pair_category,
                          group_as_category, restrict_along)
from abcat.sampling import random_commute_instance, random_gset_chain
from abcat.setdiag import (FinSet, SetFunctor, commute_check, fixed_points,
                           limit_points, set_colimit, set_limit)

print("== an equalizer of sets ==")
shape = parallel_pair_category()
diagram = SetFunctor(shape, [FinSet(3), FinSet(3)],
                     [(0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 0, 2)])
carrier, cone = set_limit(diagram)
print("points where f = id agrees with g = collapse:", limit_points(cone))

carrier, cocone = set_colimit(diagram)
print("coequalizer classes:", carrier.size, "->", list(carrier.labels))

print()
print("== restriction along a final functor ==")
chain = chain_category(3)
sizes = [2, 3, 2]
steps = {0: (0, 2), 1: (0, 1, 1)}
tables = []
for m in range(chain.n_morphisms):
    a, b = chain.dom[m], chain.cod[m]
    table = list(range(sizes[a]))
    for k in range(a, b):
        table = [steps[k][v] for v in table]
    tables.append(tuple(table))
d = SetFunctor(chain, [FinSet(s) for s in sizes], tables)
_, incl = full_subcategory(chain, [2])
full, _ = set_colimit(d)
restricted, _ = set_colimit(restrict_along(incl, d))
print(f"colimit over the chain: {full.size} classes;",
      f"after restricting to the top object: {restricted.size}")

print()
print("== filtered colimits commute with finite limits ==")
rng = Random(2)
shape = parallel_pair_category()
f_cat, _, x = random_commute_instance(rng, 3, shape, 4)
report = commute_check(f_cat, shape, x)
print(f"colim of limits: {report.lhs.size} elements,",
      f"limit of colims: {report.rhs.size},",
      "bijective" if report.bijective else "NOT bijective")

print()
print("== fixed points of a chain of involution sets ==")
table, f_cat, bg, _, x = random_gset_chain(Random(6), 3, 5)
report = commute_check(f_cat, bg, x)
print(f"fixed points of the colimit: {report.rhs.size};",
      f"colimit of the fixed points: {report.lhs.size};",
      "they agree" if report.bijective else "MISMATCH")
swap_two = SetFunctor(group_as_category([[0, 1], [1, 0]]),
                      [FinSet(3)], [(0, 1, 2), (1, 0, 2)])
print("swap action on three points fixes:", list(fixed_points(swap_two).labels))
