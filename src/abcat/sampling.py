"""Seeded random instances for the verification suites.

Every generator takes a ``random.Random`` so suites are reproducible
from an explicit seed.  Construction is always by composition of pieces
that are correct by construction (scrambled presentations, pointwise
sums, forced naturality), with bounded retries where a random choice has
to satisfy a closure condition.
"""

from __future__ import annotations

from random import Random

from .abdiag import AbDiagram, AbNaturalMap
from .abgrp import (AbHom, FGAbGroup, biproduct, direct_sum,
                    from_canonical_form, hom_compose, identity_hom)
from .errors import InputError
from .fincat import (FinCategory, _extend_from_generators, chain_category, group_as_category,
                     product_category)
from .intmat import IntMatrix, block_diagonal, hstack
from .setdiag import FinSet, SetFunctor


def random_matrix(rng: Random, rows: int, cols: int, bound: int = 20) -> IntMatrix:
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)], shape=(rows, cols))


_FACTOR_CHAINS = [(), (2,), (3,), (4,), (5,), (6,),
                  (2, 2), (2, 4), (2, 6), (3, 3), (3, 6), (4, 4), (5, 5), (6, 6)]


def random_group(rng: Random, max_gens: int = 2) -> FGAbGroup:
    """A canonical-form group with at most ``max_gens`` generators."""
    chains = [c for c in _FACTOR_CHAINS if len(c) <= max_gens]
    factors = rng.choice(chains)
    free = rng.randint(0, max_gens - len(factors))
    return from_canonical_form(free, factors)


def _random_unimodular(rng: Random, n: int):
    """Four random elementary operations as a unimodular matrix, with its inverse."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ui = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 if n > 1 else 0):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            q = rng.choice([-2, -1, 1, 2])
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
            for r in range(n):
                ui[r][j] -= q * ui[r][i]
        elif kind == 1:
            u[i], u[j] = u[j], u[i]
            for r in range(n):
                ui[r][i], ui[r][j] = ui[r][j], ui[r][i]
        else:
            u[i] = [-x for x in u[i]]
            for r in range(n):
                ui[r][i] = -ui[r][i]
    return (IntMatrix(u, shape=(n, n)), IntMatrix(ui, shape=(n, n)))


def scramble_group(rng: Random, group: FGAbGroup):
    """An isomorphic messy presentation with the explicit isomorphisms.

    Applies a unimodular change of generators and appends a few redundant
    relation columns.  Returns (scrambled, to_scrambled, from_scrambled).
    """
    p, p_inv = _random_unimodular(rng, group.gens)
    rels = p @ group.relations
    extra = []
    for _ in range(rng.randrange(3)):
        if rels.cols:
            coeffs = [rng.randint(-2, 2) for _ in range(rels.cols)]
            extra.append(tuple(sum(c * rels.data[i][j] for j, c in enumerate(coeffs))
                               for i in range(rels.rows)))
    if extra:
        rels = hstack(rels, IntMatrix.from_columns(extra, rels.rows))
    scrambled = FGAbGroup(group.gens, rels)
    return (scrambled,
            AbHom(group, scrambled, p),
            AbHom(scrambled, group, p_inv))


def random_family(rng: Random, size: int) -> list:
    return [random_group(rng) for _ in range(size)]


def random_mono_family(rng: Random, size: int):
    """Families A, B and componentwise monomorphisms A(x) -> B(x)."""
    source = []
    target = []
    monos = []
    for _ in range(size):
        a = random_group(rng, max_gens=2)
        c = random_group(rng, max_gens=1)
        summed, injections, _ = biproduct([a, c])
        scrambled, fwd, _ = scramble_group(rng, summed)
        source.append(a)
        target.append(scrambled)
        monos.append(hom_compose(fwd, injections[0]))
    return source, target, monos


def random_mono_chain(rng: Random, length: int) -> AbDiagram:
    """Chain diagram with monic transitions (iterated scrambled inclusions)."""
    base = chain_category(length)
    plain = [random_group(rng, max_gens=1)]
    for _ in range(length - 1):
        extra = random_group(rng, max_gens=1)
        summed = direct_sum([plain[-1], extra])
        plain.append(summed)
    scrambles = [scramble_group(rng, g) for g in plain]
    groups = [s[0] for s in scrambles]
    step = {}
    for i in range(length - 1):
        summed = plain[i + 1]
        inj = AbHom(plain[i], summed,
                    IntMatrix([[1 if r == c else 0 for c in range(plain[i].gens)]
                               for r in range(summed.gens)],
                              shape=(summed.gens, plain[i].gens)))
        step[i] = hom_compose(scrambles[i + 1][1], hom_compose(inj, scrambles[i][2]))
    homs = []
    for m in range(base.n_morphisms):
        a, b = base.dom[m], base.cod[m]
        h = identity_hom(groups[a])
        for i in range(a, b):
            h = hom_compose(step[i], h)
        homs.append(h)
    return AbDiagram(base, groups, homs)


def random_ab5_instance(rng: Random, length: int) -> AbNaturalMap:
    """A natural map eta: D -> E over a chain, with nontrivial kernels.

    D is a scrambled pointwise sum of E with a kernel chain K, and eta is
    the projection, so ker(eta_c) is isomorphic to K(c).
    """
    e_diag = random_mono_chain(rng, length)
    k_diag = random_mono_chain(rng, length)
    base = e_diag.base
    sums = [biproduct([e_diag.groups[c], k_diag.groups[c]]) for c in range(length)]
    scrambles = [scramble_group(rng, sums[c][0]) for c in range(length)]
    groups = [s[0] for s in scrambles]
    homs = []
    for m in range(base.n_morphisms):
        a, b = base.dom[m], base.cod[m]
        blocked = AbHom(sums[a][0], sums[b][0], block_diagonal([e_diag.hom(m).matrix,
                                                                k_diag.hom(m).matrix]))
        homs.append(hom_compose(scrambles[b][1], hom_compose(blocked, scrambles[a][2])))
    d_diag = AbDiagram(base, groups, homs)
    eta = tuple(hom_compose(sums[c][2][0], scrambles[c][2]) for c in range(length))
    return AbNaturalMap(d_diag, e_diag, eta)


# ---------------------------------------------------------------------------
# set-diagram generators


def random_shape_functor(rng: Random, shape: FinCategory, max_size: int = 4) -> SetFunctor:
    """Random diagram on a shape with no composable non-identity pairs."""
    sets = [FinSet(rng.randint(1, max_size)) for _ in range(shape.n_objects)]
    tables = []
    for m in range(shape.n_morphisms):
        a, b = shape.dom[m], shape.cod[m]
        if shape.identity[a] == m:
            tables.append(tuple(range(sets[a].size)))
        else:
            tables.append(tuple(rng.randrange(sets[b].size) for _ in range(sets[a].size)))
    return SetFunctor(shape, sets, tables)


def random_involution(rng: Random, size: int):
    """An involution on 0..size-1 as a table."""
    items = list(range(size))
    rng.shuffle(items)
    table = list(range(size))
    while len(items) >= 2 and rng.random() < 0.7:
        a = items.pop()
        b = items.pop()
        table[a], table[b] = b, a
    return tuple(table)


def _natural_step(rng: Random, shape: FinCategory, h: SetFunctor, max_size: int):
    """A random diagram h2 on the same shape plus a natural map h => h2."""
    glued = shape.generating()
    for _ in range(200):
        h2 = random_shape_functor(rng, shape, max_size)
        tau = [None] * shape.n_objects
        ok = True
        for c in range(shape.n_objects):
            forced = {}
            conflict = False
            for m in glued:
                a, b = shape.dom[m], shape.cod[m]
                if b == c and tau[a] is not None:
                    for x in range(h.sets[a].size):
                        y = h.table(m)[x]
                        want = h2.table(m)[tau[a][x]]
                        if forced.setdefault(y, want) != want:
                            conflict = True
                            break
                if conflict:
                    break
            if conflict:
                ok = False
                break
            component = []
            for x in range(h.sets[c].size):
                if x in forced:
                    component.append(forced[x])
                    continue
                allowed = list(range(h2.sets[c].size))
                for m in glued:
                    a, b = shape.dom[m], shape.cod[m]
                    if a == c and tau[b] is not None:
                        want = tau[b][h.table(m)[x]]
                        allowed = [y for y in allowed if h2.table(m)[y] == want]
                if not allowed:
                    break
                component.append(rng.choice(allowed))
            if len(component) != h.sets[c].size:
                ok = False
                break
            tau[c] = tuple(component)
        if ok:
            return h2, tuple(tau)
    raise InputError("failed to sample a natural transformation")


def _chain_diagram(f_cat: FinCategory, shape: FinCategory, stages, steps) -> SetFunctor:
    """The diagram on f_cat x shape (f_cat a chain) whose stage a is the
    diagram ``stages[a]`` on shape, moved along ``steps[k][c]``, the
    table at object c of a natural map from stage k to stage k + 1."""
    def transport(i, j, c):
        # composite step_{j-1} o ... o step_i at object c
        table = range(stages[i].sets[c].size)
        for k in range(i, j):
            table = [steps[k][c][v] for v in table]
        return table

    tables = []
    for p in range(f_cat.n_morphisms):
        i, j = f_cat.dom[p], f_cat.cod[p]
        for q in range(shape.n_morphisms):
            tables.append(tuple(stages[j].table(q)[x] for x in transport(i, j, shape.dom[q])))
    return SetFunctor(product_category(f_cat, shape),
                      [s for stage in stages for s in stage.sets], tables)


def random_commute_instance(rng: Random, chain_len: int, shape: FinCategory,
                            max_size: int = 4):
    """A diagram on chain x shape assembled from a chain of natural maps."""
    f_cat = chain_category(chain_len)
    stages = [random_shape_functor(rng, shape, max_size)]
    taus = []
    for _ in range(chain_len - 1):
        nxt, tau = _natural_step(rng, shape, stages[-1], max_size)
        stages.append(nxt)
        taus.append(tau)
    x = _chain_diagram(f_cat, shape, stages, taus)
    return f_cat, x.base, x


def random_gset_chain(rng: Random, chain_len: int, max_size: int = 5):
    """A chain of Z/2-sets with equivariant transitions, on chain x B'G."""
    table = ((0, 1), (1, 0))
    bg = group_as_category(table, labels=["e", "g"])
    f_cat = chain_category(chain_len)
    stages = []
    for k in range(chain_len):
        size = rng.randint(1, max_size)
        inv = random_involution(rng, size)
        # equivariant maps send fixed points to fixed points, so once a
        # stage has one every later stage needs one too
        if k and any(x == y for x, y in enumerate(stages[-1].table(1))) \
                and all(inv[x] != x for x in range(size)):
            size += 1
            inv = inv + (size - 1,)
        stages.append(SetFunctor(bg, [FinSet(size)], [tuple(range(size)), inv]))
    steps = []
    for i in range(chain_len - 1):
        sigma, sigma2 = stages[i].table(1), stages[i + 1].table(1)
        fixed_targets = [y for y in range(len(sigma2)) if sigma2[y] == y]
        t = [None] * len(sigma)
        for x in range(len(sigma)):
            if t[x] is not None:
                continue
            if sigma[x] == x:
                t[x] = rng.choice(fixed_targets)
            else:
                y = rng.randrange(len(sigma2))
                t[x] = y
                t[sigma[x]] = sigma2[y]
        steps.append((tuple(t),))
    x = _chain_diagram(f_cat, bg, stages, steps)
    return table, f_cat, bg, x.base, x


def random_poset_functor(rng: Random, poset: FinCategory, covers,
                         max_size: int = 3, top_objects=()) -> SetFunctor:
    """Random diagram on a poset, built on cover maps and retried until all
    composites agree; sets at ``top_objects`` have at most two elements.

    Tables extend from the covers along their ``left_tree``, and
    composites are checked at the cover-led pairs alone."""
    cover_of = {}
    for a, b in {tuple(c) for c in covers}:
        relation = poset.hom(a, b)
        if not relation:
            raise InputError(f"cover ({a}, {b}) is not a relation of the poset")
        cover_of[relation[0]] = (a, b)
    for _ in range(5000):
        sizes = [rng.randint(1, 2 if c in top_objects else max_size)
                 for c in range(poset.n_objects)]
        tables = {m: tuple(rng.randrange(sizes[b]) for _ in range(sizes[a]))
                  for m, (a, b) in cover_of.items()}
        tables.update((poset.identity[c], tuple(range(s))) for c, s in enumerate(sizes))
        broken, missing = _extend_from_generators(
            poset, tables, cover_of, lambda t, s: tuple(t[v] for v in s), tuple.__eq__)
        if missing:
            raise InputError("poset has a relation not generated by covers")
        if broken is None:
            return SetFunctor(poset, [FinSet(s) for s in sizes],
                              [tables[m] for m in range(poset.n_morphisms)])
    raise InputError("failed to sample a consistent poset diagram")


DIAMOND_COVERS = ((0, 1), (0, 2), (1, 3), (2, 3))
