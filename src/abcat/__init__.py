"""Exact computations with finite categories and f.g. abelian groups.

Submodules:

- ``fincat``: finite categories, functors, connectivity, finality,
  filteredness, siftedness, cocone search.
- ``setdiag``: diagrams of finite sets, limits and colimits, restriction,
  the colimit-limit interchange harness, fixed points of group actions.
- ``abgrp``: finitely generated abelian groups by presentation, Smith
  normal form, kernels, cokernels, biproducts, mono/epi/iso decisions.
- ``abdiag``: diagrams of abelian groups (families and group actions
  among them), colimits and limits, (co)invariants, induced maps,
  coproduct-mono checks.
- ``harting``: the truncated category of finite words over a set and the
  coproduct expansion with its colimit comparison.
- ``verify``: harnesses that check the structural theorems on instances.
- ``documents`` and ``cli``: the JSON document format and command line.
"""

from .errors import (BudgetError, DocumentError, InputError, PreconditionError,
                     TruncationError)
from .intmat import IntMatrix, smith_normal_form
from .fincat import (FinCategory, FinFunctor, ZigZag, chain_category,
                     comma_category, cone_search, diamond_category,
                     discrete_category, find_zigzag, group_as_category,
                     is_connected, is_filtered, is_final, is_sifted,
                     product_category, validate_category)
from .setdiag import (FinSet, SetFunctor, commute_check, fixed_points,
                      restrict_along, set_colimit, set_limit)
from .abgrp import (AbHom, FGAbGroup, are_isomorphic, biproduct, cokernel,
                    cyclic, describe_form, direct_sum, free_abelian, group_from_presentation,
                    hom, hom_equal, is_epi, is_mono, kernel)
from .abdiag import (AbDiagram, ab4_check, ab_colimit, ab_limit,
                     coinvariants, generator_check, gmodule, induced_map_on_colimits,
                     invariants)
from .harting import (HXCategory, HXMorphism, HXObject, h_embedding,
                      harting_compare, harting_expand, hx_category, hx_coproduct)

__version__ = "0.1.0"
