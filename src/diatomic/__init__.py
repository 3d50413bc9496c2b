"""Christoffel, central, and standard words; the Raney and Stern-Brocot
trees; Stern's diatomic sequence.

Words are plain strings over the letters a and b.  The package connects
three views of the same objects: palindromization images and their
period pairs, fraction labels on the two classical binary trees, and
Stern's sequence read along the tree numbering.

Every submodule keeps its own name here: the function ``stern`` is
imported from :mod:`diatomic.stern`.
"""

from .christoffel import (
    ChristoffelWord,
    christoffel_by_directive,
    christoffel_by_slope,
    christoffel_of_word,
    is_standard,
    lyndon_factorization,
    standard_by_coefficients,
)
from .continuants import cf_terms, cf_value, christoffel_length_cf, continuant, fib, mirror_formula
from .distribution import (
    BoundReport,
    LengthHistogram,
    almost_alternating,
    alternating,
    bound_report,
    counts_for_length,
    histogram,
    max_count_lower_bound,
    totient,
    word_class,
)
from .fracs import Frac, frac
from .palindromes import (
    mu,
    min_period_central,
    pal_closure,
    period_pair,
    psi,
    psi_inverse,
    psi_prefix,
)
from .stern import (
    DeltaExpansion,
    FactorDecomposition,
    delta_expansion,
    factor_decomposition,
    initial_subword_count,
    length_by_subword_count,
    marked_occurrences,
    period_by_subword_count,
    reverse_bits,
    ruler,
    stern_factor_identity,
    stern_via_christoffel,
    stern_via_integral_continuant,
    stern_via_subwords,
    stern_via_zeta,
    zeta,
    zeta_sterns,
)
from .trees import TreeNode, nu, nu_inverse, path_of_fraction, ra_of, raney, stern_brocot, tree_node
from .words import (
    BudgetError,
    complement,
    decode,
    encode,
    factor_count,
    integral_rep,
    is_constant,
    is_lyndon,
    min_period,
    plus_prefix,
    plus_suffix,
    reduced_rep,
    subword_binomial,
    word_of,
)

__version__ = "0.1.0"
