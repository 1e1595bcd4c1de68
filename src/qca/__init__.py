"""Exact symbolic engine for quantum cluster algebras with principal
coefficients: classical and quantum mutation, rank-2 scattering diagrams,
quantum theta functions via broken lines, the Fock-Goncharov /
Berenstein-Zelevinsky p* dictionary, and Poisson structure via
semi-classical limits.
"""

from .scalars import QPoleError, QScalar, TScalar, qpow, tpow, tvar, vpow
from .qtorus import QTorusElement, SkewLattice
from .seeds import (
    Chamber,
    FixedData,
    Seed,
    cluster_chamber,
    langlands_dual,
    load_seed_file,
    make_fixed_data,
    save_seed_file,
)
from .words import ExpansionError, FactoredWord, Series, words_equal
from .mutation import (
    apply_mutation_sequence,
    mutate_a_classical,
    mutate_a_word,
    mutate_word,
    mutate_x_classical,
    mutate_x_family,
    mu_prime_word,
    mu_sharp_word,
    quantum_x_variables,
    word_to_classical,
    x_torus,
    XMutationStep,
)
from .scatter import (
    ConsistencyError,
    ScatteringDiagram,
    Wall,
    appendix_b_closed_form,
    complete_to_order,
    initial_diagram,
    wall_crossing,
)
from .theta import (
    BrokenLine,
    enumerate_broken_lines,
    greedy_T,
    theta_coefficient,
    theta_function,
)
from .duality import (
    CompatibilityError,
    CompatiblePair,
    PStarHom,
    PStarMap,
    check_compatible_pair,
    p1_star,
    principal_compatible_pair,
)
from .poisson import check_poisson_map, poisson_bracket, semiclassical_bracket

__all__ = [
    "QPoleError", "QScalar", "TScalar", "qpow", "tpow", "tvar", "vpow",
    "QTorusElement", "SkewLattice",
    "Chamber", "FixedData", "Seed", "cluster_chamber", "langlands_dual",
    "load_seed_file", "make_fixed_data", "save_seed_file",
    "ExpansionError", "FactoredWord", "Series", "words_equal",
    "apply_mutation_sequence", "mutate_a_classical", "mutate_a_word",
    "mutate_word", "mutate_x_classical", "mutate_x_family", "mu_prime_word",
    "mu_sharp_word", "quantum_x_variables", "word_to_classical", "x_torus",
    "XMutationStep",
    "ConsistencyError", "ScatteringDiagram", "Wall", "appendix_b_closed_form",
    "complete_to_order", "initial_diagram", "wall_crossing",
    "BrokenLine", "enumerate_broken_lines", "greedy_T", "theta_coefficient",
    "theta_function",
    "CompatibilityError", "CompatiblePair", "PStarHom", "PStarMap",
    "check_compatible_pair", "p1_star", "principal_compatible_pair",
    "check_poisson_map", "poisson_bracket", "semiclassical_bracket",
]
