"""Exact symbolic engine for quantum cluster algebras with principal
coefficients: classical and quantum mutation, rank-2 scattering diagrams,
quantum theta functions via broken lines, the Fock-Goncharov /
Berenstein-Zelevinsky p* dictionary, and Poisson structure via
semi-classical limits.

Each layer loads on first use: ``qca.<name>`` and ``from qca import <name>``
import the module that defines the name when it is first read (PEP 562), so
``import qca`` compiles none of them.
"""

import importlib

# every public name, by the module that defines it
_EXPORTS = {
    "scalars": ("QPoleError", "QScalar", "TScalar", "qpow", "tpow", "tvar", "vpow"),
    "qtorus": ("QTorusElement", "SkewLattice"),
    "seeds": ("Chamber", "FixedData", "Seed", "cluster_chamber", "langlands_dual",
              "load_seed_file", "make_fixed_data", "save_seed_file"),
    "words": ("ExpansionError", "FactoredWord", "Series", "words_equal"),
    "mutation": ("apply_mutation_sequence", "mutate_a_classical", "mutate_a_word",
                 "mutate_word", "mutate_x_classical", "mutate_x_family",
                 "quantum_x_variables", "word_to_classical", "x_torus",
                 "XMutationStep"),
    "scatter": ("ConsistencyError", "ScatteringDiagram", "Wall",
                "appendix_b_closed_form", "complete_to_order", "initial_diagram"),
    "theta": ("BrokenLine", "enumerate_broken_lines", "greedy_T", "theta_function"),
    "duality": ("CompatibilityError", "CompatiblePair", "PStarHom", "PStarMap",
                "check_compatible_pair", "p1_star", "principal_compatible_pair"),
    "poisson": ("check_poisson_map", "poisson_bracket", "semiclassical_bracket"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # not cached in this namespace: each read sees the defining module's
    # current binding
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
