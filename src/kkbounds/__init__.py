"""Exact and approximate lower bounds for face vectors of simplicial complexes.

The exact machinery (binomial cascades and their shadow bounds, plus the
colored variant built on Turán clique counts) is paired with closed-form
approximations and with explicit small complexes that serve as brute-force
oracles.  The kkbounds command line exposes bound evaluation, cascade display,
face-vector validation, CSV sweeps, and a self-test of the core invariants.

Importing the package loads none of its modules: each public name, and each
submodule named as an attribute, loads its module on first use (PEP 562), so
a command that needs only the cascade and the bounds never loads the
complexes or the self-test.
"""

_EXPORTS = {
    "approx": (
        "BoundReport", "SymmetricChain", "best_r", "bound_report", "bound_reports",
        "colorapprox_bound", "flag_r", "lovasz_bound", "lovasz_x", "noreasy_bound",
        "symmetric_chain", "withoutr_bound",
    ),
    "binomials": (
        "DEFAULT_ORACLE_LIMIT", "TuranGraph", "binom_real", "binomial",
        "turan_clique_count_oracle", "turan_coefficient", "turan_graph",
    ),
    "cascade": (
        "CascadeRep", "FaceVector", "ValidationResult", "cascade_decompose",
        "cascade_evaluate", "shadow_bound", "validate_face_vector",
    ),
    "colored": (
        "ColoredCascadeRep", "colored_cascade_decompose", "colored_cascade_evaluate",
        "colored_shadow_bound", "validate_colored_face_vector",
    ),
    "complexes": (
        "DEFAULT_MAX_FACES", "DEFAULT_VERTEX_LIMIT", "Graph", "SimplicialComplex",
        "clique_complex", "f_vector", "from_facets", "is_flag", "is_r_colorable",
        "one_skeleton", "random_complex", "realize_face_vector", "replicate",
        "revlex_complex", "revlex_ksets", "revlex_precedes", "serialize",
        "turan_clique_complex",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
