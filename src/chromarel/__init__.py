"""Exact chromatic analysis: colorings, polynomials, and the hidden
edge/identity relations that minimal stuck precolorings reveal."""

import importlib

# The public names of each module. A name resolves on first access
# (PEP 562), so a process imports only the modules it uses: `chromarel poly`
# never loads the relation scan or the check catalog.
_EXPORTS = {
    "graphs": ("Graph", "bipartition", "is_connected"),
    "io": ("FORMATS", "FormatError", "format_for_path", "parse_graph", "serialize_graph"),
    "coloring": ("Coloring", "chromatic_number", "count_colorings", "k_colorable"),
    "planarity": ("is_planar",),
    "polynomial": ("BudgetError", "chromatic_polynomial", "evaluate"),
    "relations": (
        "CriticalityReport", "ImplicitRelation", "RelationKind", "RouteDisagreementError",
        "criticality", "implicit_via_sets", "min_nonextensible", "scan_relations", "to_dot",
    ),
    "families": (
        "complete_bipartite", "complete_graph", "cycle_graph", "enumerate_graphs",
        "generate", "gnp", "grotzsch", "moser_spindle", "mycielski",
        "path_graph", "petersen", "planted", "wheel_graph",
    ),
    "checks": (
        "CHECKS", "CheckFailure", "CheckReport", "CorpusSpec",
        "default_corpus", "iter_corpus", "run_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
