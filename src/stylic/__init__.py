"""Schensted combinatorics, the left action of words on columns, and the
finite monoid it generates, together with set-partition evacuation, a
confluent column rewriting system, and syntactic-congruence checks.

Importing the package loads none of its modules: each exported name's
module is imported when the name is first looked up (PEP 562), and the
value is then kept in the package globals, so later lookups are plain
attribute reads.  A command line that enumerates the monoid never pays for
the verification suites.
"""

from importlib import import_module

# Each module and the names the package exports from it.
_EXPORTS = {
    "core": (
        "Alphabet", "Letter", "LetterSet", "Word", "parse_letter", "parse_word",
        "render_word", "shift_down_word", "support", "theta",
    ),
    "tableaux": (
        "Tableau", "longest_strictly_decreasing", "p_tableau", "young_leq",
    ),
    "columns": (
        "act_letter", "act_word", "column_leq", "kernel_interval", "parse_column",
        "render_column",
    ),
    "monoid": (
        "NTableau", "SetPartition", "StylicMonoid", "bell_number", "delta_word",
        "enumerate_styl", "from_partition", "left_insert", "n_insert", "n_tableau",
        "parse_partition", "pi", "to_partition",
    ),
    "evacuation": (
        "SkewPartition", "build_pyramid", "delta_direct", "delta_jdt", "evac",
        "evac_via_pyramid", "jdt", "jdt_all_results", "partition_chain",
        "pyramid_by_completion",
    ),
    "rewriting": (
        "column_pair_reduce", "congruence_equal", "congruence_reaches", "knuth_relations",
        "local_confluence_check", "normalize_column_word", "stylic_relations",
        "tableau_column_word",
    ),
    "syntactic": (
        "lambda_shape", "left_syntactic_check", "plactic_left_syntactic_check",
        "plactic_separator", "syntactic_monoid_check",
    ),
    "verify": ("all_labelled_skews",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
