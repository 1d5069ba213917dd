"""Schensted combinatorics, the left action of words on columns, and the
finite monoid it generates, together with set-partition evacuation, a
confluent column rewriting system, and syntactic-congruence checks.
"""

from .core import (
    Alphabet,
    Letter,
    LetterSet,
    Word,
    parse_letter,
    parse_word,
    render_word,
    shift_down_word,
    support,
    theta,
)
from .tableaux import (
    Tableau,
    longest_strictly_decreasing,
    p_tableau,
    young_leq,
)
from .columns import (
    act_letter,
    act_word,
    column_leq,
    kernel_interval,
    parse_column,
    render_column,
)
from .monoid import (
    NTableau,
    SetPartition,
    StylicMonoid,
    bell_number,
    delta_word,
    enumerate_styl,
    from_partition,
    left_insert,
    n_insert,
    n_tableau,
    parse_partition,
    pi,
    to_partition,
)
from .evacuation import (
    SkewPartition,
    build_pyramid,
    delta_direct,
    delta_jdt,
    evac,
    evac_via_pyramid,
    jdt,
    partition_chain,
)
from .rewriting import (
    column_pair_reduce,
    congruence_equal,
    knuth_relations,
    local_confluence_check,
    normalize_column_word,
    stylic_relations,
)
from .syntactic import (
    lambda_shape,
    left_syntactic_check,
    plactic_left_syntactic_check,
    plactic_separator,
    syntactic_monoid_check,
)

__version__ = "0.1.0"
