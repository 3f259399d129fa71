"""Exact toolkit for net-regular strongly regular signed graphs."""

from .core import (
    MAX_VERTICES,
    SignedGraph,
    TriangleCensus,
    UGraph,
    all_positive,
    components,
    from_signed_edges,
    is_balanced,
    negation,
    negative_subgraph,
    net_degree,
    positive_subgraph,
    sign_with,
    square_entries,
    triangle_census,
    two_walk_counts,
    ugraph_from_edges,
)
from .iso import (
    are_isomorphic,
    automorphism_count,
    canonical_form,
    canonical_labeling,
    canonical_representative,
    decode_canonical,
    fingerprint,
)
from .params import FeasibleSet, ParamQuery, feasible_param_sets, negation_dual
from .regularity import (
    SrsgClass,
    SrsgParams,
    char_poly,
    classify,
    eq3_holds,
    extract_params,
    neg_walk_parity_ok,
    quadratic_check,
    srg_relation_eq1,
    verify_identity_eq2,
)
from .search import (
    Hit,
    SearchConfig,
    SearchReport,
    SearchStats,
    enumerate_negative_subgraphs,
    search_catalog,
    search_srsg,
)
from .sgio import (
    emit_graph6,
    emit_sg,
    export_dot,
    parse_graph6,
    parse_sg,
    parse_sg_file,
    read_graph6_file,
    write_graph6_file,
)

__version__ = "0.1.0"
