"""Exact cluster-algebra engine for finite types built from Coxeter elements."""

from .cartan import (
    CartanMatrix,
    InvalidCartanMatrix,
    bipartition,
    cartan_from_label,
    cartan_from_matrix_text,
    cartan_from_text,
    direct_sum,
    validate,
)
from .weyl import (
    Root,
    Weight,
    apply_word,
    reflect_root,
    reflect_weight,
    simple_root,
    weight_as_root,
)
from .coxeter import (
    CoxeterElement,
    InternalCheckError,
    InvalidCoxeterWord,
    InvalidMove,
    PiLabel,
    PrimitiveRelation,
    all_coxeter_elements,
    b_matrix,
    beta_roots,
    bipartite_element,
    clusters,
    compatibility_degree,
    compatibility_table,
    component_coxeter_number,
    coxeter_element,
    coxeter_number,
    cyclical_move,
    denominator,
    h_vector,
    label_weight,
    move_graph,
    pi_set,
    precedes,
    primitive_relations,
    root_compat,
    root_compat_table,
    sources,
    tau,
    weight_label,
)
from .poly import InexactDivision, LaurentPoly, PolyRing
from .algebra import (
    CapExceeded,
    ClusterVariableRecord,
    ExchangeGraph,
    Seed,
    explore,
    extract_record,
    label_variables,
    mutate,
    principal_seed,
    records_for,
    universal_primitive_relations,
    universal_seed,
)
from . import typea

__all__ = [name for name in dir() if not name.startswith("_")]
