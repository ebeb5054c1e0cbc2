"""Galois closures of permutation groups over small alphabets."""

from .budgets import Budgets, default_budgets
from .errors import (
    BudgetExceeded,
    CatalogValidationError,
    DegreeMismatch,
    ParseError,
    PermcloseError,
    UnknownGroupName,
)
from .perm import (
    PermGroup,
    Permutation,
    compose,
    conjugate,
    direct_product,
    format_perm,
    generate_group,
    identity,
    index2_subdirect,
    inverse,
    is_primitive,
    is_transitive,
    orbits_on_points,
    parse_perm,
    read_group_file,
    sign,
)
from .tuples import (
    OrbitPartition,
    TupleSpace,
    orbit_partition,
)
from .closure import (
    ChainReport,
    ClosureReport,
    FunctionTable,
    MinCodomainReport,
    NotRepresentable,
    closure_chain,
    closure_kearnes,
    closure_naive,
    closure_pruned,
    closure_report,
    galois_closure,
    invariance_group,
    is_closed,
    is_k_thick,
    min_codomain,
    min_codomain_report,
    orbit_coloring,
    orbit_equivalent,
)
from .classify import (
    FormKind,
    MainVerifyReport,
    NonClosedForm,
    check_wielandt_containment,
    classify_main,
    degree7_panel,
    verify_main,
    wielandt_closure,
)
from .subgroups import (
    ChainCensus,
    SubgroupCatalog,
    Table1Report,
    all_subgroups,
    chain_length_census,
    reference_table_rows,
    table1_report,
)
from .catalog import (
    CatalogEntry,
    PrimitiveClosureReport,
    SeressReport,
    catalog_entries,
    catalog_names,
    get_group,
    primitive_3closed_report,
    primitive_survey_names,
    seress_report,
    survey_candidates,
)

__version__ = "0.1.0"
