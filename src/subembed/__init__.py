"""Chief-series subgroup-embedding predicates for small finite permutation
groups, with the classification machinery they rest on and a corpus-wide
theorem-verification harness."""

__version__ = "0.1.0"

from .catalog import (
    Alt,
    Cyclic,
    Dihedral,
    Direct,
    ElemAbelian,
    GroupExpr,
    Perm,
    Quaternion8,
    SL23,
    Semidirect,
    Sym,
    build,
    builtin_corpus,
    parse_expr,
    parse_group_file,
)
from .classify import (
    ClassReport,
    class_report,
    f_star,
    fitting,
    fitting_p,
    hypercentre,
    is_abelian,
    is_nilpotent,
    is_p_nilpotent,
    is_p_soluble,
    is_p_supersoluble,
    is_soluble,
    is_supersoluble,
    nilpotent_residual,
    p_residual,
    radical_p,
    radical_p_prime,
    sylow,
    sylow_conjugates,
    sylow_of_subgroup,
    u_hypercentre,
)
from .embedding import (
    Refutation,
    Verdict,
    cap,
    gen_cap,
    partial_pi,
    partial_s_pi,
    s_qn_embedded,
    s_quasinormal,
)
from .errors import (
    CycleParseError,
    GroupFileError,
    InvariantError,
    ResourceCapError,
    SubembedError,
)
from .groups import FiniteGroup, generate_group
from .harness import (
    RunReport,
    THEOREM_IDS,
    TheoremInstance,
    check_instance,
    instances,
    run_corpus,
    standard_pool,
)
from .normal import (
    ChiefSeries,
    NormalLattice,
    QuotientMap,
    chief_series_enumerate,
    is_chief_factor,
    minimal_normals,
    normal_closure,
    normal_lattice,
    quotient,
    subgroup_as_group,
)
from .perms import Permutation, format_cycles, parse_cycles
from .subgroups import (
    Subgroup,
    center,
    centralizer,
    cyclic_subgroups_of_order,
    derived_subgroup,
    exponent,
    frattini_p,
    intersect,
    is_pi_number,
    lower_central_series,
    normalizer,
    omega,
    p_group_maximal_subgroups,
    p_part,
    product,
    span,
)
