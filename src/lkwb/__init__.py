"""lkwb: exact-arithmetic workbench for the Lawrence-Krammer representation.

Constructs the representation of the BMW algebra over exact ground fields
(Q, Q(l,r), Q(r), Q[x]/(f)), decides reducibility at specialized parameters
via the kernel of a distinguished test element, and certifies the
dimensions and uniqueness of the invariant subspaces at every
reducibility locus.
"""

from .scalars import (
    QQ,
    QLR,
    QR,
    AlgebraicNumber,
    LaurentPoly,
    NumberField,
    Rat,
    RatFunc,
    cyclotomic_field,
    field_arith,
    m_of_r,
    rat,
    specialize,
    substitute_locus,
)
from .linalg import (
    Matrix,
    SubspaceBasis,
    charpoly,
    commutant_basis,
    det,
    find_invertible_submatrix,
    inverse,
    is_invariant,
    kernel,
    operator_closure,
    rank,
    subspace_intersect,
)
from .lkrep import (
    LKParams,
    LKRep,
    build_rep,
    build_sigma,
    param_map,
    rational_rep,
    semisimplicity_guard,
    substituted_rep,
    symbolic_rep,
    verify_relations,
)
from .reducibility import (
    GENERIC,
    KernelReport,
    Locus,
    MnMatrix,
    build_m_matrix,
    catalog,
    certify,
    det_on_locus,
    indecomposability_probe,
    kernel_k,
    lower_intersection,
    minimal_invariant,
    named_locus,
    one_dim_subspaces,
    persistent_vector_check,
    scan,
)

__version__ = "0.1.0"
