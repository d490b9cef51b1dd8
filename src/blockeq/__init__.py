"""blockeq: exact-arithmetic matrix equivalence toolkit.

Poset-blocked integer matrices, SL/GL-blocked equivalence with a three-valued
semi-decision engine (verified witness / invariant certificate / budget
report), flow-equivalence invariants and reductions for shifts of finite
type, and isomorphism of Z-quiver representations and K-webs.
"""

from .intmat import (
    DimensionError,
    FgAbelianGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    determinant,
    kernel_basis,
    smith_normal_form,
)
from .poset_block import (
    GL,
    SL,
    UNIT_RESTRICTED,
    BlockShape,
    BlockStructureError,
    BlockedMatrix,
    Poset,
    ShapeError,
    antichain_poset,
    blocked_identity,
    chain_poset,
    elementary_generators,
    group_membership,
    iota_embed,
    multiply_blocked,
    validate_membership,
)
from .equiv import (
    SIDE_UAV,
    SIDE_UAV_INV,
    BudgetReport,
    Certificate,
    InvariantProfile,
    SearchBudget,
    Verdict,
    decide_blocked_equivalence,
    decide_with_unit,
    invariant_profile,
)
from .sft import (
    CondensedForm,
    FlowInvariant,
    SftMatrix,
    bowen_franks,
    condense,
    decide_flow_equivalence,
    is_irreducible,
    parry_sullivan,
    stabilization_target,
)
from .quiver import (
    Edge,
    KWeb,
    PresentedGroup,
    Quiver,
    ZRep,
    build_kweb,
    decide_kweb_isomorphism,
    decide_rep_isomorphism,
    is_morphism,
)

__version__ = "0.1.0"
KERNEL_BACKEND = "python"  # the only kernel backend; kept for callers that record it
