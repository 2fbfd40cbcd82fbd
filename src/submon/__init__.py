"""Exact enumeration of submonoids of finite commutative monoids.

The package builds the weighted submonoid graph of a finite commutative
monoid, counts submonoids of the monoid times a chain through powers of
the adjacency matrix, extracts exact growth spectra in the idempotent
case, and realizes the correspondence with saturated transfer systems on
finite lattices.  All arithmetic is exact (big integers and fractions).
"""

from .closedforms import (
    abelian_group_count,
    chain_coefficient,
    chain_counts,
    chain_eigenvalues,
    ladder_eigenvalues,
    mk_eigenvalues,
    poly_bernoulli,
    stirling2,
)
from .errors import SubmonError
from .monoid import (
    CayleyMonoid,
    PartialOrder,
    from_spec,
    from_table,
    is_group,
    is_idempotent,
    join_monoid,
    make_bool,
    make_chain,
    make_cyclic_group,
    make_mk,
    make_n5,
    make_power,
    make_product,
    monoid_from_json,
    monoid_to_json,
    semilattice_order,
    validate,
)
from .spectral import (
    RationalOGF,
    Spectrum,
    chain_eigenmatrix,
    closed_form_eval,
    eigenvalues,
    ogf,
    solve_coefficients,
    spectrum_of,
    verify_recurrence,
)
from .submonoids import (
    SubmonoidLattice,
    enumerate_submonoids,
    ideal_row,
    inclusion_order,
)
from .transfer import (
    CountSequence,
    TransferMatrix,
    build_transfer_matrix,
    count_sequence,
)
from .transfersystems import (
    TransferRelation,
    chi,
    enumerate_saturated_transfer_systems,
    is_saturated_transfer_system,
    st_count_sequence,
    verify_graph_isomorphism,
)

__version__ = "0.1.0"
