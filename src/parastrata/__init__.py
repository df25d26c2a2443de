"""parastrata: exact-arithmetic bookkeeping for parabolic bundle data.

The package decides everything exactly (rationals and cyclotomic
numbers, never floats): parabolic degrees, slopes and genericity walls;
push-forward and pull-back of weighted flag data along cyclic covers;
nested eigenbases and descent for finite-order flag automorphisms;
enumeration of fixed-point strata with exact dimension and codimension
accounting; and Weyl-group / flag-variety Poincare polynomials with
Picard-rank assembly.  A JSON command-line frontend lives in
``parastrata.cli``.
"""

from .exact import (
    RATIONALS,
    Cyclotomic,
    CyclotomicField,
    ExactMatrix,
    IntPolynomial,
    charpoly,
    cyclotomic_field,
    cyclotomic_polynomial,
    hessenberg,
    inverse,
    kernel,
    rank,
    reduced_row_basis,
    rref,
    solve,
)
from .parabolic import (
    GenericityWitness,
    ParabolicDatum,
    PointWeights,
    genericity_witness,
    is_generic,
    par_degree,
    par_slope,
)
from .cover import (
    CoverSpec,
    covering_genus,
    galois_twist,
    pullback,
    pushforward,
    pushforward_point,
)
from .eigenflag import (
    DescentResult,
    EigenVector,
    FlagAutomorphism,
    NestedEigenbasis,
    WeightedFlag,
    check_parabolic_morphism,
    descend,
    fixed_point_shape,
    nested_eigenbasis,
)
from .strata import (
    CodimReport,
    ModuliSpec,
    MultiplicityMatrix,
    StratumIndex,
    codim_report,
    enumerate_matrices,
    enumerate_strata,
    enumerate_stratum_indices,
    flag_dimension,
    margin_tables,
    matrix_flag_term,
    matrix_to_multiplicity_system,
    moduli_dimension,
    point_survey,
    point_systems,
    stratum_dimension,
    subset_count,
    weight_subsets,
)
from .flagcoh import (
    CartanType,
    KunnethReport,
    ParabolicSubset,
    PoincarePolynomial,
    flag_poincare,
    fundamental_degrees,
    kunneth_report,
    levi_components,
    pic_rank_flag,
    weyl_bfs_order,
    weyl_poincare,
)

__version__ = "1.0.0"
