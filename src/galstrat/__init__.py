"""Galois stratifications over finite-field proxies.

Exact symbolic machinery for the computable core of relative Galois
stratification theory: a first-order formula engine with brute-force
finite-field semantics, conjugation-domain calculus with quantifier
elimination as group-data transforms, Q-central character arithmetic, a
formal motive ring with a point-count specialization, the chi incarnation
map, and relative jet spaces with their Poincare series.  Everything is
cross-validated against exhaustive enumeration over declared primes.
"""

from .fields import FiniteField, distinct_degree_profile, make_field, power_residue
from .polynomials import Poly, parse_poly, poly_eval
from .formulas import (
    DefinableSet,
    Formula,
    check_definable_bijection,
    bijection_fiber_report,
    eval_formula,
    parse_formula,
    to_prenex,
)
from .groups import (
    ConjDomain,
    FiniteGroup,
    GroupHom,
    cyclic_group,
    direct_product,
    from_permutations,
    symmetric_group,
    trivial_group,
)
from .characters import (
    QCentralFunction,
    alpha_from_conj_domain,
    artin_decompose,
    artin_reconstruct,
    convolve,
    idempotent_coeffs,
    induce_central,
    inner_product,
    restrict_central,
)
from .covers import AdmissiblePrimes, CoverSpec, fiber_decomposition_order
from .stratifications import (
    Case1Datum,
    Case2Datum,
    EliminationEntry,
    EliminationPlan,
    GaloisFormula,
    GaloisStratification,
    RefinementChild,
    RefinementDatum,
    boolean_combine,
    complement,
    eliminate_case1,
    eliminate_case2,
    eliminate_existential,
    inflate,
    product,
    pullback,
    refine,
)
from .motives import (
    CountTable,
    MotiveClass,
    blowup_class,
    lefschetz_power,
    projective_space_class,
    specialize,
)
from .chi import (
    ChiReport,
    QuotientClassData,
    chi_c_alpha,
    chi_formula_class,
    chi_stratification,
    kummer_quotient_data,
    verify_specialization,
)
from .jets import (
    JetIdeal,
    count_jets,
    geometric_series_counts,
    igusa_series,
    jet_ideal,
    truncation_image,
)
from .fixtures import FixtureDoc, load_fixture

__version__ = "0.1.0"
