"""froblab: exact positive-characteristic commutative algebra over F_p.

Canonical polynomials and Groebner bases, Frobenius bracket powers and
non-splitting ideals in hypersurface rings, Fedder/Glassbrenner-type
criteria, F-pure-threshold lower bounds, symbolic powers relative to asserted
prime data, and executable containment checks with a curated example
registry.
"""

from .errors import BudgetExceeded, ExponentOverflow, ParseError, RingMismatch
from .rings import (
    Polynomial,
    RingDescriptor,
    format_poly,
    make_ring,
)
from .parsing import parse_gens, parse_poly, parse_ring
from .groebner import (
    GroebnerBasis,
    GroebnerBudget,
    Ideal,
    ideal_equal,
    ideal_member,
    ideal_subset,
    normal_form,
    poly_divide_exact,
)
from .idealops import (
    PolyMatrix,
    bracket_power,
    brute_membership_oracle,
    eliminate,
    ideal_colon,
    ideal_intersect,
    ideal_power,
    ideal_product,
    ideal_sum,
    maximal_ideal,
    minors,
    monomial_intersect,
    saturate,
)
from .quotient import HypersurfaceRing, q_ideal
from .frobenius import (
    CriterionVerdict,
    FptEstimate,
    default_e_max,
    fedder_is_fpure,
    fpt_lower_bound,
    hypersurface_Ie,
    Ie_maximal,
    is_fpure_quotient,
    nu_e,
    sfr_witness_search,
)
from .symbolic import (
    PrimeData,
    big_height,
    is_squarefree_monomial,
    jacobian_ideal,
    jacobian_power_product,
    monomial_minimal_primes,
    primedata_for_squarefree,
    symbolic_power,
)
from .containment import (
    REGISTRY,
    ContainmentReport,
    check_fpt_containment,
    check_fpure_containment,
    check_sfr_containment,
    check_symbolic_into_Ie,
    ideal_from_masks,
    run_example,
    squarefree_antichains,
    xy_zk_setup,
)

__version__ = "0.1.0"
