"""frsurf: exact-arithmetic toolkit for log surface germs.

Weighted resolution dual graphs with exact intersection theory, bounded
search and verification of N-complements, the coefficient-surgery pipeline
producing global F-regularity certificates, and monomial-criterion tests
for boundary divisors on the projective line.
"""

from .bstar import GfrCertificate, PipelineError, gfr_certificate, reverify_certificate
from .complements import (
    ComplementCertificate,
    ComplementHypothesisError,
    minimal_complement,
    search_complement,
    verify_complement,
)
from .fedder import (
    FRegCertificate,
    FRegVerdict,
    P1Pair,
    fedder_exponents,
    hara_table,
    is_globally_F_regular,
    test_at,
    verify_witness,
)
from .graphs import (
    DualGraph,
    GraphError,
    LogPair,
    NotNegativeDefiniteError,
    Vertex,
    classify,
    diff_on_component,
    dot_against_exceptionals,
    is_negative_definite,
    pullback_coefficients,
)
from .padic import binom_mod_p, ceil_mul, exists_dominated_in_interval, is_prime
from .rationals import format_rational, is_standard, parse_rational, std_replace

__version__ = "0.1.0"
