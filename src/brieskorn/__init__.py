"""Exact invariants of Brieskorn hypersurface singularities x^a + y^b + z^c.

Computes the integral-closure filtration of powers of the maximal ideal,
normal reduction numbers, geometric and fundamental genus, normal Hilbert
coefficients, the resolution dual graph, and the classification, all in
exact integer/rational arithmetic with independent cross-checks.
`invariants(t)` gathers every reported invariant of a triple in one record.
"""

from .classify import Invariants, invariants, verify_nr3_certificate
from .errors import FormulaInapplicableError, InternalCheckError
from .filtration import normal_hilbert_coefficients, nr_by_staircase_oracle, q_sequence
from .genus import geometric_genus
from .numtheory import hj_expand, mod_inverse_negation
from .resolution import (
    Cycle,
    DualGraph,
    SeifertData,
    build_dual_graph,
    dual_graph,
    fundamental_cycle,
    fundamental_genus,
    fundamental_genus_formula,
    fundamental_genus_oracle,
    seifert_data,
)
from .ring import (
    BrieskornTriple,
    Monomial,
    StaircaseIdeal,
    closure_of_m_power,
    colength,
    contains,
    multiply_by_Q,
    new_triple,
    power_membership_degree,
)

__version__ = "0.1.0"
