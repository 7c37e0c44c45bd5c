"""Exact symbolic engine for polynomial integro-differential operators.

Canonical forms and full arithmetic in one and several variables, the
involution, the action on polynomials, quotients onto skew Laurent algebras
with Euclidean division, and the complete ideal lattice in its antichain
encoding.
"""

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    EmptyFactorList,
    IndexOutOfRange,
    IntDiffOpError,
    LimitExceeded,
    ModeMismatch,
    NegativeExponent,
    OperatorSyntaxError,
    ZeroPolynomial,
)
from .polyh import PolyH, RatFunc, nonneg_shifted_roots
from .i1 import (
    DiffMon,
    HMon,
    I1Element,
    IntMon,
    MatUnit,
    PolyX,
    apply,
    decompose_lemma21,
    faithful_bound,
    generators,
    idempotent_sum,
    ker_right_mult_poly,
    matrix_of,
    mono_mul,
    project_B1,
)
from .laurent import B1Element, CalB1Element, left_divide, length, right_divide
from .tensor import (
    InElement,
    PolyXn,
    apply_n,
    from_i1,
    gen_e,
    gen_h,
    gen_integ,
    gen_partial,
    gen_x,
    ideal_membership,
    project_modulo_prime,
    tensor,
    to_i1,
)
from .lattice import (
    IdealAntichain,
    dedekind_bounds,
    enumerate_ideals,
    ideal_includes,
    ideal_product,
    ideal_sum,
    is_prime,
    maximal_ideal,
    minimal_primes_over,
    minimum_nonzero_ideal,
    normalize,
    prime_ideal,
)
from .opparser import format_operator, format_poly, parse_operator, parse_poly

__version__ = "0.1.0"
