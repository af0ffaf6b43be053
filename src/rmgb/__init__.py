"""Binary Reed-Muller codes as radical powers of F2[X]/(X_i^2-1),
with Groebner-basis machinery and remainder-syndrome decoding.
Exports the API that the README and demos use, plus the decode statuses."""

from .polyring import GRLEX, LEX, Poly, format_poly, mono_divides, parse_poly
from .division import divide, remainder
from .gf2 import bit_matrix, rank
from .groebner import (
    buchberger_complete,
    check_basis,
    ideal_member,
    reduce_basis,
    s_polynomial,
)
from .rmcode import (
    CodeParams,
    Word,
    berman_check,
    encode,
    groebner_basis,
    jennings_basis,
    message_monomials,
    min_weight_bruteforce,
    poly_to_word,
    random_message,
    word_to_poly,
)
from .decoder import (
    CLEAN,
    CORRECTED_LOW,
    CORRECTED_OMEGA,
    FAILURE,
    decode,
    decode_search,
    hat_set,
    ml_decode_bruteforce,
    random_error,
    syndrome,
)

__version__ = "0.1.0"
