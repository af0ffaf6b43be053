"""
Syndrome decoding with Groebner remainders
==========================================

The syndrome of a received word is the remainder of its polynomial form
modulo the Groebner basis of the code ideal.  Errors at "high" positions
(square-free monomials X_I with |I| >= l) leave footprints described by
hat sets, and the paper's search over candidate locations
(``decode_search``) recovers them.  ``decode`` returns the same result
in polynomial time.
"""

from rmgb import (
    CodeParams,
    Word,
    decode,
    decode_search,
    format_poly,
    hat_set,
    ml_decode_bruteforce,
    syndrome,
    word_to_poly,
)

params = CodeParams(3, 2)  # n=8, k=4, d=4, corrects t=1 error

v = Word.from_string("10100010")
print("received v  =", v)
print("as a polynomial:", format_poly(word_to_poly(v)))

s = syndrome(v, params)
print("syndrome    =", format_poly(s.remainder), f"(weight {s.weight})")

# Hat sets: the remainder of a single error monomial X_I, recorded as
# the index subsets appearing in it.  Below the threshold the monomial
# survives division untouched; at the threshold it smears out over all
# proper subsets of I.
for location in [frozenset({1}), frozenset({2, 3}), frozenset({1, 2, 3})]:
    h = hat_set(location, params)
    pretty = sorted(tuple(sorted(x)) for x in h.hat)
    print(f"hat set of X_{sorted(location)}: {pretty}")

result = decode(v, params)
print("\nstatus          :", result.status)
print("decoded codeword:", result.codeword)
print("error estimate  :", format_poly(result.error))
print("chosen locations:", [sorted(i) for i in result.chosen_locations])

# Sanity: the decoded word plus the error word gives back v, and a
# brute-force nearest-codeword search agrees.
ml = ml_decode_bruteforce(v, params)
assert ml.codeword == result.codeword and not ml.is_tie
print("agrees with maximum-likelihood brute force at distance", ml.distance)

# decode reads a single error location for l = 2 straight off the
# syndrome's degree-one part (and runs Reed's majority logic for l >= 3).
# The paper's search over candidate location sets gives the same answer.
assert decode_search(v, params) == result
print("the remainder search over candidate locations returns the same result")

# A word beyond the correction radius is reported, not guessed.
hopeless = Word.from_string("11000000")
print("\ndecode(11000000):", decode(hopeless, params).status)
print("(two errors with d = 4 cannot be corrected; ML search finds a tie:",
      ml_decode_bruteforce(hopeless, params).is_tie, ")")
