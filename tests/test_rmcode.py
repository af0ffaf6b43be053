import itertools
import random

import pytest

from rmgb.groebner import ideal_member
from rmgb.polyring import GRLEX, Poly, parse_poly
from rmgb.rmcode import (
    CodeParams,
    Word,
    berman_check,
    codewords,
    encode,
    groebner_basis,
    jennings_basis,
    message_monomials,
    min_weight_bruteforce,
    bit_subset,
    codeword_values,
    monomial_positions,
    poly_to_word,
    random_message,
    rank,
    square_relations,
    subset_bit,
    word_to_poly,
)
from tuple_toolkit import monomial_key, monomial_subset


def test_params_derived_values():
    p = CodeParams(3, 2)
    assert (p.n, p.nu, p.dim, p.min_distance, p.t) == (8, 1, 4, 4, 1)
    assert CodeParams(4, 3).dim == 5
    assert CodeParams(4, 2).dim == 11
    assert CodeParams(5, 2).dim == 26
    assert CodeParams(4, 3).t == 3
    assert CodeParams(4, 4).t == 7
    assert CodeParams(1, 0) == CodeParams(m=1, l=0)
    assert CodeParams(16, 8).n == 65536


def test_params_dim_complement_identity():
    # the code of power l and the one of power m-l+1 have complementary sizes
    for m in range(1, 17):
        for l in range(1, m + 1):
            assert CodeParams(m, l).dim + CodeParams(m, m - l + 1).dim == 1 << m


def test_params_validation():
    with pytest.raises(ValueError):
        CodeParams(0, 0)
    with pytest.raises(ValueError):
        CodeParams(17, 1)
    with pytest.raises(ValueError):
        CodeParams(3, 4)
    with pytest.raises(ValueError):
        CodeParams(3, -1)


def test_word_basics():
    w = Word.from_string("10100010")
    assert str(w) == "10100010"
    assert w.weight() == 3
    assert Word(4, 0).value == 0
    assert (w + w).value == 0
    assert w.flip(1) == Word.from_string("00100010")
    assert w.flip(8) == Word.from_string("10100011")


def test_word_validation():
    with pytest.raises(ValueError):
        Word(3, 8)
    with pytest.raises(ValueError):
        Word(0, 0)
    with pytest.raises(ValueError):
        Word.from_string("10a")
    with pytest.raises(ValueError):
        Word.from_string("")
    with pytest.raises(ValueError):
        Word(3, 1) + Word(4, 1)
    with pytest.raises(ValueError):
        Word(3, 1).flip(4)
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \^: 'Word' and 'int'$"):
        Word(4, 1) ^ 1


def test_word_value_must_be_an_int_in_range():
    with pytest.raises(ValueError, match="must be an int, got float"):
        Word(4, 2.0)
    with pytest.raises(ValueError, match="must be an int, got str"):
        Word(4, "3")
    for n in (1, 3, 64, 1 << 16):
        assert Word(n, 0).value == 0
        assert Word(n, (1 << n) - 1).weight() == n  # the top edge
        with pytest.raises(ValueError, match="out of range"):
            Word(n, 1 << n)
        with pytest.raises(ValueError, match="out of range"):
            Word(n, -1)


def test_monomial_positions_m3():
    assert monomial_positions(3) == (
        (1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0),
        (0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0),
    )


def test_monomial_positions_descending_lex():
    for m in range(1, 17):
        pos = monomial_positions(m)
        assert len(pos) == 1 << m
        assert pos[0] == (1,) * m and pos[-1] == (0,) * m
        assert all(pos[i] > pos[i + 1] for i in range(len(pos) - 1))
        # entry j is the m binary digits, X1 first, of 2^m - 1 - j
        assert pos == tuple(
            tuple((v >> (m - 1 - j)) & 1 for j in range(m))
            for v in range((1 << m) - 1, -1, -1)
        ), m


def test_subset_monomial_roundtrip():
    # the tuple helpers left the library; the bit map keeps their property
    assert subset_bit(4, {2, 4}) == 0b0101
    assert bit_subset(4, 0b0101) == frozenset({2, 4})
    assert subset_bit(3, set()) == 0 and bit_subset(3, 0) == frozenset()
    with pytest.raises(ValueError):
        subset_bit(3, {4})
    with pytest.raises(ValueError):
        subset_bit(3, {0})


def product_generators(m):
    """g_I for every subset I, keyed by I: jennings_basis(CodeParams(m, 0)), read by lead X_I."""
    return {monomial_subset(g.leading()): g for g in jennings_basis(CodeParams(m, 0))}


def test_product_generator_expansion():
    g = product_generators(3)
    assert g[frozenset({1, 2})] == parse_poly("x1*x2 + x1 + x2 + 1", 3)
    assert g[frozenset()] == parse_poly("1", 3)
    full = g[frozenset({1, 2, 3})]
    assert len(full) == 8  # one term per subset
    assert full.leading(GRLEX) == (1, 1, 1)
    with pytest.raises(ValueError, match="^index 4 out of range 1..3$"):
        subset_bit(3, {1, 4})


def test_product_generator_is_the_product_of_linear_factors():
    for m in range(1, 6):
        g = product_generators(m)
        assert len(g) == 1 << m
        for k in range(m + 1):
            for subset in itertools.combinations(range(1, m + 1), k):
                want = parse_poly("1", m)
                for i in subset:
                    want = want * parse_poly(f"x{i} + 1", m)
                assert g[frozenset(subset)] == want, (m, subset)


def test_groebner_basis_listing_order():
    basis = groebner_basis(CodeParams(3, 2))
    assert [str(g) for g in basis] == [
        "x1*x2 + x1 + x2 + 1",
        "x1*x3 + x1 + x3 + 1",
        "x2*x3 + x2 + x3 + 1",
    ]


def test_square_relations():
    assert [str(h) for h in square_relations(1)] == ["x1^2 + 1"]
    assert [str(h) for h in square_relations(3)] == ["x1^2 + 1", "x2^2 + 1", "x3^2 + 1"]
    for m in (0, -1, 17, 2.0, True):
        with pytest.raises(ValueError, match=f"^m must be in 1..16, got {m}$"):
            square_relations(m)


def test_jennings_basis_members_and_size():
    params = CodeParams(3, 2)
    basis = jennings_basis(params)
    assert len(basis) == params.dim == 4
    assert basis[0] == parse_poly("x1*x2*x3 + x1*x2 + x1*x3 + x2*x3 + x1 + x2 + x3 + 1", 3)
    G = list(groebner_basis(params))
    for b in basis:
        assert ideal_member(b, G)
    # degree-l slice comes last and matches the division basis
    assert basis[1:] == groebner_basis(params)


def test_word_poly_correspondence_golden():
    v = Word.from_string("10100010")
    assert word_to_poly(v) == parse_poly("x1*x2*x3 + x1*x3 + x3", 3)
    assert poly_to_word(word_to_poly(v)) == v


def word_to_poly_by_scan(w):
    """Reference: read every character of the word's bit string."""
    m = w.n.bit_length() - 1
    positions = monomial_positions(m)
    return Poly(m, [positions[i] for i, b in enumerate(str(w)) if b == "1"])


def test_word_to_poly_matches_string_scan():
    rng = random.Random(10)
    for m in range(1, 11):
        n = 1 << m
        words = [Word(n, 0), Word(n, 1), Word(n, 1 << (n - 1)), Word(n, (1 << n) - 1)]
        words += [Word(n, rng.getrandbits(n)) for _ in range(20)]
        words += [Word(n, sum(1 << b for b in rng.sample(range(n), min(n, 3)))) for _ in range(20)]
        for w in words:
            assert word_to_poly(w) == word_to_poly_by_scan(w), (m, str(w))


def poly_to_word_by_scan(f):
    """Reference: one digit per word position, read off the support; the inverse of ``word_to_poly_by_scan``."""
    return Word.from_string("".join("1" if mono in f.support else "0" for mono in monomial_positions(f.m)))


def test_word_poly_roundtrip_random():
    # both sides of poly_to_word's size rule: a support of more than n/4 + 32 terms is merged
    rng = random.Random(21)
    for m in [*range(1, 13), 16]:
        n = 1 << m
        words = [Word(n, 0), Word(n, (1 << n) - 1)]
        words += [Word(n, rng.getrandbits(n)) for _ in range(50 if m < 16 else 3)]
        words += [Word(n, sum(1 << b for b in rng.sample(range(n), min(n, 3)))) for _ in range(10)]
        polys = [word_to_poly(w) for w in words]
        for size in (n // 4 + 32, n // 4 + 33):
            if size <= n:
                polys += [Poly(m, rng.sample(monomial_positions(m), size)) for _ in range(5)]
        for f in polys:
            w = poly_to_word(f)
            assert w == poly_to_word_by_scan(f), (m, len(f))
            assert word_to_poly(w) == f
        for w in words:
            assert poly_to_word(word_to_poly(w)) == w
    with pytest.raises(ValueError):
        word_to_poly(Word(5, 0))
    with pytest.raises(ValueError):
        poly_to_word(parse_poly("x1^2", 2))


def test_encode_known_words():
    params = CodeParams(3, 2)
    assert str(encode(parse_poly("y1", 3), params)) == "11110000"
    assert str(encode(parse_poly("y2", 3), params)) == "11001100"
    assert str(encode(parse_poly("y3", 3), params)) == "10101010"
    assert str(encode(parse_poly("1", 3), params)) == "11111111"
    assert str(encode(parse_poly("0", 3), params)) == "00000000"


def test_encode_is_linear():
    rng = random.Random(3)
    params = CodeParams(4, 2)
    for _ in range(50):
        f = random_message(params, rng)
        g = random_message(params, rng)
        assert encode(f + g, params) == encode(f, params) + encode(g, params)


def test_encode_rejects_bad_messages():
    params = CodeParams(3, 2)
    with pytest.raises(ValueError):
        encode(parse_poly("y1*y2", 3), params)  # degree above nu = 1
    with pytest.raises(ValueError):
        encode(parse_poly("x1^2", 3), params)
    with pytest.raises(ValueError):
        encode(parse_poly("x1", 2), params)


def test_encoded_words_are_ideal_members():
    params = CodeParams(3, 2)
    G = list(groebner_basis(params))
    rng = random.Random(11)
    for _ in range(30):
        c = encode(random_message(params, rng), params)
        assert ideal_member(word_to_poly(c), G)


def test_codewords_enumeration():
    params = CodeParams(3, 2)
    words = list(codewords(params))
    assert len(words) == 16
    assert words[0] == Word(8, 0)
    assert len(set(words)) == 16
    with pytest.raises(ValueError):
        next(codewords(CodeParams(5, 2)))


def codewords_by_mask(params):
    """Reference enumeration: codeword mask XORs the encoded message monomials i set in mask."""
    rows = [encode(Poly(params.m, [mono]), params).value for mono in message_monomials(params)]
    for mask in range(1 << len(rows)):
        acc = 0
        for i, row in enumerate(rows):
            if (mask >> i) & 1:
                acc ^= row
        yield Word(params.n, acc)


def test_codeword_values_follow_mask_order():
    for m in range(1, 5):
        for l in range(m + 1):
            params = CodeParams(m, l)
            want = list(codewords_by_mask(params))
            assert list(codewords(params)) == want, (m, l)
            assert codeword_values(params) == tuple(w.value for w in want)


def test_message_monomials():
    params = CodeParams(3, 2)
    assert message_monomials(params) == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
    assert len(message_monomials(CodeParams(4, 2))) == 11


def test_message_monomials_match_grlex_sort():
    key = monomial_key(GRLEX)
    for m in range(1, 9):
        for l in range(0, m + 1):
            params = CodeParams(m, l)
            low = [mono for mono in monomial_positions(m) if sum(mono) <= params.nu]
            assert message_monomials(params) == tuple(sorted(low, key=key, reverse=True)), (m, l)


def test_berman_small():
    for m in range(1, 8):
        for l in range(0, m + 1):
            assert berman_check(CodeParams(m, l))


def test_berman_check_rejects_other_span(monkeypatch):
    # three independent weight-1 words: the rank of RM(1, 2), another span
    unit_rows = tuple(Poly(2, [mono]) for mono in monomial_positions(2)[:3])
    monkeypatch.setattr("rmgb.rmcode.jennings_basis", lambda params: unit_rows)
    params = CodeParams(2, 1)
    assert rank([poly_to_word(g).value for g in unit_rows]) == params.dim
    assert not berman_check(params)


def test_jennings_rank_matches_dim():
    for m in range(1, 6):
        for l in range(0, m + 1):
            params = CodeParams(m, l)
            rows = [poly_to_word(g).value for g in jennings_basis(params)]
            assert rank(rows) == params.dim


def test_min_weight_small():
    assert min_weight_bruteforce(CodeParams(3, 2)) == 4
    assert min_weight_bruteforce(CodeParams(2, 1)) == 2
    assert min_weight_bruteforce(CodeParams(4, 4)) == 16
    with pytest.raises(ValueError):
        min_weight_bruteforce(CodeParams(5, 3))


def test_random_message_deterministic():
    params = CodeParams(4, 2)
    a = random_message(params, random.Random(5))
    b = random_message(params, random.Random(5))
    assert a == b
    assert all(e <= 1 for mono in a.support for e in mono)  # square-free
    assert max(map(sum, a.support), default=-1) <= params.nu
    # the seeded stream: word position j of one n-bit getrandbits draw, most
    # significant first, selects monomial_positions(m)[j] if its degree is <= nu
    for m in range(1, 9):
        for l in range(0, m + 1):
            params = CodeParams(m, l)
            draw = format(random.Random(m * 10 + l).getrandbits(params.n), f"0{params.n}b")
            drawn = [mono for digit, mono in zip(draw, monomial_positions(m)) if digit == "1"]
            want = Poly(m, [mono for mono in drawn if sum(mono) <= params.nu])
            assert random_message(params, random.Random(m * 10 + l)) == want, (m, l)


def test_gf2_helpers():
    # rows written as bit strings; equal spans have the rank of their union
    a = [0b110, 0b011]
    b = [0b101, 0b011]
    assert rank(a) == 2
    assert rank(a) == rank(b) == rank(a + b)
    c = [0b100, 0b011]
    assert rank(a) == rank(c) == 2 and rank(a + c) == 3
    assert rank([0b00, 0b00]) == 0
    assert rank([]) == 0


def test_rank_matches_enumerated_span():
    rng = random.Random(4)
    for _ in range(300):
        width = rng.randint(1, 10)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 8))]
        if rows and rng.random() < 0.3:
            rows.append(rows[0] ^ rows[-1])  # force a dependency
        span = {0}
        for row in rows:
            span |= {x ^ row for x in span}
        assert len(span) == 1 << rank(rows), rows
