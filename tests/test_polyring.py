import copy
import pickle
import random
import re

import pytest

from rmgb.polyring import (
    EXPONENT_CAP,
    GRLEX,
    LEX,
    MEMO_LIMIT,
    ORDERS,
    MonomialPacking,
    Poly,
    format_poly,
    pack_polys,
    parse_poly,
    shared_packing,
)
from tuple_toolkit import mono_div, mono_divides, mono_lcm, mono_mul, monomial_key, mul


def mono_cmp(a, b, order=GRLEX):
    """Three-way comparison of monomials: -1, 0 or 1."""
    if len(a) != len(b):
        raise ValueError("cannot compare monomials in different variable counts")
    key = monomial_key(order)
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


def test_cmp_lex_leftmost_difference():
    assert mono_cmp((1, 0, 0), (0, 1, 0), LEX) == 1
    assert mono_cmp((0, 1, 0), (1, 0, 0), LEX) == -1
    assert mono_cmp((1, 2, 3), (1, 2, 3), LEX) == 0


def test_cmp_grlex_degree_first_then_lex():
    assert mono_cmp((0, 2, 0), (1, 0, 0), GRLEX) == 1
    assert mono_cmp((1, 1, 0), (1, 0, 1), GRLEX) == 1
    assert mono_cmp((1, 0, 1), (1, 1, 0), GRLEX) == -1


def test_cmp_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        mono_cmp((1, 0), (1, 0, 0))


def test_mono_mul_and_identity():
    assert mono_mul((1, 0), (0, 1)) == (1, 1)
    assert mono_mul((1, 0), (1, 0)) == (2, 0)
    assert mono_mul((3, 1), (0, 0)) == (3, 1)


def test_mono_mul_overflow():
    with pytest.raises(ValueError):
        mono_mul((EXPONENT_CAP, 0), (1, 0))


def test_mono_divides_and_div():
    assert mono_divides((1, 0), (1, 1))
    assert mono_div((1, 1), (1, 0)) == (0, 1)
    assert not mono_divides((1, 1), (1, 0))
    assert mono_divides((0, 0, 0), (4, 1, 2))
    with pytest.raises(ValueError):
        mono_div((1, 0), (1, 1))


def test_mono_lcm():
    assert mono_lcm((2, 0, 1), (1, 1, 1)) == (2, 1, 1)


def test_poly_add_cancellation():
    f = parse_poly("x1 + 1", 2)
    g = parse_poly("x1 + x2", 2)
    assert f + g == parse_poly("x2 + 1", 2)
    assert f + Poly(2) == f
    h = parse_poly("x2*x3 + x2 + x3 + 1", 3)
    assert not (h + h)
    with pytest.raises(TypeError, match="^expected Poly, got int$"):
        f + 1


def test_poly_mul_radical_generator():
    x1p1 = parse_poly("x1 + 1", 3)
    x2p1 = parse_poly("x2 + 1", 3)
    assert x1p1 * x2p1 == parse_poly("x1*x2 + x1 + x2 + 1", 3)


def test_poly_mul_char2_square():
    f = parse_poly("x1 + 1", 1)
    assert f * f == parse_poly("x1^2 + 1", 1)
    assert f * parse_poly("1", 1) == f


def test_duplicates_cancel_in_constructor():
    assert Poly(2, [(1, 0), (1, 0)]) == Poly(2)
    assert Poly(2, [(1, 0), (0, 1), (1, 0)]) == Poly(2, [(0, 1)])


def test_constructor_validation():
    with pytest.raises(ValueError):
        Poly(2, [(1, 0, 0)])
    with pytest.raises(ValueError):
        Poly(2, [(EXPONENT_CAP + 1, 0)])
    with pytest.raises(ValueError):
        Poly(0)
    with pytest.raises(ValueError):
        Poly(17)
    for mono in ((1, -1), (1, 1.0)):
        with pytest.raises(ValueError, match=re.escape(f"bad exponent in monomial {mono}") + "$"):
            Poly(2, [mono])


def test_leading_and_multideg():
    f = parse_poly("x1*x2 + x1 + x2 + 1", 3)
    assert f.leading(GRLEX) == (1, 1, 0)
    assert parse_poly("1", 3).leading() == (0, 0, 0)
    assert parse_poly("x1 + x2 + x3", 3).leading(GRLEX) == (1, 0, 0)
    with pytest.raises(ValueError):
        Poly(3).leading()


def test_parse_basic():
    f = parse_poly("x1*x2 + x1 + x2 + 1", 3)
    assert f.support == {(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0)}
    assert parse_poly("0", 3) == Poly(3)
    assert parse_poly("  x1 ^ 2 * x1 ", 2) == Poly(2, [(3, 0)])


def test_parse_variable_aliases_and_minus():
    assert parse_poly("y1*Y2", 2) == parse_poly("x1*x2", 2)
    assert parse_poly("X1 - 1", 2) == parse_poly("x1 + 1", 2)


def test_parse_errors():
    for bad in ["", "x1 +", "x0", "x3", "x1**2", "z1", "x1^", "1 1"]:
        with pytest.raises(ValueError):
            parse_poly(bad, 2)


def test_format_roundtrip_and_descending_order():
    texts = [
        "x1*x2 + x1 + x2 + 1",
        "x1*x3 + x1 + x3 + 1",
        "x2*x3 + x2 + x3 + 1",
    ]
    for text in texts:
        assert format_poly(parse_poly(text, 3)) == text
    f = parse_poly("1 + x2 + x1^2", 2)
    assert format_poly(f, GRLEX) == "x1^2 + x2 + 1"
    assert format_poly(Poly(2)) == "0"
    assert format_poly(parse_poly("x2 + x1^3", 2), LEX) == "x1^3 + x2"


def test_format_poly_y_variables():
    assert format_poly(parse_poly("y1*y2", 2)) == "x1*x2"


def test_order_is_total_and_multiplicative():
    rng = random.Random(99)
    for order in (LEX, GRLEX):
        key = monomial_key(order)
        for _ in range(300):
            a = tuple(rng.randint(0, 2) for _ in range(3))
            b = tuple(rng.randint(0, 2) for _ in range(3))
            c = tuple(rng.randint(0, 2) for _ in range(3))
            # antisymmetry and totality
            assert (key(a) < key(b)) + (key(b) < key(a)) + (a == b) == 1
            # compatibility with multiplication
            if key(a) > key(b):
                assert key(mono_mul(a, c)) > key(mono_mul(b, c))


def test_ring_axioms_random():
    rng = random.Random(7)

    def rand_poly():
        return Poly(3, [tuple(rng.randint(0, 1) for _ in range(3))
                        for _ in range(rng.randint(0, 5))])

    for _ in range(200):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        if f and g:
            assert (f * g).leading() == mono_mul(f.leading(), g.leading())


def test_poly_hash_and_immutability():
    f = parse_poly("x1 + 1", 2)
    g = parse_poly("1 + x1", 2)
    assert hash(f) == hash(g) and f == g
    assert len({f, g}) == 1
    with pytest.raises(AttributeError):
        f.m = 3


def test_variable_and_monomial_constructors():
    assert Poly(3, [(0, 1, 0)]) == parse_poly("x2", 3)
    with pytest.raises(ValueError):
        parse_poly("x4", 3)
    assert Poly(2, [(1, 1)]) == parse_poly("x1*x2", 2)


def outcome(fn, *args):
    """``fn(*args)``, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_packing_agrees_with_exponent_tuples():
    rng = random.Random(31)
    overflows = 0
    for order in ORDERS:
        key = monomial_key(order)
        for m in (1, 2, 5, 16):
            packing = MonomialPacking(m, order)
            for _ in range(200):
                a, b = (tuple(rng.randint(0, EXPONENT_CAP) for _ in range(m)) for _ in range(2))
                pa, pb = packing.pack(a), packing.pack(b)
                assert packing.unpack(pa) == a
                assert (pa < pb) == (key(a) < key(b))
                assert (not (pb - pa) & packing.guard) == mono_divides(a, b)  # the inline divisibility test
                assert packing.lcm(pa, pb) == packing.pack(mono_lcm(a, b))
                assert ((pa + pb + packing.room) & packing.guard == 0) == all(
                    x + y <= EXPONENT_CAP for x, y in zip(a, b))
                if max(map(sum, zip(a, b))) <= EXPONENT_CAP:
                    assert pa + pb == packing.pack(mono_mul(a, b))
                if mono_divides(a, b):
                    assert pb - pa == packing.pack(mono_div(b, a))
            # Poly.leading and format_poly order terms by the packing; each
            # polynomial holds permutations of one monomial, so degrees tie
            for _ in range(50):
                base = [rng.randint(0, EXPONENT_CAP) for _ in range(m)]
                terms = [tuple(rng.sample(base, m)) for _ in range(4)]
                terms.append(tuple(rng.randint(0, EXPONENT_CAP) for _ in range(m)))
                f = Poly(m, terms)
                want = sorted(f.support, key=key, reverse=True)
                if f:
                    assert f.leading(order) == want[0]
                    assert format_poly(f, order) == " + ".join(format_poly(Poly(m, [t])) for t in want)
            if m > 5:
                continue
            # Poly.__mul__ on packed ints: the product, or the overflow error of
            # the first product over the cap in the tuple rule's iteration order
            for _ in range(200):
                cap = rng.choice((1, 2, EXPONENT_CAP))
                f, g = (Poly(m, [tuple(rng.randint(0, cap) for _ in range(m))
                                 for _ in range(rng.randint(0, 4))]) for _ in range(2))
                want, got = (outcome(mul, f, g), outcome(Poly.__mul__, f, g))
                assert got == want, (f, g)
                overflows += isinstance(want, str)
    assert 0 < overflows < 2 * 3 * 200


def test_pickle_and_copy_round_trip():
    f = parse_poly("x1^2*x3 + x2 + 1", 3)
    copies = [pickle.loads(pickle.dumps(f, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for g in copies + [copy.copy(f), copy.deepcopy(f)]:
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f)


def test_pack_polys_shares_one_packing_per_variables_and_order():
    f, g = parse_poly("x1 + x2", 2), parse_poly("x1*x2 + 1", 2)
    assert pack_polys([f], LEX)[0] is pack_polys([g], LEX)[0] is shared_packing(2, LEX)
    assert pack_polys([f], GRLEX)[0] is shared_packing(2, GRLEX) is not shared_packing(2, LEX)
    assert pack_polys([parse_poly("x1", 3)], LEX)[0] is shared_packing(3, LEX) is not shared_packing(2, LEX)
    with pytest.raises(ValueError, match="unknown monomial order"):
        shared_packing(2, "revlex")


def test_conversion_memos_stay_within_their_bound():
    # more distinct monomials than a memo holds: each memo stays full, and
    # every conversion still agrees with a packing that saw none
    rng = random.Random(33)
    for order in ORDERS:
        packing = MonomialPacking(16, order)
        monos = list({tuple(rng.randint(0, EXPONENT_CAP) for _ in range(16)) for _ in range(MEMO_LIMIT + 500)})
        assert len(monos) > MEMO_LIMIT
        for round_ in range(2):
            for k, mono in enumerate(monos):
                p = packing.pack(mono)
                assert packing.unpack(p) == mono
                assert packing.lcm(p, 0) == p  # 0 packs the monomial 1
                if round_:
                    other, fresh = monos[k - 1], MonomialPacking(16, order)
                    assert p == fresh.pack(mono)
                    assert packing.lcm(p, packing.pack(other)) == fresh.pack(mono_lcm(mono, other))
            for memo in (packing.pack, packing.unpack, packing.lcm):
                assert memo.cache_info().currsize == MEMO_LIMIT
