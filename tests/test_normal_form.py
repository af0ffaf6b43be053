"""The memoized division kernel against the classical one and the tuple reference.

``division.packed_normal_form`` sums remembered remainders of single
monomials, where ``division.packed_remainder`` reduces each dividend from
scratch.  They must agree exactly: on ``check_basis`` reports, failing
pair and remainder included, and on ``divide``'s remainders and quotients.
``divide`` takes its remainder from the memo of its thread's slot when the
slot already holds its divisor list: from the second call by one list on,
or from the first after a ``check_basis`` of that list, which leaves its
memo there; it computes its quotients classically when they are first read.
The memo falls back to the classical kernel when a product passes the
exponent cap or when it fills up; both are pinned here.

Run as a script, ``python tests/test_normal_form.py M [COUNT]`` compares
the two kernels on COUNT seeded ideals of A (default 10) at one m too
slow for the suite, such as 10, under both orders: once with the check
before the divides, which it hands its memo, and once after them, when
it takes theirs.
"""

import random
import re
import sys
import threading
import time
from unittest import mock

import pytest

import tuple_toolkit as ref
from rmgb import division
from rmgb.division import divide, packed_normal_form, packed_remainder
from rmgb.groebner import buchberger_complete, check_basis, reduce_basis
from rmgb.polyring import GRLEX, LEX, pack_polys, parse_poly
from rmgb.rmcode import Word, word_to_poly
from test_packed_toolkit import _check_report_matches, random_poly, seeded_ideals
from test_rank_oracle import ideal_generators, reduced_basis

ORDERS = (LEX, GRLEX)
DIVIDENDS = 8  # per basis, as the benchmark's groebner workload divides
MEMO, CLASSICAL = (1, 0), (0, 1)  # kernel calls (memo, classical) of a divide by each kernel, with no fallback


def _classical(work, divisors, packing, memo):
    return packed_remainder(work, divisors, packing)


def classical_check(basis, order):
    """``check_basis`` with every pair reduced by the classical kernel."""
    with mock.patch("rmgb.groebner.packed_normal_form", _classical):
        return check_basis(basis, order)


def classical_remainder(f, basis, order):
    packing, packed = pack_polys(basis, order)
    return packing.poly(packed_remainder(set(map(packing.pack, f.support)), packed, packing))


def outcome(fn, *args):
    """The result of a call, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def compare_checks(basis, order, reference=True):
    assert outcome(check_basis, basis, order) == outcome(classical_check, basis, order)
    if reference:
        _check_report_matches(basis, order)


def compare_kernels(basis, dividends, order, reference=True, divides_first=False):
    """Pin ``check_basis`` and the divides by ``basis`` to the classical kernel
    and, with ``reference``, to the tuple toolkit.  The check comes first and
    hands the divides its memo, or with ``divides_first`` last and takes theirs."""
    if not divides_first:
        compare_checks(basis, order, reference)
    results = [kernel_calls(f, basis, order) for f in dividends]  # all by the memo the check left
    for f, (got, _) in zip(dividends, results):
        want = outcome(classical_remainder, f, basis, order)
        assert (got if isinstance(got, str) else got.remainder) == want
        if reference:
            assert got == outcome(ref.divide, f, basis, order)  # compares the quotients, read lazily
    if divides_first:
        compare_checks(basis, order, reference)
    else:
        assert all(isinstance(got, str) or memo_calls == 1 for got, (memo_calls, _) in results)
    packing, packed = pack_polys(basis, order)
    assert division._last.key == (packing, packed)


def kernel_calls(f, divisors, order):
    """The outcome of ``divide(f, divisors, order)`` and its calls to each kernel: (memo, classical).

    A memo-served divide makes one memo call, and one classical call when
    it falls back; a classical one makes one classical call alone.
    """
    with mock.patch.object(division, "packed_normal_form", wraps=packed_normal_form) as memo, \
            mock.patch.object(division, "packed_remainder", wraps=packed_remainder) as classical:
        got = outcome(divide, f, divisors, order)
    calls = memo.call_count, classical.call_count
    assert calls in (MEMO, (1, 1), CLASSICAL)
    return got, calls


@pytest.fixture
def classical_calls(monkeypatch):
    """The calls of the classical kernel, counted: ``divide``'s own, a memo's fallbacks, lazy quotients."""
    calls = []

    def counted(*args):
        calls.append(None)
        return packed_remainder(*args)

    monkeypatch.setattr(division, "packed_remainder", counted)
    return calls


def square_free_dividends(rng, m, count):
    return [word_to_poly(Word(1 << m, rng.getrandbits(1 << m))) for _ in range(count)]


@pytest.mark.parametrize("order", ORDERS)
def test_memo_matches_classical_kernel_on_seeded_ideals(order):
    # the reduced basis, the raw completion (redundant elements, leads that
    # divide others) and the reduced basis less one element plus the sum of
    # two others, which is often not Groebner
    verdicts = []
    for rng, m, gens in seeded_ideals(607, 40):
        completed = buchberger_complete(gens, order)
        reduced = list(reduce_basis(completed, order))
        bases = [reduced, list(completed)]
        if len(reduced) >= 3:
            a, b, c = rng.sample(range(len(reduced)), 3)
            bases.append([g for k, g in enumerate(reduced) if k != a] + [reduced[b] + reduced[c]])
        for basis in bases:
            dividends = [random_poly(rng, m, 8, 2) for _ in range(DIVIDENDS // 2)]
            dividends += square_free_dividends(rng, m, DIVIDENDS - len(dividends))
            compare_kernels(basis, dividends, order)
            verdicts.append(check_basis(basis, order).is_groebner)
    assert False in verdicts and True in verdicts


@pytest.mark.parametrize("order", ORDERS)
def test_memo_matches_classical_kernel_on_rank_oracle_ideals(order):
    rng = random.Random(608)
    for m in range(2, 7):
        for _ in range(6 if m < 6 else 2):
            basis = reduced_basis(ideal_generators(rng, m), order, m)
            compare_kernels(basis, square_free_dividends(rng, m, DIVIDENDS), order, reference=m < 6)


def test_divide_memo_is_keyed_on_packing_and_divisors():
    # basis A, the same Polys under the other order, then A again: each
    # switch starts a new memo, and every result is the classical one
    rng = random.Random(609)
    for _, m, gens in seeded_ideals(609, 10):
        basis = list(reduce_basis(buchberger_complete(gens, GRLEX), GRLEX))
        dividends = square_free_dividends(rng, m, 3)
        for order in (GRLEX, LEX, GRLEX):
            for f in dividends:
                assert divide(f, basis, order).remainder == classical_remainder(f, basis, order)
        # the list with one more element, reversed, then the list again
        for divisors in (basis + basis[:1], basis[::-1], basis):
            for f in dividends:
                assert divide(f, divisors, GRLEX).remainder == classical_remainder(f, divisors, GRLEX)


def handoff_bases(order):
    """Reduced bases of ``seeded_ideals`` and of ``ideal_generators`` at m <= 6, with dividends for each."""
    rng = random.Random(612)
    for _, m, gens in seeded_ideals(612, 20):
        yield list(reduce_basis(buchberger_complete(gens, order), order)), square_free_dividends(rng, m, 3)
    for m in range(2, 7):
        yield reduced_basis(ideal_generators(rng, m), order, m), square_free_dividends(rng, m, 3)


@pytest.mark.parametrize("order", ORDERS)
def test_check_basis_hands_its_memo_to_divide(order):
    # the first divide after check_basis is served by the memo the check
    # filled, with no classical call unless a product passes the cap, and its
    # remainder and lazily read quotients are the tuple toolkit's
    served = 0
    for basis, dividends in handoff_bases(order):
        division._last.key = division._last.memo = None
        outcome(check_basis, basis, order)
        packing, packed = pack_polys(basis, order)
        memo = division._last.memo
        assert division._last.key == (packing, packed) and memo is not None
        for f in dividends:
            got, calls = kernel_calls(f, basis, order)
            assert got == outcome(ref.divide, f, basis, order)
            if isinstance(got, str):
                continue
            assert calls == MEMO and division._last.memo is memo
            served += 1
    assert served >= 70  # of 80; the others pass the cap, in the memo and classically alike


@pytest.mark.parametrize("order", ORDERS)
def test_check_basis_takes_the_memo_divide_left(order):
    # two divides leave a memo in the slot; check_basis by the same list
    # reduces its pairs with it, keeps it there, and reports as classically;
    # one divide leaves its key with an empty memo, which check_basis fills
    # when it reduces a nonzero S-polynomial
    filled = 0
    for basis, dividends in handoff_bases(order):
        for f in dividends[:2]:
            outcome(divide, f, basis, order)
        memo = division._last.memo
        assert memo is not None
        assert outcome(check_basis, basis, order) == outcome(classical_check, basis, order)
        assert division._last.memo is memo
        outcome(divide, dividends[2], basis + basis[:1], order)
        assert kernel_calls(dividends[2], basis, order)[1] == CLASSICAL
        packing, packed = pack_polys(basis, order)
        memo = division._last.memo
        assert division._last.key == (packing, packed) and memo == ({}, [])
        sizes = []

        def sized(work, *args):
            sizes.append(len(work))
            return packed_normal_form(work, *args)

        with mock.patch("rmgb.groebner.packed_normal_form", sized):
            outcome(check_basis, basis, order)
        assert division._last.memo is memo and bool(memo[0]) == any(sizes)
        filled += any(sizes)
        got, (memo_calls, _) = kernel_calls(dividends[0], basis, order)
        assert isinstance(got, str) or memo_calls == 1
    assert filled >= 10  # of 25: 10 under lex and 16 under grlex; the others keep no pair or reduce only zeros


def test_handoff_is_keyed_on_packing_and_divisors():
    # a check_basis of the same Polys under the other order, or of a longer
    # or reversed list, replaces the slot: the next divide is classical
    rng = random.Random(613)
    for _, m, gens in seeded_ideals(613, 10):
        basis = list(reduce_basis(buchberger_complete(gens, GRLEX), GRLEX))
        f = square_free_dividends(rng, m, 1)[0]
        for divisors, order in ((basis, LEX), (basis + basis[:1], GRLEX), (basis[::-1], GRLEX)):
            if (divisors, order) == (basis, GRLEX):
                continue  # a basis of one element is its own reverse
            check_basis(basis, GRLEX)
            check_basis(divisors, order)
            got, calls = kernel_calls(f, basis, GRLEX)
            assert calls == CLASSICAL and got.remainder == classical_remainder(f, basis, GRLEX)
            check_basis(divisors, order)
            assert kernel_calls(f, divisors, order)[1][0] == 1


@pytest.mark.parametrize("order", ORDERS)
def test_one_off_divide_computes_its_quotients_when_first_read(order, classical_calls):
    # a divide by a list other than the slot's makes one classical call for
    # its remainder, and a second for its quotients only when they are first
    # read; a memo-served divide makes that one call alone
    rng = random.Random(615)
    for _, m, gens in seeded_ideals(615, 20):
        basis = list(reduce_basis(buchberger_complete(gens, order), order))
        for f in square_free_dividends(rng, m, 3):
            for one_off in (True, False):
                if one_off:
                    divide(f, basis + basis[:1], order)
                del classical_calls[:]
                got = divide(f, basis, order)
                assert got.remainder == classical_remainder(f, basis, order)
                assert len(classical_calls) == one_off
                quotients = got.quotients
                assert len(classical_calls) == one_off + 1
                assert got.quotients is quotients and len(classical_calls) == one_off + 1
                assert got == ref.divide(f, basis, order) and got.reconstruct(basis) == f


def test_check_basis_in_another_thread_leaves_this_threads_slot():
    rng = random.Random(614)
    for _, m, gens in seeded_ideals(614, 10):
        basis = list(reduce_basis(buchberger_complete(gens, LEX), LEX))
        dividends = square_free_dividends(rng, m, 2)
        for f in dividends:
            assert divide(f, basis, LEX).remainder == classical_remainder(f, basis, LEX)
        key, memo = division._last.key, division._last.memo
        seen = []

        def worker():
            check_basis(basis, GRLEX)
            seen.append(division._last.key == pack_polys(basis, GRLEX))

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and seen == [True]
        assert division._last.key is key and division._last.memo is memo
        for f in dividends:
            assert divide(f, basis, LEX).remainder == classical_remainder(f, basis, LEX)


@pytest.mark.parametrize("values_limit, standard_limit", [(1, 1000), (60, 1000), (1000, 3)])
def test_full_memo_serves_what_it_holds(values_limit, standard_limit, monkeypatch, classical_calls):
    # a memo that fills up mid-call still gives the classical results: the
    # walk that fills it finishes, no later walk starts, and a call whose
    # monomials it already holds is still served from it; the others, and
    # those that would need one more standard monomial, run classically
    monkeypatch.setattr(division, "VALUES_LIMIT", values_limit)
    monkeypatch.setattr(division, "MEMO_LIMIT", standard_limit)
    rng = random.Random(610)
    filled = served = 0
    for order in ORDERS:
        for _, m, gens in seeded_ideals(610, 20):
            packing, packed = pack_polys(reduce_basis(buchberger_complete(gens, order), order), order)
            memo = {}, []
            dividends = [set(map(packing.pack, random_poly(rng, m, 8, 2).support)) for _ in range(DIVIDENDS // 2)]
            for work in dividends + dividends:
                before, calls = len(memo[0]), len(classical_calls)
                got = outcome(packed_normal_form, set(work), packed, packing, memo)
                assert got == outcome(packed_remainder, set(work), packed, packing)  # both in descending order
                assert len(memo[1]) <= standard_limit
                assert len(memo[0]) == before or before < values_limit
                filled += before < values_limit <= len(memo[0])
                served += before >= values_limit and len(classical_calls) == calls and bool(work)
    assert classical_calls
    if values_limit < 1000:
        assert filled and served


def test_memo_past_the_cap_falls_back_to_classical(classical_calls):
    # divisors [x1^2 + x1*x2, x1 + x2^4] under lex: f = x1^2 + x1*x2 is the
    # first divisor, and the classical run cancels x1*x2 before it leads;
    # the memo reduces x1*x2 by the second divisor, whose product x2^5
    # passes the cap, so that call runs classically
    divisors = [parse_poly("x1^2 + x1*x2", 2), parse_poly("x1 + x2^4", 2)]
    f = parse_poly("x1^2 + x1*x2", 2)
    packing, packed = pack_polys(divisors, LEX)
    assert packed_normal_form(set(map(packing.pack, f.support)), packed, packing, ({}, [])) == []
    assert len(classical_calls) == 1
    for _ in range(3):  # the first divide is classical, the next by the memo
        got = divide(f, divisors, LEX)
        assert not got.remainder and got == ref.divide(f, divisors, LEX)
    # x1*x2 alone passes the cap in both kernels, with the same message
    for _ in range(3):
        with pytest.raises(ValueError, match=re.escape("exponent overflow: product (0, 5) exceeds cap 4")):
            divide(parse_poly("x1*x2", 2), divisors, LEX)
    # check_basis on a basis found by a seeded search: some pair's memo
    # passes the cap, the classical run does not, and the reports agree
    basis = [parse_poly(text, 3) for text in (
        "x1*x2^2*x3 + x1*x2*x3^2 + x2^2*x3 + x1*x2 + x1", "x1*x2*x3^2 + x1^2 + x1", "x1^2*x2^2 + x1*x2^2")]
    classical_calls.clear()
    report = check_basis(basis, LEX)
    assert classical_calls and report == classical_check(basis, LEX)
    _check_report_matches(basis, LEX)


def test_memo_matches_classical_kernel_near_the_cap():
    # divisors that are not Groebner bases, with exponents up to the cap, as
    # the classical kernel's own random test: outcomes, errors included, agree
    rng = random.Random(611)
    for _ in range(300):
        m = rng.randint(1, 4)
        order = rng.choice(ORDERS)
        divisors = [p for p in (random_poly(rng, m, 5) for _ in range(rng.randint(1, 4))) if p]
        if divisors:
            compare_kernels(divisors, [random_poly(rng, m, 10, 4) for _ in range(3)], order, reference=False)


if __name__ == "__main__":
    m = int(sys.argv[1])
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    for order in ORDERS:
        start = time.perf_counter()
        rng = random.Random(80 + m)
        for _ in range(count):
            basis = reduced_basis(ideal_generators(rng, m), order, m)
            dividends = square_free_dividends(rng, m, DIVIDENDS)
            compare_kernels(basis, dividends, order, reference=False)
            division._last.key = division._last.memo = None
            compare_kernels(basis, dividends, order, reference=False, divides_first=True)
        print(f"m = {m}, {order}: memo and classical kernels agree on {count} reduced bases,"
              f" checked before and after the divides, in {time.perf_counter() - start:.1f} s")
