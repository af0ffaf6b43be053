"""The memoized division kernel against the classical one and the tuple reference.

``division.memo_remainder`` sums remembered remainders of single
monomials, where ``division.packed_remainder`` reduces each dividend from
scratch.  They must agree exactly: on ``buchberger_complete``'s results
and errors, on ``check_basis`` reports, failing pair and remainder
included, and on ``divide``'s remainders and quotients.  Completion and
``check_basis`` sum each S-pair's products off one such memo, without
forming the S-polynomial, and form it only when the memo cannot sum them;
completion's memo follows its divisor list through each element's entry.
``divide`` takes its remainder from the memo of its thread's slot when the
slot already holds its divisors, keyed on ``(order, tuple(divisors))``:
from the second call by equal divisors on, or from the first after a
``check_basis`` of them, which leaves its memo there; it computes its
quotients classically when they are first read.  ``reduce_basis`` of the
tuple that completion has just returned reads the reduced basis off
completion's memo; of anything else, it divides classically.  The memo
falls back to the classical kernel when a product passes the exponent
cap or when it fills up; both are pinned here.

Run as a script, ``python tests/test_normal_form.py M [COUNT]`` compares
the two kernels on COUNT seeded ideals of A (default 10) at one m too
slow for the suite, such as 10, under both orders: their completions,
their reduces, handed off and classical, and on the reduced bases, once
with the check before the divides, which it hands its memo, and once
after them, when it takes theirs.
"""

import collections
import contextlib
import itertools
import random
import re
import sys
import threading
import time
from unittest import mock

import pytest

import tuple_toolkit as ref
from rmgb import division, groebner
from rmgb.division import divide, kill, memo_remainder, packed_remainder
from rmgb.groebner import _packed_s, _s_remainder, buchberger_complete, check_basis, reduce_basis
from rmgb.polyring import GRLEX, LEX, Poly, format_poly, pack_polys, parse_poly
from rmgb.rmcode import Word, square_relations, word_to_poly
from test_packed_toolkit import _check_report_matches, random_poly, seeded_ideals
from test_rank_oracle import ideal_generators, reduced_basis

ORDERS = (LEX, GRLEX)
DIVIDENDS = 8  # per basis, as the benchmark's groebner workload divides
MEMO, CLASSICAL = (1, 0), (0, 1)  # kernel calls (memo, classical) of a divide by each kernel, with no fallback


def classical_check(basis, order):
    """``check_basis`` with every pair's S-polynomial formed and reduced by the classical kernel."""
    with mock.patch("rmgb.groebner.memo_remainder", lambda *args: None):
        return check_basis(basis, order)


def empty_memo():
    """A memo of one divisor list, as ``division.basis_slot`` starts it."""
    return [{}, [], 0, None, None]


def classical_remainder(f, basis, order):
    packing, packed = pack_polys(basis, order)
    return packing.poly(packed_remainder(set(map(packing.pack, f.support)), packed, packing))


def clear_slot():
    division._last.key = None  # so the next divide or check_basis installs a fresh memo


def slot_holds(divisors, order):
    return division._last.key == (order, tuple(divisors))


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
    assert slot_holds(basis, order) and division._last.packed == pack_polys(basis, order)[1]


def kernel_calls(f, divisors, order):
    """The outcome of ``divide(f, divisors, order)`` and its calls to each kernel: (memo, classical).

    A memo-served divide makes one memo call, and one classical call when
    it falls back; a classical one makes one classical call alone.
    """
    with mock.patch.object(division, "memo_remainder", wraps=memo_remainder) as memo, \
            mock.patch.object(division, "packed_remainder", wraps=packed_remainder) as classical:
        got = outcome(divide, f, divisors, order)
    calls = memo.call_count, classical.call_count
    assert calls in (MEMO, (1, 1), CLASSICAL)
    return got, calls


@pytest.fixture
def classical_calls(monkeypatch):
    """The calls of the classical kernel, counted: ``divide``'s own, a memo's fallbacks, lazy quotients
    and ``check_basis``'s S-polynomials that the memo cannot sum."""
    calls = []

    def counted(*args):
        calls.append(None)
        return packed_remainder(*args)

    monkeypatch.setattr(division, "packed_remainder", counted)
    monkeypatch.setattr("rmgb.groebner.packed_remainder", counted)
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
        clear_slot()
        outcome(check_basis, basis, order)
        memo = division._last.memo
        assert slot_holds(basis, order) and memo is not None
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
    # when a kept pair has a product: it values the products of both
    # elements, those that cancel in the S-polynomial too
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
        memo = division._last.memo
        assert slot_holds(basis, order) and memo == empty_memo()
        sizes = []

        def sized(monos, *args):
            sizes.append(len(monos))
            return memo_remainder(monos, *args)

        with mock.patch("rmgb.groebner.memo_remainder", sized):
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
            seen.append(slot_holds(basis, GRLEX))

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
            basis = reduce_basis(buchberger_complete(gens, order), order)
            dividends = [random_poly(rng, m, 8, 2) for _ in range(DIVIDENDS // 2)]
            clear_slot()
            outcome(divide, dividends[0], basis, order)  # classical: it puts the basis in the slot, memo empty
            memo = division._last.memo
            for f in dividends + dividends:
                before, calls = len(memo[0]), len(classical_calls)
                got = outcome(lambda: divide(f, basis, order).remainder)
                assert got == outcome(classical_remainder, f, basis, order)
                assert division._last.memo is memo and len(memo[1]) <= standard_limit
                assert len(memo[0]) == before or before < values_limit
                filled += before < values_limit <= len(memo[0])
                served += before >= values_limit and len(classical_calls) == calls and bool(f)
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
    work = set(map(packing.pack, f.support))
    assert memo_remainder(work, packed, packing, empty_memo()) is None
    assert packed_remainder(work, packed, packing) == []
    clear_slot()
    for calls in (CLASSICAL, (1, 1), (1, 1)):  # the first divide is classical, the next by the memo, which falls back
        got, got_calls = kernel_calls(f, divisors, LEX)
        assert got_calls == calls
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


def s_remainder_outcomes(basis, order):
    """For every pair i < j, kept by the pair criteria or not: its S-remainder by
    ``_s_remainder``, with one memo for all pairs, and by the classical kernel
    on the formed S-polynomial; each a list or an error."""
    packing, packed = pack_polys(basis, order)
    memo = empty_memo()
    for i, j in itertools.combinations(range(len(packed)), 2):
        pair = packing.lcm(packed[i][0], packed[j][0]), i, j
        got = outcome(_s_remainder, packing, packed, pair, packed, memo)
        want = outcome(lambda: packed_remainder(_packed_s(packed[i], packed[j], packing), packed, packing))
        yield got, want


@pytest.mark.parametrize("order", ORDERS)
def test_s_remainder_matches_the_formed_s_polynomial(order, monkeypatch):
    # the remainders summed off the memo, product by product, are those of
    # the S-polynomials: on completed, reduced and non-Groebner bases of
    # seeded ideals, and on random divisors near the cap, where some products
    # pass the cap and some walks do, so some pairs form their S-polynomial
    formed = []
    monkeypatch.setattr("rmgb.groebner._packed_s", lambda *args: formed.append(None) or _packed_s(*args))
    bases = []
    for rng, m, gens in seeded_ideals(601, 40):
        completed = buchberger_complete(gens, order)
        reduced = list(reduce_basis(completed, order))
        bases += [list(completed), reduced]
        if len(reduced) >= 3:
            a, b, c = rng.sample(range(len(reduced)), 3)
            bases.append([g for k, g in enumerate(reduced) if k != a] + [reduced[b] + reduced[c]])
    rng = random.Random(616)
    for _ in range(200):
        m = rng.randint(1, 4)
        basis = [p for p in (random_poly(rng, m, 5, 4) for _ in range(rng.randint(2, 4))) if p]
        if basis:
            bases.append(basis)
    kinds = set()
    for basis in bases:
        for got, want in s_remainder_outcomes(basis, order):
            assert got == want
            kinds.add("error" if isinstance(got, str) else bool(got))
    assert kinds == {"error", True, False} and formed


def test_walk_past_the_cap_of_a_product_that_cancels():
    # under lex, lcm(x1^4*x2^2, x1*x2^2) = x1^4*x2^2, and both elements'
    # products are x1^3*x2^4, so the S-polynomial is zero; the memo values
    # that product all the same, and its walk passes the cap (x1*x2^2
    # divides it, leaving x1^2*x2^6), so the pair forms its S-polynomial,
    # which reduces to zero classically, as before
    basis = [parse_poly(text, 2) for text in ("x1^3*x2^4 + x1^4*x2^2", "x2^4 + x1*x2^2")]
    packing, packed = pack_polys(basis, LEX)
    with pytest.raises(ValueError, match=re.escape("exponent overflow: product (2, 6) exceeds cap 4")):
        divide(parse_poly("x1^3*x2^4", 2), basis, LEX)
    assert _packed_s(*packed, packing) == set()
    assert [(got, want) for got, want in s_remainder_outcomes(basis, LEX)] == [([], [])]
    clear_slot()
    with mock.patch("rmgb.groebner._packed_s", wraps=_packed_s) as formed:
        report = check_basis(basis, LEX)
    assert formed.call_count == 1 and report == classical_check(basis, LEX)
    assert (report.is_groebner, report.failing_pair) == (True, None)
    _check_report_matches(basis, LEX)


def classical_complete(gens, order):
    """``buchberger_complete`` with every pair's S-polynomial formed and reduced by the classical kernel."""
    with mock.patch("rmgb.groebner.memo_remainder", lambda *args: None):
        return buchberger_complete(gens, order)


def completion_inputs():
    """Generators of ``seeded_ideals``, of random general ideals near the cap and of ideals of A at m <= 6."""
    for _, _, gens in seeded_ideals(601, 40):
        yield gens
    rng = random.Random(622)
    for _ in range(2000):
        m = rng.randint(1, 5)
        yield [random_poly(rng, m, 6, 2) for _ in range(rng.randint(2, 4))]
    for m in range(2, 7):
        for _ in range(4):
            yield square_relations(m) + tuple(ideal_generators(rng, m))


@pytest.mark.parametrize("values_limit", [division.VALUES_LIMIT, 40])
@pytest.mark.parametrize("order", ORDERS)
def test_memo_completion_matches_classical_completion(order, values_limit, monkeypatch):
    # completion follows its divisor list with one memo, through appends
    # (kill, then substitution where a killed bit is summed) and evictions
    # (the values derived with an evicted element dropped); its results and
    # errors are those of the classical completion, and the run takes every
    # branch: with a small limit, a full memo is emptied at the next entry
    seen = collections.Counter()

    def counted_kill(memo, divisors, lead, guard):
        killed, used = memo[2], memo[3]
        before = len(used)
        kill(memo, divisors, lead, guard)
        if memo[3] is not used:
            seen["emptied"] += 1
        else:
            seen["kill"] += memo[2] != killed
            seen["eviction"] += len(used) < before

    def counted_sum(monos, divisors, packing, memo):
        r = memo_remainder(monos, divisors, packing, memo)
        if r is None:
            seen["fallback"] += 1
        else:  # the values of monos, summed before any killed bit is replaced
            raw = 0
            for x in monos:
                raw ^= memo[0][x]
            seen["substitution"] += bool(raw & memo[2])
        return r

    monkeypatch.setattr(division, "VALUES_LIMIT", values_limit)
    for gens in completion_inputs():
        want = outcome(classical_complete, gens, order)
        with mock.patch("rmgb.groebner.kill", counted_kill), mock.patch("rmgb.groebner.memo_remainder", counted_sum):
            assert outcome(buchberger_complete, gens, order) == want
    assert all(seen[branch] for branch in ("kill", "substitution", "eviction", "fallback"))
    assert bool(seen["emptied"]) == (values_limit == 40)


def reduce_packs(basis, order):
    """``reduce_basis``'s outcome, and whether it packed ``basis``: it does not when it reads completion's memo."""
    with mock.patch("rmgb.groebner.pack_polys", wraps=pack_polys) as packs:
        got = outcome(reduce_basis, basis, order)
    return got, packs.called


def handoff_inputs():
    """Generators of ``seeded_ideals``, of ideals of A at m <= 6 and of random general ideals near the cap, m <= 4."""
    for _, _, gens in seeded_ideals(623, 40):
        yield gens
    rng = random.Random(623)
    for m in range(2, 7):
        for _ in range(4):
            yield square_relations(m) + tuple(ideal_generators(rng, m))
    for _ in range(3000):
        m = rng.randint(1, 4)
        yield [random_poly(rng, m, 6, rng.choice((2, 4))) for _ in range(rng.randint(1, 4))]


@pytest.mark.parametrize("order", ORDERS)
def test_handed_off_reduce_matches_classical_reduce(order):
    # reduce_basis of the tuple that completion has just returned packs
    # nothing: it reads the reduced basis off completion's active list and
    # memo, and its results and errors are those of the classical reduce of
    # the same elements as a list (no reduce of these completions raises)
    handed = raised = 0
    for gens in handoff_inputs():
        completed = outcome(buchberger_complete, gens, order)
        if isinstance(completed, str):
            raised += 1
            continue  # no tuple to hand off
        got, packed = reduce_packs(completed, order)
        assert not packed and got == reduce_packs(list(completed), order)[0]
        handed += 1
    assert handed >= 1800 and raised >= 1000  # of 3060: 1839 and 1221 under lex, 2027 and 1033 under grlex


# a completion that raises the exponent cap error, under lex and grlex alike
OVERFLOW = [parse_poly(text, 2) for text in ("x1^2*x2^4 + x1^4", "x1^2*x2^2 + x2^2")]


@pytest.mark.parametrize("order", ORDERS)
def test_reduce_reads_the_memo_only_of_the_tuple_just_completed(order):
    # the handoff is keyed on the tuple completion returned, by identity, and
    # on its order, and lasts until this thread's next completion or reduce;
    # a list or an equal copy of the tuple, another order, a completion since
    # (one that raised included), or a second reduce of the tuple packs its
    # input and divides classically, with the classical result
    other = GRLEX if order == LEX else LEX

    def completed_since(gens, later):
        completed = buchberger_complete(gens, order)
        buchberger_complete(later, order)
        return completed, order

    def raised_since(gens, later):
        completed = buchberger_complete(gens, order)
        assert isinstance(outcome(buchberger_complete, OVERFLOW, order), str)
        return completed, order

    def reduced_before(gens, later):
        completed = buchberger_complete(gens, order)
        reduce_basis(completed, order)
        return completed, order

    cases = [
        lambda gens, later: (list(buchberger_complete(gens, order)), order),
        lambda gens, later: (tuple(list(buchberger_complete(gens, order))), order),
        lambda gens, later: (buchberger_complete(gens, order), other),
        completed_since, raised_since, reduced_before,
    ]
    ideals = [gens for _, _, gens in seeded_ideals(624, 21)]  # each in other variables than the next
    for gens, later in zip(ideals, ideals[1:]):
        for case in cases:
            basis, reduce_order = case(gens, later)
            got, packed = reduce_packs(basis, reduce_order)
            assert packed and got == reduce_basis(list(basis), reduce_order)


def test_completion_in_another_thread_leaves_this_threads_handoff():
    # a completion in another thread neither hands its tuple to a reduce here
    # nor takes the place of this thread's own
    later = []
    for _, _, gens in seeded_ideals(625, 10):
        completed = buchberger_complete(gens, GRLEX)
        thread = threading.Thread(target=lambda: later.append(buchberger_complete(gens[1:] or gens, GRLEX)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert reduce_packs(completed, GRLEX) == (reduce_basis(list(completed), GRLEX), False)
        buchberger_complete(gens, GRLEX)
        assert reduce_packs(later[-1], GRLEX) == (reduce_basis(list(later[-1]), GRLEX), True)


def test_handoff_minimalizes_the_active_list():
    # the active list keeps an element whose lead an earlier active lead
    # divides: x1*x2 enters after x1, and evicts only the leads it divides
    for order in ORDERS:
        completed = buchberger_complete([parse_poly("x1", 2), parse_poly("x1*x2", 2)], order)
        assert len(groebner._completion.last[3]) == 2
        assert reduce_packs(completed, order) == ((parse_poly("x1", 2),), False)


@pytest.mark.parametrize("order", ORDERS)
def test_handed_off_reduce_falls_back_per_element(order, classical_calls):
    # the memo values every lead of these ideals of A; an element whose lead
    # it cannot value is divided by the classical kernel, by the elements
    # kept before it: when the memo values no lead, every other lead, or only
    # those it holds once it is full, the handed-off reduce is the classical one
    def alternate(*args, calls=itertools.count()):
        return memo_remainder(*args) if next(calls) % 2 else None

    variants = [contextlib.nullcontext,
                lambda: mock.patch("rmgb.groebner.memo_remainder", lambda *args: None),
                lambda: mock.patch("rmgb.groebner.memo_remainder", alternate),
                lambda: mock.patch.object(division, "VALUES_LIMIT", 40)]
    fallbacks = [0] * len(variants)
    rng = random.Random(626)
    inputs = [gens for _, _, gens in seeded_ideals(626, 40)]
    inputs += [square_relations(m) + tuple(ideal_generators(rng, m)) for m in range(2, 7)]
    for gens in inputs:
        want = reduce_basis(list(buchberger_complete(gens, order)), order)
        for k, variant in enumerate(variants):
            with variant():
                completed = buchberger_complete(gens, order)
                before = len(classical_calls)
                assert reduce_packs(completed, order) == (want, False)
                fallbacks[k] += len(classical_calls) - before
    assert fallbacks[0] == 0 and all(fallbacks[1:])


@pytest.mark.parametrize("first, then", [(GRLEX, LEX), (LEX, GRLEX)])
def test_divide_repacks_the_same_tuple_under_another_order(first, then):
    # a divide by the divisors that the slot last packed reuses that packing
    # only under the same monomial order; under the other, they are packed
    # again, and the remainders are the classical ones of each order; a list
    # changed in place between divides no longer equals the slot's snapshot,
    # so it divides as what it holds now
    rng = random.Random(617)
    differ = changed = 0
    for _, m, gens in seeded_ideals(617, 40):
        basis = tuple(reduce_basis(buchberger_complete(gens, first), first))
        dividends = [random_poly(rng, m, 8, 2) for _ in range(3)]
        for order in (first, first, then, then, first):
            for f in dividends:
                got = outcome(divide, f, basis, order)
                assert got == outcome(ref.divide, f, basis, order)
        differ += any(outcome(classical_remainder, f, basis, LEX) != outcome(classical_remainder, f, basis, GRLEX)
                      for f in dividends)
        divisors = list(basis)
        for contents in (basis, basis, gens, gens):
            divisors[:] = contents
            for f in dividends:
                assert outcome(divide, f, divisors, first) == outcome(ref.divide, f, contents, first)
        changed += any(outcome(classical_remainder, f, basis, first) != outcome(classical_remainder, f, gens, first)
                       for f in dividends)
    assert differ >= 6 and changed >= 20  # of 40 ideals: 6 and 23 with grlex first, 7 and 23 with lex first


def test_divide_after_a_check_basis_by_other_divisors():
    # a check_basis by another list, or by the same Polys under the other
    # order, between two divides by one tuple, replaces the slot: the second
    # divide packs its tuple again and runs classically; a check_basis by an
    # equal list keeps the slot, and the divide is served by its memo
    rng = random.Random(618)
    for _, m, gens in seeded_ideals(618, 20):
        basis = tuple(reduce_basis(buchberger_complete(gens, GRLEX), GRLEX))
        other = list(reduce_basis(buchberger_complete(gens[1:] or gens, GRLEX), GRLEX))
        f = square_free_dividends(rng, m, 1)[0]
        want = classical_remainder(f, basis, GRLEX)
        for checked, order, calls in ((other + [basis[0]], GRLEX, CLASSICAL), (list(basis), LEX, CLASSICAL),
                                      (list(basis), GRLEX, MEMO)):
            divide(f, basis, GRLEX)
            divide(f, basis, GRLEX)
            check_basis(checked, order)
            got, got_calls = kernel_calls(f, basis, GRLEX)
            assert got.remainder == want and got_calls == calls
            assert got == ref.divide(f, basis, GRLEX)


def test_second_divide_by_one_list_packs_nothing():
    # the slot holds a snapshot of the list, which the same list object still
    # equals, so neither the second divide nor one after a check_basis of the
    # list packs it again, and each is served by the slot's memo
    rng = random.Random(619)
    for _, m, gens in seeded_ideals(619, 10):
        basis = list(reduce_basis(buchberger_complete(gens, GRLEX), GRLEX))
        f = square_free_dividends(rng, m, 1)[0]
        with mock.patch.object(division, "pack_polys", wraps=pack_polys) as packs:
            for first in (lambda: divide(f, basis, GRLEX), lambda: check_basis(basis, GRLEX)):
                clear_slot()
                packs.reset_mock()
                first()
                assert packs.call_count == 1
                got, calls = kernel_calls(f, basis, GRLEX)
                assert packs.call_count == 1 and calls == MEMO
                assert got.remainder == classical_remainder(f, basis, GRLEX)


def test_list_changed_in_place_after_check_basis_divides_classically():
    # check_basis leaves its memo under a snapshot of the list; a divide by
    # the same list object after an element is dropped, replaced or added,
    # or the list reversed, misses the slot, runs the classical kernel, and
    # gives the results of what the list holds now
    rng = random.Random(620)
    changed = 0
    for _, m, gens in seeded_ideals(620, 20):
        basis = list(reduce_basis(buchberger_complete(gens, GRLEX), GRLEX))
        dividends = [random_poly(rng, m, 8, 2) for _ in range(3)]
        for change in (lambda d: d.pop(0), lambda d: d.__setitem__(0, gens[-1]),
                       lambda d: d.append(gens[0]), lambda d: d.reverse()):
            for f in dividends:
                divisors = list(basis)
                check_basis(divisors, GRLEX)
                change(divisors)
                if divisors == basis or not divisors:
                    continue
                got, calls = kernel_calls(f, divisors, GRLEX)
                assert calls == CLASSICAL and slot_holds(divisors, GRLEX)
                assert got == outcome(ref.divide, f, divisors, GRLEX)
                want = outcome(classical_remainder, f, divisors, GRLEX)
                assert (got if isinstance(got, str) else got.remainder) == want
                changed += want != outcome(classical_remainder, f, basis, GRLEX)
    assert changed >= 50  # of 204 divides, 53 differ from the division by the basis checked


def classical_division(f, divisors, order):
    """Quotients and remainder of ``f`` by the classical kernel, packed afresh."""
    packing, packed = pack_polys(divisors, order)
    quotients = [[] for _ in packed]
    rem = packed_remainder(set(map(packing.pack, f.support)), packed, packing, quotients)
    return tuple(map(packing.poly, quotients)), packing.poly(rem)


@pytest.mark.parametrize("order", ORDERS)
def test_equal_divisors_rebuilt_from_text_take_the_checks_memo(order):
    # divisors equal to the checked basis but distinct objects, rebuilt by
    # parsing their text, hit the slot that check_basis left: they are packed
    # again and the divide is served by its memo (a memo's values depend only
    # on the leads and tail sets, and some rebuilt supports iterate in
    # another order), and its remainder and quotients, or its error, are
    # those of the classical kernel on the rebuilt divisors, and the tuple
    # toolkit's
    rng = random.Random(621)
    served = reordered = raised = 0
    for basis, dividends in handoff_bases(order):
        rebuilt = [parse_poly(format_poly(g), g.m) for g in basis]
        assert rebuilt == basis and not any(a is b for a, b in zip(rebuilt, basis))
        reordered += any(list(a.support) != list(b.support) for a, b in zip(rebuilt, basis))
        clear_slot()
        outcome(check_basis, basis, order)
        memo = division._last.memo
        for f in dividends + [random_poly(rng, basis[0].m, 8, 2)]:
            got, calls = kernel_calls(f, rebuilt, order)
            assert division._last.memo is memo and calls[0] == 1
            want = outcome(classical_division, f, rebuilt, order)
            assert got == outcome(ref.divide, f, rebuilt, order)
            if isinstance(got, str):  # the rebuilt tails are packed again, so the same product is named
                assert got == want
                raised += 1
                continue
            assert (got.quotients, got.remainder) == want
            served += calls == MEMO
    assert served >= 95 and reordered >= 3  # of 100 divides, 97 under lex and 100 under grlex; of 25 bases, 3
    assert raised == (3 if order == LEX else 0)
    # this Poly lists its tail x1*x2^3, x1*x2^4 and its text the other way
    # round, so the divide, whose walk and classical run both pass the cap,
    # names the product of the rebuilt tail's first monomial, as the tuple
    # toolkit does, and not that of the checked basis
    given = Poly(2, [(1, 4), (4, 2), (1, 3)])
    rebuilt = [parse_poly(format_poly(given), 2)]
    assert rebuilt == [given] and list(rebuilt[0].support) != list(given.support)
    f = parse_poly("x1^4*x2^4 + x1*x2^4", 2)
    check_basis([given], order)
    got, calls = kernel_calls(f, rebuilt, order)
    assert calls == (1, 1) and got == outcome(ref.divide, f, rebuilt, order)
    assert got == "exponent overflow: product (1, 6) exceeds cap 4"


if __name__ == "__main__":
    m = int(sys.argv[1])
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    for order in ORDERS:
        start = time.perf_counter()
        rng = random.Random(80 + m)
        for _ in range(count):
            gens = square_relations(m) + tuple(ideal_generators(rng, m))
            completed = outcome(buchberger_complete, gens, order)
            reduced, packed = reduce_packs(completed, order)  # handed off: read off completion's memo
            assert not packed and reduced == reduce_basis(list(completed), order)
            assert completed == outcome(classical_complete, gens, order)
            basis = list(reduced)
            dividends = square_free_dividends(rng, m, DIVIDENDS)
            compare_kernels(basis, dividends, order, reference=False)
            clear_slot()
            compare_kernels(basis, dividends, order, reference=False, divides_first=True)
        print(f"m = {m}, {order}: memo and classical kernels agree on {count} completions, their reduces"
              f" and reduced bases, checked before and after the divides, in {time.perf_counter() - start:.1f} s")
