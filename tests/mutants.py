"""One-line mutants of rmgb's modules, each with the test that kills it.

Each entry of ``MUTANTS`` is ``(name, file, old, new, test)``: ``old``
is a text that occurs exactly once in ``src/rmgb``, in ``file``;
``new`` replaces it; ``test`` is the pytest node that must fail on the
mutated tree.  ``tests/test_mutants.py`` checks in tier-1 that every old
text still occurs exactly once, so a change to the source that makes an
entry stale fails there.  A change that kills a mutant with a new test
adds the mutant here.

Run as a script, ``python tests/mutants.py [NAME ...]`` first runs every
killing test on an unmutated copy of the tree, which must pass; then,
for each mutant (or each one named), it copies ``src`` and ``tests`` to
a temporary directory, applies the mutant, runs its test with ``-x``
and reports it killed or survived.  It exits 1 if a mutant survives or
a run errs.  It needs only the standard library and pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rmgb"

NF = "tests/test_normal_form.py::"
GB = "tests/test_groebner.py::"
DEC = "tests/test_decoder.py::"
RM = "tests/test_rmcode.py::"
KER = "tests/test_kernel.py::"
REC = "tests/test_records.py::"
SC = "tests/test_selfcheck.py::"

MUTANTS = [
    # memo_remainder sums 0 for a monomial it cannot value, where its caller would run the classical kernel
    ("fallback-dropped", "division.py",
     "if v is None:\n                    return None", "if v is None:\n                    v = 0",
     NF + "test_memo_matches_classical_kernel_on_seeded_ideals[lex]"),
    # divide takes None from a memo that cannot value a monomial and never runs the classical kernel
    ("divide-fallback-dropped", "division.py",
     "if rem is None:", "if False:",
     NF + "test_memo_past_the_cap_falls_back_to_classical"),
    # the walk skips the XOR of a monomial's second product
    ("one-xor-skipped", "division.py",
     "for k in range(1, len(products)):", "for k in range(2, len(products)):",
     NF + "test_memo_matches_classical_kernel_on_seeded_ideals[lex]"),
    # the walk drops the value of a monomial's first product
    ("first-value-dropped", "division.py",
     "v = values[products[0]] if products else 0", "v = 0",
     NF + "test_memo_matches_classical_kernel_on_seeded_ideals[lex]"),
    # a monomial divisor (empty tail) leaves no product to share: IndexError
    ("empty-tail-guard-dropped", "division.py",
     "v = values[products[0]] if products else 0", "v = values[products[0]]",
     NF + "test_memo_matches_classical_kernel_near_the_cap"),
    # the walk values products past the exponent cap instead of falling back
    ("no-cap-test-in-walk", "division.py",
     "if (y + room) & guard:  # a product past the cap", "if False:",
     NF + "test_memo_matches_classical_kernel_on_seeded_ideals[lex]"),
    # the memo's list of standard monomials grows past MEMO_LIMIT
    ("no-standard-limit", "division.py",
     "if len(standard) >= MEMO_LIMIT:", "if False:",
     NF + "test_full_memo_serves_what_it_holds[1000-3]"),
    # every divide is served by the memo, a one-off divide included
    ("divide-always-warm", "division.py",
     "memo) if warm else None", "memo) if True else None",
     NF + "test_one_off_divide_computes_its_quotients_when_first_read[lex]"),
    # no divide is served by the memo, not even after a check_basis of its list
    ("divide-never-warm", "division.py",
     "memo) if warm else None", "memo) if False else None",
     NF + "test_memo_matches_classical_kernel_on_seeded_ideals[lex]"),
    # the slot's key leaves out the monomial order, which picks the packing, so
    # the same divisors under the other order read this order's packed pairs
    ("key-without-packing", "division.py",
     "key = order, tuple(divisors)", "key = None, tuple(divisors)",
     NF + "test_divide_repacks_the_same_tuple_under_another_order[grlex-lex]"),
    # the slot's key holds the list itself, not a snapshot, so a list changed in place still hits
    ("key-without-snapshot", "division.py",
     "key = order, tuple(divisors)", "key = order, divisors",
     NF + "test_list_changed_in_place_after_check_basis_divides_classically"),
    # the walk tests the guard bit alone, so it values products with exponents 5 to 7
    ("walk-cap-as-guard", "division.py",
     "if (y + room) & guard:  # a product past the cap", "if y & guard:  # a product past the cap",
     NF + "test_s_remainder_matches_the_formed_s_polynomial[lex]"),
    # basis_slot writes the slot but never reads it: fresh pairs and memo on every call
    ("slot-never-read", "division.py",
     "warm = _last.key == key", "warm = False",
     NF + "test_check_basis_takes_the_memo_divide_left[lex]"),
    # the lazy quotients are computed again on every read
    ("quotients-not-cached", "division.py",
     "@cached_property\n    def quotients(self)", "@property\n    def quotients(self)",
     NF + "test_one_off_divide_computes_its_quotients_when_first_read[lex]"),
    # the slot files its pairs and memo under the other monomial order
    ("memo-under-other-order", "division.py",
     "_last.key, _last.memo = key,",
     '_last.key, _last.memo = ("lex" if order == "grlex" else "grlex", key[1]),',
     NF + "test_check_basis_hands_its_memo_to_divide[lex]"),
    # equal divisors that are other objects take the slot's packed tails, so an overflow may name another product
    ("equal-divisors-not-repacked", "division.py",
     "if not warm or any(map(is_not, key[1], _last.key[1])):", "if not warm:",
     NF + "test_equal_divisors_rebuilt_from_text_take_the_checks_memo[lex]"),
    # equal divisors that are other objects are repacked with an empty memo
    ("repack-drops-the-memo", "division.py",
     "_last.memo if warm else", "[{}, [], 0, None, None] if warm else",
     NF + "test_equal_divisors_rebuilt_from_text_take_the_checks_memo[lex]"),
    # an appended element kills no irreducible monomial: their bits still read as irreducible
    ("kill-no-op", "division.py",
     "if not (y - lead) & guard and not killed >> k & 1:", "if False:",
     NF + "test_memo_completion_matches_classical_completion[lex-32768]"),
    # a killed bit in a sum is read out as its monomial, not replaced by that monomial's remainder
    ("substitution-skipped", "division.py",
     "stale = acc & killed", "stale = 0",
     NF + "test_memo_completion_matches_classical_completion[grlex-32768]"),
    # an eviction keeps the values derived with the evicted elements
    ("eviction-rule-dropped", "division.py",
     "if evicted:", "if False:",
     NF + "test_memo_completion_matches_classical_completion[lex-32768]"),
    # a value records only its own divisor, not those its products were derived with
    ("eviction-mask-not-transitive", "division.py",
     "mask |= used.get(p, 0)", "pass",
     NF + "test_memo_completion_matches_classical_completion[lex-32768]"),
    # a full memo is kept at an entry, so its values go stale
    ("full-memo-kept", "division.py",
     "memo[:] = [{}, [], 0, {}, {}]", "pass",
     NF + "test_memo_completion_matches_classical_completion[grlex-40]"),
    # a completion pair that the memo cannot sum counts as reducing to zero
    ("completion-fallback-dropped", "groebner.py",
     "if r is None:", "if r is None and divisors is packed:",
     NF + "test_memo_completion_matches_classical_completion[lex-32768]"),
    # completion reduces its pairs by every element so far, evicted ones included
    ("completion-divides-by-packed", "groebner.py",
     "pairs.pop(), divisors, memo)", "pairs.pop(), packed, memo)",
     GB + "test_completion_reduces_by_the_active_elements_only"),
    # an S-remainder sums only the first element's products
    ("s-remainder-j-side-dropped", "groebner.py",
     "[qa + t for t in a_tail] + [qb + t for t in b_tail]", "[qa + t for t in a_tail]",
     NF + "test_s_remainder_matches_the_formed_s_polynomial[lex]"),
    # a pair whose products the memo cannot sum counts as reducing to zero
    ("s-remainder-fallback-dropped", "groebner.py",
     "if r is None:", "if False:",
     NF + "test_s_remainder_matches_the_formed_s_polynomial[lex]"),
    # reducedness misses a tail monomial equal to another element's lead
    ("reduced-tail-on-a-lead", "groebner.py",
     "if other == mono and mono != lead:", "if False:",
     GB + "test_is_reduced_negative"),
    # reducedness misses two elements with one lead
    ("reduced-shared-lead", "groebner.py",
     "return len(set(leads)) == len(leads)", "return True",
     GB + "test_is_reduced_negative"),
    # reducedness scans the leads unsorted, so it stops before a smaller lead that divides
    ("reduced-leads-unsorted", "groebner.py",
     "leads = sorted(lead for lead, _ in packed)", "leads = [lead for lead, _ in packed]",
     GB + "test_is_reduced_negative"),
    # ideal_member calls a zero, None or 0 a member without checking it
    ("ideal-member-shortcut", "groebner.py",
     "return not remainder(f, basis, order)", "return not f or not remainder(f, basis, order)",
     GB + "test_entry_points_check_every_element_before_dropping_zeros[ideal_member]"),
    # completion and reduce_basis drop zeros before checking the elements
    ("zeros-dropped-before-check", "groebner.py",
     "    polys = list(polys)\n    for p in polys:", "    polys = [p for p in polys if p]\n    for p in polys:",
     GB + "test_entry_points_check_every_element_before_dropping_zeros[buchberger_complete]"),
    # reduce_basis keeps an element whose lead a kept lead divides
    ("reduce-basis-keeps-redundant", "groebner.py",
     "if not (lead - other) & packing.guard:\n                break", "if not (lead - other) & packing.guard:\n                pass",
     GB + "test_reduce_basis_drops_redundant_generator"),
    # the Gebauer-Moeller test of a new pair sees only the earlier lcms, not the later ones
    ("update-later-lcms-unseen", "groebner.py",
     "for other in new:", "for other in new[:k]:",
     "tests/test_packed_toolkit.py::test_pair_criteria_reduce_pinned_pair_counts[lex]"),
    # records are equal when their classes name the same fields, whatever the values
    ("record-eq-by-field-names", "polyring.py",
     "return self._values(self) == self._values(other)", "return self._fields == other._fields",
     REC + "test_equal_values_hash_equal_and_other_classes_differ"),
    # a record hashes as its field names: equal records still hash equal
    ("record-hash-by-field-names", "polyring.py",
     "return hash(self._values(self))", "return hash(self._fields)",
     REC + "test_code_params_hash_as_their_field_tuple"),
    # a record with a __dict__ pickles through _values too, losing what _fields leaves out
    ("record-dict-by-values", "polyring.py",
     'if hasattr(self, "__dict__"):', "if False:",
     REC + "test_copied_decode_result_builds_its_lazy_fields_on_first_read"),
    # Reed's vote ORs a variable's half in, so a second vote cannot take it out
    ("vote-or-for-xor", "decoder.py",
     "u ^= mask", "u |= mask",
     DEC + "test_first_order_step_is_the_radius_t_decoder[3]"),
    # the first-order step refuses a codeword at distance exactly t
    ("vote-radius-strict", "decoder.py",
     "return u if (y ^ u).bit_count() <= t else None", "return u if (y ^ u).bit_count() < t else None",
     DEC + "test_first_order_step_is_the_radius_t_decoder[3]"),
    # the vote never adds the all-ones word
    ("vote-no-complement", "decoder.py",
     "u ^= (1 << 2 * half) - 1", "pass",
     DEC + "test_first_order_step_is_the_radius_t_decoder[3]"),
    # the vote skips the lowest variable
    ("vote-skips-a-variable", "decoder.py",
     "_half_masks(k) if r else ()", "_half_masks(k)[1:] if r else ()",
     DEC + "test_first_order_step_is_the_radius_t_decoder[3]"),
    # a variable wins its vote with a quarter of the pairs, not a half
    ("vote-threshold-quarter", "decoder.py",
     "> half >> 1:", "> half >> 2:",
     DEC + "test_first_order_step_is_the_radius_t_decoder[4]"),
    # RM(2, 5)'s syndrome takes the halves' XOR where it takes the upper half, and back
    ("leaf-halves-swapped", "decoder.py",
     "return low[lo ^ hi] << 5 | low[hi] >> 6", "return low[hi] << 5 | low[lo ^ hi] >> 6",
     DEC + "test_nearest_at_k5_matches_decode_search[2]"),
    # RM(3, 5)'s syndrome loses the upper half's parity bit
    ("leaf-parity-dropped", "decoder.py",
     "return low[lo ^ hi] >> 6 << 1 | low[hi] >> 10", "return low[lo ^ hi] >> 6 << 1",
     DEC + "test_nearest_at_k5_matches_decode_search[3]"),
    # a k = 5 leaf returns the no-error sentinel as an error
    ("leaf-sentinel-as-error", "decoder.py",
     "return None if error == _NO_ERROR else y ^ error", "return y ^ error",
     DEC + "test_nearest_at_k5_matches_decode_search[2]"),
    # the error tables leave out the errors of weight t
    ("leaf-ball-one-weight-short", "decoder.py",
     "for error in subset_bits(params.n, range(params.t + 1)):",
     "for error in subset_bits(params.n, range(params.t)):",
     DEC + "test_leaf_error_table_holds_the_radius_t_ball[5-3]"),
    # the error tables draw their errors from the m variables, not the n positions
    ("leaf-ball-over-variables", "decoder.py",
     "for error in subset_bits(params.n,", "for error in subset_bits(params.m,",
     DEC + "test_leaf_error_table_holds_the_radius_t_ball[5-3]"),
    # a bool passes as a weight
    ("weight-takes-bool", "decoder.py",
     "type(weight) is int", "isinstance(weight, int)",
     DEC + "test_non_integer_counts_are_rejected"),
    # a bool passes as a flip probability
    ("flip-prob-takes-bool", "decoder.py",
     "type(flip_prob) in (int, float)", "isinstance(flip_prob, (int, float))",
     DEC + "test_non_integer_counts_are_rejected"),
    # RM(3, 6) goes through the generic split: the same results, in 2-4 calls
    ("rm36-node-never-taken", "decoder.py",
     "if k == 6 and r == 3:", "if False:",
     DEC + "test_rm36_decode_is_one_call"),
    # the RM(3, 6) node refuses a codeword at distance exactly t
    ("rm36-radius-strict", "decoder.py",
     "(e_lo ^ e_v).bit_count() <= t:", "(e_lo ^ e_v).bit_count() < t:",
     DEC + "test_rm36_node_matches_the_split"),
    # the RM(3, 6) node never tries its second u-copy, hi ^ v
    ("rm36-second-copy-dropped", "decoder.py",
     "e_v ^ table3[low[c2 ^ c3] >> 6 << 1 | low[c3] >> 10]", "_NO_ERROR",
     DEC + "test_rm36_node_matches_the_split"),
    # v's syndrome reads the lower quarters' XOR where it reads the upper ones'
    ("rm36-quarter-swapped", "decoder.py",
     "low[c1 ^ c3] >> 6", "low[c0 ^ c2] >> 6",
     DEC + "test_rm36_node_matches_the_split"),
    # the RM(3, 6) node puts the lower half's error in the upper half, and back
    ("rm36-halves-swapped", "decoder.py",
     "y ^ ((e_lo ^ e_v) << half | e_lo)", "y ^ (e_lo << half | e_lo ^ e_v)",
     DEC + "test_rm36_node_matches_the_split"),
    # square-free positions in ascending lex order
    ("positions-ascending", "rmcode.py",
     "itertools.product((1, 0), repeat=m)", "itertools.product((0, 1), repeat=m)",
     RM + "test_monomial_positions_descending_lex"),
    # subset_bit puts X1 at the low bit
    ("subset-bit-x1-low", "rmcode.py",
     "b |= 1 << (m - i)", "b |= 1 << (i - 1)",
     RM + "test_subset_monomial_roundtrip"),
    # subset_bits lists the subsets of one size in ascending bit order
    ("subset-bits-ascending", "rmcode.py",
     "itertools.combinations(variable_bits, k)", "itertools.combinations(variable_bits[::-1], k)",
     "tests/test_kernel.py::test_subset_bits_follow_combinations_order"),
    # g_I sums the X_L over the supermasks of I, not its subsets
    ("generator-over-supermasks", "rmcode.py",
     "superset_xor(1 << b, m)))", "subset_xor(1 << b, m)))",
     RM + "test_product_generator_expansion"),
    # rank keeps every nonzero row as a pivot
    ("rank-keeps-every-row", "rmcode.py",
     "pivots[top] = row", "pivots[top, row] = row",
     RM + "test_gf2_helpers"),
    # square_relations checks no m
    ("square-relations-unchecked", "rmcode.py",
     "CodeParams(m, 0)  # raises unless", "pass  # raises unless",
     RM + "test_square_relations"),
    # a bool passes as a word length
    ("word-length-takes-bool", "rmcode.py",
     "type(n) is int", "isinstance(n, int)",
     DEC + "test_non_integer_counts_are_rejected"),
    # a bool passes as an exponent
    ("exponent-takes-bool", "polyring.py",
     "type(e) is not int or e < 0", "not isinstance(e, int) or e < 0",
     DEC + "test_non_integer_counts_are_rejected"),
    # a bool passes as a word value
    ("word-value-takes-bool", "rmcode.py",
     "type(value) is not int", "not isinstance(value, int)",
     DEC + "test_non_integer_counts_are_rejected"),
    # a bool or a float passes as message bits
    ("message-bits-any-type", "rmcode.py",
     "type(bits) is not int or bits < 0", "bits < 0",
     DEC + "test_non_integer_counts_are_rejected"),
    # a dense support with a monomial that is not square-free converts, one digit too long
    ("dense-length-unchecked", "rmcode.py",
     "if len(digits) == n:", "if True:",
     KER + "test_bad_messages_rejected_with_the_same_text[8-2]"),
    # a dense support writes its terms as 0 digits
    ("dense-terms-as-zeros", "rmcode.py",
     'dict.fromkeys(f.support, "1")', 'dict.fromkeys(f.support, "0")',
     RM + "test_word_poly_roundtrip_random"),
    # the dense template holds 1 digits
    ("dense-template-of-ones", "rmcode.py",
     'dict.fromkeys(monomial_positions(m), "0")', 'dict.fromkeys(monomial_positions(m), "1")',
     RM + "test_word_poly_roundtrip_random"),
    # the template merged into the support: its 0 digits win, in the support's order
    ("dense-merge-reversed", "rmcode.py",
     '_zero_digits(f.m) | dict.fromkeys(f.support, "1")', 'dict.fromkeys(f.support, "1") | _zero_digits(f.m)',
     RM + "test_word_poly_roundtrip_random"),
    # simulate reads an empty fixed weight as 0
    ("mode-empty-weight-as-zero", "cli.py",
     '"fixed_weight", int(value), None', '"fixed_weight", int(value or 0), None',
     "tests/test_cli.py::test_simulate_bad_mode"),
    # simulate truncates a fractional fixed weight
    ("mode-weight-through-float", "cli.py",
     '"fixed_weight", int(value), None', '"fixed_weight", int(float(value)), None',
     "tests/test_cli.py::test_simulate_bad_mode"),
    # simulate reads every mode other than fixed as bsc
    ("mode-any-kind-as-bsc", "cli.py",
     'if kind == "bsc":', 'if kind != "fixed":',
     "tests/test_cli.py::test_simulate_bad_mode"),
    # a bad number reaches the user as int's or float's own message
    ("mode-number-error-unwrapped", "cli.py",
     "except ValueError:\n        pass", "except ArithmeticError:\n        pass",
     "tests/test_cli.py::test_simulate_bad_mode"),
    # selftest's checks pass what they should fail: each of these branches never raises CheckFailed
    ("golden-syndrome-unchecked", "selfcheck.py",
     'if syn != parse_poly("x2 + x3 + 1", 3):', "if False:",
     SC + "test_each_failure_branch_becomes_its_false_row[golden-syndrome]"),
    ("golden-codeword-unchecked", "selfcheck.py",
     'if str(result.codeword) != "10101010":', "if False:",
     SC + "test_each_failure_branch_becomes_its_false_row[golden-codeword]"),
    ("golden-error-unchecked", "selfcheck.py",
     'if result.error != parse_poly("x2*x3", 3):', "if False:",
     SC + "test_each_failure_branch_becomes_its_false_row[golden-error]"),
    ("berman-span-unchecked", "selfcheck.py",
     "if not berman_check(params):", "if False:",
     SC + "test_failing_check_becomes_a_false_row"),
    ("berman-rank-unchecked", "selfcheck.py",
     "if rk != params.dim:", "if False:",
     SC + "test_each_failure_branch_becomes_its_false_row[berman-rank]"),
    ("min-weight-unchecked", "selfcheck.py",
     "if got != params.min_distance:", "if False:",
     SC + "test_each_failure_branch_becomes_its_false_row[min-weight]"),
    ("dichotomy-unchecked", "selfcheck.py",
     "if (weight <= t) != all_low:", "if False:",
     SC + "test_each_failure_branch_becomes_its_false_row[dichotomy]"),
    ("location-within-t-unchecked", "selfcheck.py",
     'if weight <= t:\n            raise CheckFailed(\n                f"remainder',
     'if False:\n            raise CheckFailed(\n                f"remainder',
     SC + "test_each_failure_branch_becomes_its_false_row[location-within-t]"),
    # (the killing case's id, location-not-2^l-1, holds a caret, so the whole test is named)
    ("location-weight-unchecked", "selfcheck.py",
     "if len(loc) == params.l and weight != params.min_distance - 1:", "if False:",
     SC + "test_each_failure_branch_becomes_its_false_row"),
    ("decode-failure-unchecked", "selfcheck.py",
     "if res.status == FAILURE:", "if False:",
     SC + "test_each_failure_branch_becomes_its_false_row[decode-failed]"),
    ("decode-mismatch-unchecked", "selfcheck.py",
     "if res.codeword != c or res.error_bits != e.value:", "if False:",
     SC + "test_each_failure_branch_becomes_its_false_row[decode-mismatch]"),
    ("ml-tie-unchecked", "selfcheck.py",
     "if ml.is_tie or ml.codeword != c:", "if False:",
     SC + "test_each_failure_branch_becomes_its_false_row[ml-tie]"),
    ("search-agreement-unchecked", "selfcheck.py",
     "if decode_search(v, params) != res:", "if False:",
     SC + "test_each_failure_branch_becomes_its_false_row[search-disagrees]"),
    # a failed check escapes run_selftest as an exception, not a False row
    ("check-failed-not-caught", "selfcheck.py",
     "except CheckFailed as exc:", "except ArithmeticError as exc:",
     SC + "test_failing_check_becomes_a_false_row"),
    # rmgb basis builds a request of any size
    ("basis-size-never-refused", "cli.py",
     "if cost > limit:", "if False:",
     "tests/test_cli.py::test_basis_refuses_oversized_requests[jennings-1]"),
    # reduced-check is held to the listing limit
    ("basis-check-under-list-limit", "cli.py",
     "limit, what, cost = CHECK_LIMIT,", "limit, what, cost = LIST_LIMIT,",
     "tests/test_cli.py::test_basis_refuses_oversized_requests[reduced-check-14]"),
    # a G listing is costed as jennings, over every size from l up
    ("basis-g-costed-as-jennings", "cli.py",
     'sizes = [l] if which == "G" else range(l, m + 1)', "sizes = range(l, m + 1)",
     "tests/test_cli.py::test_basis_refuses_oversized_requests[G-12]"),
    # Left out as equivalent: poly_to_word's size rule never taken, always taken,
    # or with >= for >.  Either path gives every support the same word or the same
    # error, so these change only its speed.
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def run_tests(tree: Path, tests) -> int:
    """Run pytest with ``-x`` on ``tests`` in ``tree``, against that tree's rmgb; return its exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def apply(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / "src" / "rmgb" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text occurs {text.count(old)} times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if names and len(chosen) != len(set(names)):
        raise SystemExit(f"unknown mutant names: {sorted(set(names) - {m[0] for m in MUTANTS})}")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        code = run_tests(base, sorted({m[4] for m in chosen}))
        if code != 0:
            print(f"the killing tests fail on the unmutated tree (pytest exit {code})")
            return 1
        for name, file, old, new, test in chosen:
            tree = Path(tmp) / name
            copy_tree(tree)
            apply(tree, file, old, new)
            start = time.perf_counter()
            code = run_tests(tree, [test])
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            failed += code != 1
            print(f"{verdict:10} {name:28} {time.perf_counter() - start:5.1f} s  {test}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
