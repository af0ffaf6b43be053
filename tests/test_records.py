"""The value types on ``polyring.Record``: repr, equality, hashing, immutability, copies."""

import copy
import pickle

import pytest

from rmgb.decoder import CORRECTED_OMEGA, MLResult, decode, ml_decode_bruteforce
from rmgb.division import DivisionResult, divide
from rmgb.groebner import BasisReport, check_basis
from rmgb.polyring import parse_poly
from rmgb.rmcode import CodeParams, Word, encode_bits


def copies(value):
    """``value`` through every pickle protocol, ``copy.copy`` and ``copy.deepcopy``."""
    pickled = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    return pickled + [copy.copy(value), copy.deepcopy(value)]


def samples():
    """One value of each of the six types, each with its field names."""
    params = CodeParams(3, 2)
    failing = check_basis([parse_poly("x1*x2 + 1", 2), parse_poly("x1 + x2", 2)], "lex")
    return [
        (params, ("m", "l")),
        (Word(8, 0b10110001), ("n", "value")),
        (decode(Word(8, 1), params), ("status", "codeword", "error_bits")),
        (ml_decode_bruteforce(Word(8, 1), params), ("codeword", "distance", "is_tie")),
        (failing, ("is_groebner", "is_reduced", "failing_pair")),
        (divide(parse_poly("x1", 2), [parse_poly("x1 + 1", 2)]), ("quotients", "remainder")),
    ]


def test_literal_reprs():
    params = CodeParams(3, 2)
    assert repr(Word(n=4, value=3)) == "Word(n=4, value=3)"
    assert repr(CodeParams(6, 3)) == "CodeParams(m=6, l=3)"
    assert repr(BasisReport(True, True)) == "BasisReport(is_groebner=True, is_reduced=True, failing_pair=None)"
    assert repr(check_basis([parse_poly("x1*x2 + 1", 2), parse_poly("x1 + x2", 2)], "lex")) == (
        "BasisReport(is_groebner=False, is_reduced=False, failing_pair=(0, 1, Poly(2, 'x2^2 + 1')))")
    # params is left out of a DecodeResult's repr
    assert repr(decode(Word(8, 1), params)) == (
        "DecodeResult(status='corrected_low', codeword=Word(n=8, value=0), error_bits=1)")
    assert repr(decode(Word(8, 0b11110000 ^ 1 << 7), params)) == (
        "DecodeResult(status='corrected_omega', codeword=Word(n=8, value=240), error_bits=128)")
    assert repr(ml_decode_bruteforce(Word(8, 1), params)) == (
        "MLResult(codeword=Word(n=8, value=0), distance=1, is_tie=False)")
    assert repr(divide(parse_poly("x1", 2), [parse_poly("x1 + 1", 2)])) == (
        "DivisionResult(quotients=(Poly(2, '1'),), remainder=Poly(2, '1'))")
    assert repr(DivisionResult((), parse_poly("x2", 2))) == "DivisionResult(quotients=(), remainder=Poly(2, 'x2'))"


def test_equal_values_hash_equal_and_other_classes_differ():
    for value, _ in samples():
        twin = copy.deepcopy(value)
        assert twin is not value and twin == value and hash(twin) == hash(value)
        assert not twin != value
    assert Word(4, 3) == Word(4, 3) and Word(4, 3) != Word(4, 2) and Word(4, 3) != Word(5, 3)
    assert Word(4, 3) != (4, 3) and (4, 3) != Word(4, 3)
    assert Word(4, 3) != CodeParams(4, 3) and CodeParams(4, 3) != Word(4, 3)
    assert CodeParams(6, 3) != CodeParams(6, 2) and len({CodeParams(6, 3), CodeParams(6, 3)}) == 1
    assert MLResult(Word(8, 0), 1, False) != (Word(8, 0), 1, False)
    # the code decoded in is no field: results in different codes can be equal
    word = Word(8, 0b11110000)
    assert decode(word, CodeParams(3, 1)) == decode(word, CodeParams(3, 2))
    assert decode(word, CodeParams(3, 1)).params != decode(word, CodeParams(3, 2)).params


def test_code_params_hash_as_their_field_tuple():
    # the caches keyed on CodeParams see the same hash as the tuple (m, l)
    for m in range(1, 17):
        for l in range(m + 1):
            params = CodeParams(m, l)
            assert hash(params) == hash((m, l)) and params == CodeParams(m, l)
            assert repr(params) == f"CodeParams(m={m}, l={l})"


def test_fields_cannot_be_assigned_or_deleted():
    for value, fields in samples():
        for name in fields + ("other",):
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    params = CodeParams(6, 3)
    for name in ("n", "nu", "t"):
        with pytest.raises(AttributeError):
            setattr(params, name, 0)
    assert (params.n, params.nu, params.t) == (64, 3, 3)


def test_round_trips_give_equal_values():
    for value, _ in samples():
        for twin in copies(value):
            assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
            assert hash(twin) == hash(value)
    for twin in copies(CodeParams(16, 8)):
        assert (twin.n, twin.nu, twin.t, twin.dim) == (65536, 8, 127, CodeParams(16, 8).dim)


def test_copied_decode_result_builds_its_lazy_fields_on_first_read():
    params = CodeParams(4, 2)
    sent = encode_bits(0b1011, params)
    result = decode(Word(16, sent.value ^ 1 << 15), params)  # an error at X1*X2*X3*X4
    assert result.status == CORRECTED_OMEGA
    for twin in copies(result):
        assert "error" not in vars(twin) and "chosen_locations" not in vars(twin)
        assert twin.params == params
        assert twin.error == result.error and twin.chosen_locations == result.chosen_locations
        assert "error" in vars(twin) and "chosen_locations" in vars(twin)
    # once read, a copy carries the values it was given
    for twin in copies(result):
        assert twin.error == result.error and twin.chosen_locations == ({1, 2, 3, 4},)
