import copy
import pickle
import random
import re
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from prenex import (
    DuplicateVariableError,
    EmptyPrefixError,
    LengthMismatchError,
    Prefix,
    PrefixError,
    PrefixSyntaxError,
    Quantifier,
    Run,
    VariableSetMismatchError,
    canonicalize,
    default_names,
    equivalent,
    format_prefix,
    implies,
    parse_prefix,
    parse_prefix_pair,
    random_prefix,
    runs,
)
from support import make_prefix, prefix_text_pairs, prefix_texts

A, E = Quantifier.FORALL, Quantifier.EXISTS


@st.composite
def prefixes(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    sigma = draw(st.permutations(range(n)))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return make_prefix(sigma, bits)


# --- parsing ---------------------------------------------------------------


def test_parse_pair_assigns_shared_indices():
    lhs, rhs = parse_prefix_pair("A x1 E x2", "E x2 A x1")
    assert lhs.names == ("x1", "x2")
    assert lhs.sigma == (0, 1) and lhs.b == (A, E)
    assert rhs.sigma == (1, 0) and rhs.b == (E, A)


def test_parse_accepts_unicode_quantifiers():
    lhs, rhs = parse_prefix_pair("∀ x1", "∃ x1")
    assert lhs.b == (A,) and rhs.b == (E,)


def test_parse_indices_follow_name_order_not_appearance():
    p = parse_prefix("A zz E aa")
    assert p.names == ("aa", "zz")
    assert p.sigma == (1, 0)


def test_parse_duplicate_variable():
    with pytest.raises(DuplicateVariableError):
        parse_prefix("A x1 A x1")
    with pytest.raises(DuplicateVariableError):
        parse_prefix_pair("A x1 A x1", "A x1")


def test_parse_empty_prefix():
    with pytest.raises(EmptyPrefixError):
        parse_prefix("")
    with pytest.raises(EmptyPrefixError):
        parse_prefix("   ")


def test_parse_variable_set_mismatch():
    with pytest.raises(VariableSetMismatchError):
        parse_prefix_pair("A x1", "A x2")


@pytest.mark.parametrize(
    "text",
    [
        "A",  # dangling quantifier
        "x1 A",  # name where quantifier expected
        "Ax1 E x2",  # compact form rejected
        "A 1x",  # bad identifier
        "B x1",  # unknown quantifier letter
        "A x1 E",  # trailing quantifier
    ],
)
def test_parse_syntax_errors(text):
    with pytest.raises(PrefixSyntaxError):
        parse_prefix(text)


def test_prefix_constructor_validates():
    with pytest.raises(ValueError):
        make_prefix([0, 0], [1, 1])  # not a permutation
    with pytest.raises(ValueError):
        make_prefix([0, 2], [1, 1])  # out of range
    with pytest.raises(ValueError):
        make_prefix([-1, 1], [1, 1])  # negative index
    with pytest.raises(TypeError):
        make_prefix([0.5, 1], [1, 1])  # not an integer
    with pytest.raises(ValueError):
        make_prefix([0, 1], [1, 1], names=("x1", ""))  # empty name
    with pytest.raises(ValueError):
        make_prefix([0, 1], [1, 1], names=("x1", "x1"))  # duplicate names
    with pytest.raises(ValueError):
        make_prefix([0, 1], [1, 1, 0])  # length mismatch
    with pytest.raises(ValueError):
        Prefix((0, 1), (1, 2), ("x1", "x2"))  # not a quantifier bit
    with pytest.raises(ValueError):
        Prefix((0, 1), b"\x01\x02", ("x1", "x2"))  # not a quantifier byte
    with pytest.raises(EmptyPrefixError):
        make_prefix([], [])


def test_prefix_boxes_int_bits_to_quantifier_singletons():
    p = Prefix((1, 0), (0, 1), ("x1", "x2"))
    assert p.b[0] is Quantifier.EXISTS and p.b[1] is Quantifier.FORALL
    assert p == Prefix((1, 0), (Quantifier.EXISTS, Quantifier.FORALL), ("x1", "x2"))


def test_prefix_value_semantics():
    parsed = parse_prefix("E x2 ∀ x1")
    packed = b"\x00\x01"
    built = [
        Prefix((1, 0), (E, A), ("x1", "x2")),
        Prefix((1, 0), (0, 1), ("x1", "x2")),
        Prefix((1, 0), packed, ("x1", "x2")),
    ]
    assert built[-1].bits is packed  # stored as it is
    for p in built:
        assert p == parsed and hash(p) == hash(parsed)
    assert len({parsed, *built}) == 1
    assert parsed != Prefix((1, 0), (E, E), ("x1", "x2"))
    # the dataclass repr of the tuple-field layout, character for character
    expected_repr = (
        "Prefix(sigma=(1, 0), b=(<Quantifier.EXISTS: 0>, <Quantifier.FORALL: 1>),"
        " names=('x1', 'x2'))"
    )
    assert [repr(p) for p in (parsed, *built)] == [expected_repr] * 4
    assert repr(canonicalize(parsed)) == f"CanonicalClass(rep={expected_repr})"
    # round trips, both before and after the tuple view is built
    for p in (parse_prefix("E x2 A x1"), parsed):
        copies = [pickle.loads(pickle.dumps(p, proto)) for proto in range(6)]
        for again in (*copies, copy.deepcopy(p), copy.copy(p)):
            assert again == p and hash(again) == hash(p)
            assert again.bits == packed and again.b == (E, A)
        assert weakref.ref(p)() is p
    for field in ("sigma", "b", "bits", "names"):
        with pytest.raises(FrozenInstanceError):
            setattr(parsed, field, getattr(parsed, field))
        with pytest.raises(FrozenInstanceError):
            delattr(parsed, field)
    for p in (parsed, *built):
        assert type(p.b) is tuple and p.b == (E, A)
        assert p.b[0] is Quantifier.EXISTS and p.b[1] is Quantifier.FORALL
        assert p.b is p.b  # built once


# --- parse parity with the per-pair reference parser ------------------------

_REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_REF_QUANT_BITS = {"A": 1, "∀": 1, "E": 0, "∃": 0}


def _ref_scan(text):
    """The original parser: one Python step per (quantifier, name) pair."""
    tokens = text.split()
    if not tokens:
        raise EmptyPrefixError("empty prefix")
    if len(tokens) % 2:
        raise PrefixSyntaxError(
            f"dangling token {tokens[-1]!r}: expected quantifier-name pairs"
        )
    pairs = []
    seen = set()
    for quant_tok, name in zip(tokens[::2], tokens[1::2]):
        bit = _REF_QUANT_BITS.get(quant_tok)
        if bit is None:
            raise PrefixSyntaxError(f"expected quantifier token, got {quant_tok!r}")
        if not _REF_IDENT.match(name):
            raise PrefixSyntaxError(f"invalid variable name {name!r}")
        if name in seen:
            raise DuplicateVariableError(f"variable {name!r} quantified twice")
        seen.add(name)
        pairs.append((name, bit))
    return pairs


def _ref_build(pairs, names):
    index = {name: v for v, name in enumerate(names)}
    sigma = tuple(index[name] for name, _ in pairs)
    return sigma, tuple(Quantifier(bit) for _, bit in pairs), names, {Quantifier}


def _ref_parse(text):
    pairs = _ref_scan(text)
    return _ref_build(pairs, tuple(sorted(name for name, _ in pairs)))


def _ref_parse_pair(lhs_text, rhs_text):
    lhs_pairs = _ref_scan(lhs_text)
    rhs_pairs = _ref_scan(rhs_text)
    lhs_names = {name for name, _ in lhs_pairs}
    rhs_names = {name for name, _ in rhs_pairs}
    if lhs_names != rhs_names:
        only_l = sorted(lhs_names - rhs_names)
        only_r = sorted(rhs_names - lhs_names)
        raise VariableSetMismatchError(
            f"variable sets differ (lhs only: {only_l}, rhs only: {only_r})"
        )
    names = tuple(sorted(lhs_names))
    return _ref_build(lhs_pairs, names), _ref_build(rhs_pairs, names)


def _fields(p):
    """Fields of a parsed prefix, with the set of its quantifiers' types."""
    return p.sigma, p.b, p.names, set(map(type, p.b))


def _outcome(parse, *texts):
    """What a parser makes of ``texts``: its result, or its error's type and text."""
    try:
        return parse(*texts)
    except Exception as exc:
        return type(exc), str(exc)


@given(prefix_texts())
def test_parse_matches_reference_parser(text):
    got = _outcome(lambda t: _fields(parse_prefix(t)), text)
    assert got == _outcome(_ref_parse, text)


def _pair_fields(lhs, rhs):
    return tuple(map(_fields, parse_prefix_pair(lhs, rhs)))


@given(prefix_text_pairs())
def test_parse_pair_matches_reference_parser(texts):
    assert _outcome(_pair_fields, *texts) == _outcome(_ref_parse_pair, *texts)



@pytest.mark.parametrize(
    "lhs, rhs, error",
    [
        ("A x1 E y", "A x1 E 1x", PrefixSyntaxError),  # invalid name, sets differ
        ("A x1 E y", "A x1 E x-1", PrefixSyntaxError),
        ("A x1 E y", "A x1 B z", PrefixSyntaxError),  # bad quantifier, sets differ
        ("A x1 E y", "A y B x1", PrefixSyntaxError),  # bad quantifier, same set
        ("A x1 E y", "A x1 E x1", DuplicateVariableError),  # duplicate, sets differ
        ("A x1 E y", "A z E z A y", DuplicateVariableError),
        ("A x1 E y", "A y E x1 A y", DuplicateVariableError),  # duplicate, same set
    ],
)
def test_rhs_fault_outranks_set_mismatch(lhs, rhs, error):
    got = _outcome(parse_prefix_pair, lhs, rhs)
    assert got[0] is error
    assert got == _outcome(_ref_parse_pair, lhs, rhs)


# Right-side faults, each against the left text "A x1 E y".
_RHS_FAULTS = [
    "A x1 B y",  # bad quantifier
    "B x1 E y",  # bad quantifier, before the left side's fault position
    "A x1 E 1x",  # invalid name
    "A x1 E x1",  # duplicate
    "A x1 E z",  # set mismatch
    "A x1",  # set mismatch, one name fewer
    "A x1 E",  # dangling token
    "",  # empty
]


@pytest.mark.parametrize("rhs", _RHS_FAULTS)
@pytest.mark.parametrize(
    "lhs, error",
    [
        ("A x1 B y", PrefixSyntaxError),
        ("A x1 E 1x", PrefixSyntaxError),
        ("A x1 E x1", DuplicateVariableError),
        ("A x1 E", PrefixSyntaxError),
        ("", EmptyPrefixError),
    ],
)
def test_lhs_fault_outranks_every_rhs_fault(lhs, error, rhs):
    got = _outcome(parse_prefix_pair, lhs, rhs)
    assert got == _outcome(parse_prefix, lhs)
    assert got[0] is error
    assert got == _outcome(_ref_parse_pair, lhs, rhs)


@pytest.mark.parametrize("n", [300, 3000])
def test_large_pairs_match_reference_parser(n):
    """Sizes the hypothesis strategies never draw, names in random order: a
    permutation, then one right side with each kind of fault."""
    rng = random.Random(n)
    names = [f"v{k}" for k in rng.sample(range(10**6), n)]
    permutation, repeat, unknown, fewer, invalid = (
        rng.sample(names, n) for _ in range(5)
    )
    repeat[-1] = repeat[0]  # repeats one name and drops another, same length
    unknown[n // 2] = "zz_unknown"
    invalid[n // 3] = "9bad"
    cases = [
        (permutation, None),
        (repeat, DuplicateVariableError),
        (unknown, VariableSetMismatchError),
        (fewer[1:], VariableSetMismatchError),
        (invalid, PrefixSyntaxError),
    ]

    def text(order):
        return " ".join(f"{rng.choice('AE∀∃')} {name}" for name in order)

    lhs = text(names)
    assert _fields(parse_prefix(lhs)) == _ref_parse(lhs)
    for order, error in cases:
        rhs = text(order)
        got = _outcome(_pair_fields, lhs, rhs)
        assert got == _outcome(_ref_parse_pair, lhs, rhs)
        assert (got[0] if isinstance(got[0], type) else None) is error


# --- parser-built prefixes satisfy the constructor's invariants -------------


def _assert_fully_valid(p):
    """``p`` survives the public constructor's checks unchanged, and its
    quantifiers are the enum members themselves, not equal ints."""
    assert p == Prefix(p.sigma, p.b, p.names)
    assert all(q is A or q is E for q in p.b)
    assert type(p.bits) is bytes and p.bits == bytes(p.b)


@given(prefix_texts())
def test_parsed_prefix_passes_full_validation(text):
    try:
        p = parse_prefix(text)
    except PrefixError:
        return
    _assert_fully_valid(p)


@given(prefix_text_pairs())
def test_parsed_pair_passes_full_validation(texts):
    try:
        s1, s2 = parse_prefix_pair(*texts)
    except PrefixError:
        return
    _assert_fully_valid(s1)
    _assert_fully_valid(s2)
    assert s1.names is s2.names

# --- runs ------------------------------------------------------------------


def test_runs_example_from_text():
    p = parse_prefix("A x1 A x2 E x3 A x4")
    assert runs(p) == (Run(0, 2, A), Run(2, 1, E), Run(3, 1, A))


def test_runs_singleton():
    assert runs(parse_prefix("E x1")) == (Run(0, 1, E),)


def test_runs_full_alternation():
    p = parse_prefix("A x1 E x2 A x3 E x4")
    assert [r.length for r in runs(p)] == [1, 1, 1, 1]
    assert [r.quant for r in runs(p)] == [A, E, A, E]


@given(prefixes())
def test_runs_partition_and_alternate(p):
    rs = runs(p)
    assert rs[0].start == 0
    assert sum(r.length for r in rs) == p.n
    for left, right in zip(rs, rs[1:]):
        assert left.start + left.length == right.start
        assert left.quant is not right.quant


# --- canonicalization and equivalence --------------------------------------


def test_canonicalize_sorts_within_run():
    assert canonicalize(parse_prefix("A x2 A x1 E x3")).text == "A x1 A x2 E x3"


def test_canonicalize_leaves_singleton_runs():
    p = parse_prefix("E x3 A x2 A x1")
    assert canonicalize(p).rep.sigma == (2, 0, 1)


def test_canonicalize_fixed_point_on_single_variable():
    p = parse_prefix("A x1")
    assert canonicalize(p).rep == p


@given(prefixes())
def test_canonicalize_idempotent_and_shape_preserving(p):
    rep = canonicalize(p).rep
    assert canonicalize(rep).rep == rep
    assert rep.b == p.b
    for r in runs(p):
        stop = r.start + r.length
        assert sorted(p.sigma[r.start : stop]) == list(rep.sigma[r.start : stop])


def test_equivalent_within_run_permutation():
    s1, s2 = parse_prefix_pair("A x1 A x2 E x3 A x4", "A x2 A x1 E x3 A x4")
    assert equivalent(s1, s2)


def test_not_equivalent_across_runs():
    s1, s2 = parse_prefix_pair("A x1 A x2 E x3 A x4", "A x1 A x4 E x3 A x2")
    assert not equivalent(s1, s2)


def test_equivalent_requires_same_universe():
    # equivalent raises what implies raises: for two name sets, for two lengths
    for lhs, rhs, error in (
        ("A x1", "A y1", VariableSetMismatchError),
        ("A x1", "A x1 E x2", LengthMismatchError),
    ):
        p1, p2 = parse_prefix(lhs), parse_prefix(rhs)
        for call in (equivalent, implies):
            with pytest.raises(error):
                call(p1, p2)


@given(prefixes(), st.randoms(use_true_random=False))
def test_equivalent_is_an_equivalence_relation(p, rnd):
    assert equivalent(p, p)
    # scramble inside runs to get another member of the same class
    sigma = list(p.sigma)
    for r in runs(p):
        chunk = sigma[r.start : r.start + r.length]
        rnd.shuffle(chunk)
        sigma[r.start : r.start + r.length] = chunk
    q = make_prefix(sigma, [int(x) for x in p.b])
    assert equivalent(p, q) and equivalent(q, p)


# --- formatting ------------------------------------------------------------


def test_format_examples():
    assert format_prefix(make_prefix([0, 1], [1, 0])) == "A x1 E x2"
    assert format_prefix(make_prefix([1, 0], [0, 1])) == "E x2 A x1"


@given(prefixes())
def test_parse_format_round_trip(p):
    assert parse_prefix(format_prefix(p)) == p


def test_round_trip_through_pair_parser():
    p = parse_prefix("E x2 A x1 A x3")
    again, other = parse_prefix_pair(format_prefix(p), format_prefix(p))
    assert again == p and other == p


# --- random generation ------------------------------------------------------


def test_random_prefix_is_deterministic_per_seed():
    a = random_prefix(1000, random.Random(5))
    b = random_prefix(1000, random.Random(5))
    assert a == b


def test_random_prefix_valid_at_padded_names():
    p = random_prefix(12, random.Random(0))
    assert p.names == default_names(12)
    assert p.names == tuple(sorted(p.names))
    assert parse_prefix(format_prefix(p)) == p
