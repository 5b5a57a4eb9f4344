import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratrecon.errors import FieldMismatch
from ratrecon.fields import (
    QQ,
    SHARED_BOX,
    FpElement,
    PrimeField,
    RationalField,
    derive_rng,
    enumerate_countable,
    field_from_string,
    height_box_sizes,
    is_probable_prime,
    random_element,
)

F7 = PrimeField(7)


def test_rational_add():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_fp_inverse_matches_brute_force():
    # brute force over residues is the oracle for the fast inverse
    x = F7.from_int(3)
    inv = F7.one / x
    brute = next(r for r in range(1, 7) if (3 * r) % 7 == 1)
    assert brute == 5
    assert inv.residue == brute


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F7.inv(F7.zero)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_cross_field_arithmetic_rejected():
    f11 = PrimeField(11)
    with pytest.raises(FieldMismatch):
        F7.from_int(1) + f11.from_int(1)
    with pytest.raises(FieldMismatch):
        Fraction(1, 2) * F7.from_int(3)


def test_int_operands_embed():
    assert F7.from_int(3) + 11 == F7.from_int(0)
    assert 2 - F7.from_int(3) == F7.from_int(6)
    assert (1 / F7.from_int(3)).residue == 5


def test_fp_hash_is_residue_hash():
    # an element hashes like the int in [0, p) that it compares equal to
    f = PrimeField(1000003)
    for k in (0, 1, 6, 1000002, 10 ** 20, -5):
        x = f.from_int(k)
        assert hash(x) == hash(k % f.p) == hash(x.residue)
        assert hash(x) == hash(f.from_int(k + 3 * f.p))
    assert {3: "int"}[F7.from_int(10)] == "int"


def test_fp_hash_keeps_fields_apart_in_dicts_and_sets():
    # equal residues of different fields collide in hash but stay distinct keys
    f11 = PrimeField(11)
    d = {F7.from_int(3): "F7", f11.from_int(3): "F11"}
    assert len(d) == 2
    assert d[F7.from_int(10)] == "F7" and d[f11.from_int(14)] == "F11"
    assert PrimeField(13).from_int(3) not in d
    s = {F7.from_int(k) for k in range(20)} | {f11.from_int(k) for k in range(20)}
    assert len(s) == 7 + 11
    pts = {(F7.from_int(1), F7.from_int(2)): 1, (f11.from_int(1), f11.from_int(2)): 2}
    assert pts[(F7.from_int(8), F7.from_int(9))] == 1
    assert pts[(f11.from_int(12), f11.from_int(13))] == 2


def test_zero_and_one_are_built_once():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert type(QQ.zero) is Fraction and (QQ.zero, QQ.one) == (0, 1)
    f = PrimeField(101)
    assert f.one is f.one and f.zero is f.zero
    assert (f.zero.residue, f.one.residue) == (0, 1)
    assert f.zero.field is f and f.one.field is f
    # each field has its own constants, equal to the same ints
    g = PrimeField(101)
    assert g.one is not f.one and g.one == f.one == 1


def test_small_prime_rejected_by_default():
    with pytest.raises(ValueError):
        PrimeField(3)
    with pytest.raises(ValueError):
        PrimeField(9)


def test_descriptor_roundtrip():
    assert field_from_string("q") == QQ
    assert field_from_string("fp:1000003").p == 1000003
    assert field_from_string("fp:1000003").descriptor() == "fp:1000003"
    with pytest.raises(ValueError):
        field_from_string("r64")


def test_parse_format_roundtrip():
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert QQ.parse(" +5 ") == Fraction(5)
    assert QQ.parse("\t12/8\n") == Fraction(3, 2)
    assert QQ.format(Fraction(5)) == "5"
    assert F7.parse("10").residue == 3
    assert F7.parse("2/3") == F7.from_int(2) / F7.from_int(3)


@pytest.mark.parametrize("text", [
    "1e99999999", "1e-99999999", "1.5", ".5", "1_000", "3/-4", "3 /4", "1/2/3",
    "", "+", "/2", "inf", "nan", "٣",
])
def test_qq_refuses_every_other_form(text):
    # only [+-]digits and [+-]digits/digits are elements of Q; a decimal or
    # exponent literal such as 1e99999999 is an input error
    with pytest.raises(ValueError, match="invalid element of Q"):
        QQ.parse(text)


@pytest.mark.parametrize("text", [
    "1e99999999", "1.5", ".5", "1_000", "3/-4", "3 /4", " 3 / 4", "1/2/3",
    "", "+", "/2", "inf", "٣", "0x10",
])
def test_fp_refuses_what_q_refuses(text):
    # over F_p an element has the two forms of Q as well: int() would read
    # "1_000" as 91 mod 101, "٣" as 3 and " 3 / 4" as 26 mod 101
    with pytest.raises(ValueError, match="invalid element of F_101"):
        PrimeField(101).parse(text)


def test_fp_parses_both_forms():
    f101 = PrimeField(101)
    assert f101.parse(" -3 ") == f101.from_int(-3)
    assert f101.parse("+1000") == f101.from_int(91)
    assert f101.parse("3/4") == f101.from_int(3) / f101.from_int(4)
    with pytest.raises(ZeroDivisionError, match="zero denominator mod 101"):
        f101.parse("3/202")


@pytest.mark.parametrize("field, height", [
    (QQ, 1), (QQ, 2), (QQ, 10), (QQ, 1000), (QQ, 10 ** 6),
    (PrimeField(5), 0), (PrimeField(101), 10), (PrimeField(1000003), -3),
], ids=["q-1", "q-2", "q-10", "q-1000", "q-1000000", "fp5", "fp101", "fp1000003"])
def test_random_element_deterministic(field, height):
    # random_element and a run's sampler take the bits of randint (Q) or
    # randrange (F_p) on a twin stream and give the same value, with other
    # reads of the stream in between; a sampler's ids are equal exactly
    # when the values are (over Q, 2/4 and 1/2 too), and over Q it builds
    # each value once.  Any height is accepted over F_p, none below 1 over Q.
    for seed in range(5):
        twin, one, run = (random.Random(seed) for _ in range(3))
        draw = field._sampler(run, height)
        seen = {}
        for i in range(10 ** 4):
            if field == QQ:
                want = Fraction(twin.randint(-height, height), twin.randint(1, height))
            else:
                want = FpElement(twin.randrange(field.p), field)
            key, got = draw()
            assert random_element(field, one, height) == want and got == want
            first = seen.setdefault(want, (key, got))
            assert first[0] == key
            assert first[1] is got if field == QQ else first[1] == got
            if i % 7 == 3:
                assert one.getrandbits(63) == run.getrandbits(63) == twin.getrandbits(63)
        assert len({key for key, _ in seen.values()}) == len(seen)
        assert one.random() == run.random() == twin.random()
    if field == QQ:
        with pytest.raises(ValueError, match="height_bound must be >= 1"):
            random_element(field, random.Random(0), 0)


@pytest.mark.parametrize("field, height", [
    (PrimeField(5), 10), (PrimeField(101), 10), (PrimeField(1000003), 10),
    (PrimeField(2 ** 61 - 1), 10), (QQ, 1), (QQ, 10), (QQ, 1000),
], ids=["fp5", "fp101", "fp1000003", "fp2^61-1", "q-1", "q-10", "q-1000"])
def test_bulk_draw_is_single_draws(field, height):
    # draw(k) gives exactly the k pairs that k calls of draw() give on a twin
    # stream, reads the stream as far, and over Q shares the run's id cache
    # with the single draws: each value is the one element built for it.  A
    # residue mod 2^61 - 1 takes more than one 32-bit word per read.
    for seed in range(3):
        bulk_rng, single_rng = random.Random(seed), random.Random(seed)
        bulk, single = field._sampler(bulk_rng, height), field._sampler(single_rng, height)
        seen = {}
        for k in (0, 1, 7, 200, 1, 0, 333):
            got = bulk(k)
            want = [single() for _ in range(k)]
            assert type(got) is list and got == want
            assert [type(x) for _, x in got] == [type(x) for _, x in want]
            one = bulk()
            assert one == single()
            for key, x in got + [one]:
                kept = seen.setdefault(key, x)
                assert kept is x if field == QQ else kept == x
            assert bulk_rng.getrandbits(64) == single_rng.getrandbits(64)
        assert len(seen) > 1


def test_random_element_fp_range():
    rng = random.Random(1)
    for _ in range(200):
        assert 0 <= random_element(F7, rng, 10).residue < 7


def test_random_element_diversity():
    # regression threshold: 1000 draws at height 10**6 stay almost all distinct
    rng = random.Random(7)
    draws = {random_element(QQ, rng, 10 ** 6) for _ in range(1000)}
    assert len(draws) >= 900


def test_derived_streams_independent_and_stable():
    a = derive_rng(5, "task", 0).random()
    b = derive_rng(5, "task", 1).random()
    assert a != b
    assert derive_rng(5, "task", 0).random() == a


def test_enumerate_countable_base_cases():
    want = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
            Fraction(2), Fraction(-2), Fraction(1, 3), Fraction(-1, 3)]
    assert [enumerate_countable(i) for i in range(9)] == want


def test_enumerate_countable_injective_prefix():
    seen = {enumerate_countable(i) for i in range(10 ** 4)}
    assert len(seen) == 10 ** 4


@pytest.mark.parametrize("field", [QQ, PrimeField(101), PrimeField(1000003)])
def test_field_axioms_on_random_triples(field):
    rng = random.Random(2024)
    one, zero = field.one, field.zero
    for _ in range(1000):
        x = random_element(field, rng, 50)
        y = random_element(field, rng, 50)
        z = random_element(field, rng, 50)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if x != zero:
            assert x * (one / x) == one


@given(st.integers(), st.integers(min_value=1))
def test_qq_parse_format_is_identity(n, d):
    x = Fraction(n, d)
    assert QQ.parse(QQ.format(x)) == x


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=0, max_value=10 ** 6))
def test_enumerate_countable_injective(i, j):
    if i != j:
        assert enumerate_countable(i) != enumerate_countable(j)


def test_miller_rabin_small():
    primes = {2, 3, 5, 7, 11, 13, 1000003}
    for n in list(primes) + [1, 4, 9, 1000001, 561, 2 ** 31 - 1]:
        assert is_probable_prime(n) == (n in primes or n == 2 ** 31 - 1)


def test_height_box_sizes_count_the_sampler_values():
    sizes = height_box_sizes(15)
    for h in range(1, 16):
        box = {Fraction(n, d) for n in range(-h, h + 1) for d in range(1, h + 1)}
        assert sizes[h - 1] == len(box)
    assert (sizes[0], sizes[1], sizes[9]) == (3, 7, 127)


@pytest.mark.parametrize("height", [10, 1, 28])
def test_small_box_table_is_shared_by_the_samplers(height):
    # every sampler of a field and height draws from one table when the box
    # has at most SHARED_BOX values: equal ids give the very same element
    field = RationalField()
    firsts = {}
    for seed in range(4):
        for key, x in field._sampler(random.Random(seed), height)(300):
            assert firsts.setdefault(key, x) is x
    assert len(firsts) > 1


def test_q_tables_hold_at_most_their_box():
    sizes = height_box_sizes(29)
    assert sizes[27] <= SHARED_BOX < sizes[28]
    q, rng = RationalField(), random.Random(11)
    for h in range(1, 29):
        q._sampler(rng, h)(4000)
        assert 0 < len(q._tables[h]) <= sizes[h - 1]
    q._sampler(rng, 29)(100)
    assert q._tables[29] is None
    assert sum(len(t) for t in q._tables.values() if t) <= sum(sizes[:28])


def test_large_boxes_leave_no_shared_table():
    # Q at a height whose box exceeds SHARED_BOX keeps a cache per run,
    # which dies with it: heights up to 256 are marked None, larger ones
    # never enter the field's tables
    q = RationalField()
    for h in (29, 100, 256, 10 ** 6):
        q._sampler(random.Random(2), h)(500)
    assert q._tables == {29: None, 100: None, 256: None}
    draws = [q._sampler(random.Random(2), 100)(500) for _ in range(2)]
    assert all(x is not y for (_, x), (_, y) in zip(*draws))


def test_prime_field_samplers_share_no_elements():
    # over F_p each run builds its own elements, so a value is always of
    # the field object that drew it (verification tells a value of its
    # field by `.field is`), also for two equal fields
    a, b = PrimeField(101), PrimeField(101)
    xs = a._sampler(random.Random(3), 10)(200)
    ys = b._sampler(random.Random(3), 10)(200)
    zs = a._sampler(random.Random(3), 10)(200)
    assert [k for k, _ in xs] == [k for k, _ in ys] == [k for k, _ in zs]
    assert all(x.field is a and y.field is b and x is not y and x is not z
               for (_, x), (_, y), (_, z) in zip(xs, ys, zs))
