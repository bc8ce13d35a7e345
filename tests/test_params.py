import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsdf.params import (GsParamSet, enumerate_param_sets, kkks_param_set,
                         kkss_param_sets, searchable_param_sets,
                         type_applicable, type_tags)


def P(text):
    return GsParamSet.parse(text)


def test_parse_and_str():
    p = P("(43;21,21,21,15;35)")
    assert (p.v, p.k, p.lam) == (43, (21, 21, 21, 15), 35)
    assert str(p) == "(43;21,21,21,15;35)"
    with pytest.raises(ValueError):
        GsParamSet.parse("43;21,21,21,15;35")


def test_validation():
    with pytest.raises(ValueError):
        GsParamSet(7, (3, 3, 3, 1), 4)  # trace condition fails
    with pytest.raises(ValueError):
        GsParamSet(7, (3, 3, 2, 2), 3)  # counting condition fails
    with pytest.raises(ValueError):
        GsParamSet(7, (3, 3, 3), 3)
    p = P("(3;1,1,2,0;1)")  # un-ordered but consistent
    assert not p.is_ordered
    assert p.normalized() == P("(3;1,1,1,0;0)")


@pytest.mark.parametrize("v", (0, -7))
def test_orders_below_one_are_rejected(v):
    with pytest.raises(ValueError, match=r"^v must be positive$"):
        GsParamSet(v, (0, 0, 0, 0), 0)
    with pytest.raises(ValueError, match=r"^v must be positive$"):
        enumerate_param_sets(v)


def test_offsets():
    p = P("(7;3,3,3,1;3)")
    assert p.offsets == (1, 1, 1, 5)
    assert sum(s * s for s in p.offsets) == 4 * 7


def test_complement():
    base = P("(3;1,1,1,0;0)")
    assert base.complement(2) == P("(3;1,1,2,0;1)")
    assert base.complement(2).complement(2) == base
    assert base.complement(3) == P("(3;1,1,1,3;3)")


@pytest.mark.parametrize("i", (-1, 4))
def test_complement_rejects_a_block_index_out_of_range(i):
    with pytest.raises(ValueError, match=r"^block index out of range$"):
        P("(3;1,1,1,0;0)").complement(i)


def test_enumerate_small_orders():
    assert [p.k for p in enumerate_param_sets(3)] == [(1, 1, 1, 0)]
    assert [p.k for p in enumerate_param_sets(7)] == [(3, 3, 3, 1), (3, 2, 2, 2)]
    # v=25 has a set below the skew ceiling k1 = 12
    keys = {(p.k, p.lam) for p in enumerate_param_sets(25)}
    assert keys == {((12, 12, 9, 9), 17), ((12, 11, 11, 8), 17),
                    ((12, 10, 10, 9), 16), ((10, 10, 10, 10), 15)}
    assert {(p.k, p.lam) for p in searchable_param_sets(25)} == {
        ((12, 12, 9, 9), 17), ((12, 11, 11, 8), 17), ((12, 10, 10, 9), 16)}


def test_enumerate_v43():
    assert {p.k for p in searchable_param_sets(43)} == {
        (21, 21, 21, 15), (21, 21, 18, 16), (21, 19, 19, 16), (21, 20, 17, 17)}
    extra = {p.k for p in enumerate_param_sets(43)} - {p.k for p in searchable_param_sets(43)}
    assert extra == {(19, 18, 18, 18)}


def test_enumerate_even_v():
    for p in enumerate_param_sets(4) + enumerate_param_sets(10):
        assert sum(s * s for s in p.offsets) == 4 * p.v
        assert p.lam >= 0 and p.is_ordered
    with pytest.raises(ValueError):
        searchable_param_sets(4)


def test_enumeration_is_complete():
    """Every solution of the counting and trace identities, found by
    scanning all ordered sizes k1 >= k2 >= k3 >= k4 >= 0 with 2 k1 <= v."""
    for v in range(1, 61):
        scanned = []
        for k1 in range(v // 2 + 1):
            for k2 in range(k1 + 1):
                for k3 in range(k2 + 1):
                    for k4 in range(k3 + 1):
                        k = (k1, k2, k3, k4)
                        lam = sum(k) - v
                        if lam >= 0 and sum(ki * (ki - 1) for ki in k) == lam * (v - 1):
                            scanned.append((k, lam))
        got = [(p.k, p.lam) for p in enumerate_param_sets(v)]
        assert got == sorted(scanned, reverse=True), v


@pytest.mark.parametrize("v", range(3, 100, 2))
def test_ksss_sets_exist_for_every_odd_order(v):
    sets = searchable_param_sets(v)
    assert sets, f"no parameter set with k1=(v-1)/2 at v={v}"
    for p in sets:
        assert 2 * p.k[0] + 1 == v
        assert type_applicable(p, "ksss")


def test_kkss_examples():
    assert [(p.k, p.lam) for p in kkss_param_sets(13)] == [
        ((6, 6, 6, 3), 8), ((6, 6, 4, 4), 7)]
    assert kkss_param_sets(35) == []
    assert [(p.k, p.lam) for p in kkss_param_sets(25)] == [((12, 12, 9, 9), 17)]


@pytest.mark.parametrize("v", range(3, 100, 2))
def test_kkss_agrees_with_enumeration(v):
    half = (v - 1) // 2
    expect = [p for p in searchable_param_sets(v) if p.k[1] == half]
    assert kkss_param_sets(v) == expect
    for p in expect:
        assert type_applicable(p, "kkss")


def test_kkks_examples():
    assert kkks_param_set(43) == P("(43;21,21,21,15;35)")
    assert kkks_param_set(3) == P("(3;1,1,1,0;0)")
    assert kkks_param_set(9) is None
    have = [v for v in range(3, 50, 2) if kkks_param_set(v) is not None]
    assert have == [3, 7, 13, 21, 31, 43]


@pytest.mark.parametrize("v", range(3, 100, 2))
def test_kkks_agrees_with_enumeration(v):
    half = (v - 1) // 2
    expect = [p for p in searchable_param_sets(v) if p.k[2] == half]
    got = kkks_param_set(v)
    assert ([got] if got else []) == expect


def test_type_tags():
    assert type_tags("kkss") == ("k", "k", "s", "s")
    with pytest.raises(ValueError):
        type_tags("ssss")


@given(st.integers(3, 60))
def test_enumeration_invariants(v):
    sets = enumerate_param_sets(v)
    assert sets == sorted(sets, key=lambda p: p.k, reverse=True)
    for p in sets:
        # any two of the defining identities imply the third
        assert sum(ki * (ki - 1) for ki in p.k) == p.lam * (v - 1)
        assert sum(p.k) == p.lam + v
        assert sum(s * s for s in p.offsets) == 4 * v
        assert p.is_ordered and p.lam >= 0


@given(st.integers(3, 40), st.integers(0, 3))
def test_complement_is_involutive_on_enumerated_sets(v, i):
    for p in enumerate_param_sets(v):
        q = p.complement(i)
        assert q.complement(i) == p
        assert q.normalized().is_ordered


@given(st.integers(1, 30), st.tuples(*[st.integers(0, 30)] * 4))
def test_two_identities_imply_the_third(v, k):
    if any(ki > v for ki in k):
        return
    lam = sum(k) - v  # impose the trace condition
    quad = sum((v - 2 * ki) ** 2 for ki in k) == 4 * v
    count = sum(ki * (ki - 1) for ki in k) == lam * (v - 1)
    if quad:
        assert count  # trace + quadratic => counting
