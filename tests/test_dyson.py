import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from dysonsym import (
    DysonSymbol,
    count_f1,
    crank,
    crank_counts,
    dyson_crank,
    enumerate_dyson_symbols,
    from_dyson_symbol,
    partition_count,
    partitions_of,
    to_dyson_symbol,
    validate_dyson,
)

from dysonsym.dyson import _encode
from golden_data import DYSON_OF_FOUR


def test_weight_and_crank():
    sym = DysonSymbol((2, 2), (1,))
    assert sym.weight() == 2 + 2 + 1 + 2 * 1
    assert sym.crank() == 1
    assert dyson_crank(sym) == 1


def test_validate_dyson():
    assert validate_dyson(DysonSymbol((), (2, 2)))
    assert not validate_dyson(DysonSymbol((), (2, 1)))
    assert not validate_dyson(DysonSymbol((), (1,)))
    assert validate_dyson(DysonSymbol((1,), ()))
    assert not validate_dyson(DysonSymbol((2,), ()))
    assert validate_dyson(DysonSymbol((3, 3, 1), (2,)))
    assert not validate_dyson(DysonSymbol((3, 2), (2,)))
    assert not validate_dyson(DysonSymbol((1, 2), ()))  # not weakly decreasing


def test_validate_dyson_is_false_on_a_side_that_is_not_iterable():
    assert not validate_dyson(DysonSymbol(5, ()))
    assert not validate_dyson(DysonSymbol((1,), None))


def test_five_symbols_of_four():
    syms = enumerate_dyson_symbols(4)
    assert len(syms) == 5
    assert set(syms) == set(DYSON_OF_FOUR)
    assert all(s.weight() == 4 for s in syms)


def test_encoding_examples():
    # No ones: the symbol is (empty, conjugate).
    assert to_dyson_symbol((3, 2)) == DysonSymbol((), (2, 2, 1))
    # Only ones.
    assert to_dyson_symbol((1, 1, 1)) == DysonSymbol((1, 1, 1), ())
    # Mixed.
    sym = to_dyson_symbol((4, 3, 1))
    assert validate_dyson(sym)
    assert sym.weight() == 8


def test_encoding_is_weight_preserving_bijection():
    for n in range(1, 16):
        seen = set()
        for lam in partitions_of(n):
            sym = to_dyson_symbol(lam)
            assert validate_dyson(sym)
            assert sym.weight() == n
            assert from_dyson_symbol(sym) == lam
            seen.add(sym)
        assert len(seen) == partition_count(n)


def test_crank_negation_under_encoding():
    for n in range(1, 16):
        for lam in partitions_of(n):
            assert dyson_crank(to_dyson_symbol(lam)) == -crank(lam)


def test_structural_search_agrees_with_bijection():
    for n in range(1, 13):
        assert set(enumerate_dyson_symbols(n, method="structural")) == set(
            enumerate_dyson_symbols(n)
        )


def test_count_f1_equals_crank_counts():
    for n in range(2, 21):
        table = crank_counts(n)
        for m in range(-n, n + 1):
            assert count_f1(m, n) == table[-m]


def test_json_round_trip():
    sym = DysonSymbol((3, 3, 1), (2, 1))
    assert DysonSymbol.from_json(sym.to_json()) == sym


def test_from_json_rejects_invalid_symbol():
    # A one-part alpha must be (1).
    with pytest.raises(ValueError):
        DysonSymbol.from_json('{"alpha": [3], "beta": []}')


def test_from_json_rejects_boolean_parts():
    assert DysonSymbol.from_json('{"alpha": [1], "beta": [2, 2]}') == DysonSymbol((1,), (2, 2))
    for text in ('{"alpha": [true], "beta": []}', '{"alpha": [], "beta": [true, true]}'):
        with pytest.raises(ValueError, match="positive integers, got True"):
            DysonSymbol.from_json(text)
    # A single bad part is still named by the part check.
    with pytest.raises(ValueError, match="weakly decreasing"):
        DysonSymbol.from_json('{"alpha": [1, 2], "beta": []}')


def test_errors():
    with pytest.raises(ValueError):
        to_dyson_symbol(())
    with pytest.raises(ValueError):
        to_dyson_symbol((2, 3, 1))
    with pytest.raises(ValueError):
        to_dyson_symbol((1, 2))
    with pytest.raises(ValueError):
        from_dyson_symbol(DysonSymbol((2,), ()))
    with pytest.raises(ValueError):
        enumerate_dyson_symbols(0)
    with pytest.raises(ValueError):
        enumerate_dyson_symbols(3, method="nope")


def test_to_dyson_symbol_still_checks_its_input():
    for bad in ((), (1, 2), (0,), (True,), (2.0,)):
        with pytest.raises(ValueError):
            to_dyson_symbol(bad)


def random_partition(rng, n):
    # Parts drawn below a cap that is the rest, a tenth of it, or 2, so that
    # large parts, small parts and runs of ones all come up.
    parts, left = [], n
    while left:
        part = rng.randint(1, min(left, rng.choice((left, max(1, left // 10), 2))))
        parts.append(part)
        left -= part
    return tuple(sorted(parts, reverse=True))


def test_unchecked_encoding_agrees_with_the_checked_one():
    for n in range(1, 21):
        for lam in partitions_of(n):
            assert _encode(lam) == to_dyson_symbol(lam), lam
    rng = random.Random(2024)
    for _ in range(200):
        lam = random_partition(rng, rng.randint(200, 400))
        assert _encode(lam) == to_dyson_symbol(lam), lam


# sha256 over repr(enumerate_dyson_symbols(n)) for n = 1..30 in turn, as
# the encoding gave them when it conjugated (ones, *middle parts) for alpha.
DYSON_DIGEST = "496ed8778d3f110eae0ead2cae7aa6c799b8453b62254ba79ebe367fb8955cb3"


def test_dyson_symbols_keep_their_order_up_to_30():
    digest = hashlib.sha256()
    for n in range(1, 31):
        digest.update(repr(enumerate_dyson_symbols(n)).encode())
    assert digest.hexdigest() == DYSON_DIGEST


@st.composite
def partition_strategy(draw):
    parts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=9))
    return tuple(sorted(parts, reverse=True))


@given(partition_strategy())
def test_round_trip_random_partitions(lam):
    sym = to_dyson_symbol(lam)
    assert validate_dyson(sym)
    assert sym.weight() == sum(lam)
    assert from_dyson_symbol(sym) == lam


@st.composite
def partitions_up_to_200(draw):
    # The smallest drawn parts that fit in weight 200, largest first; small
    # parts are drawn more often, so that long partitions come up too.
    sizes = st.one_of(st.integers(1, 9), st.integers(1, 200))
    parts, total = [], 0
    for part in sorted(draw(st.lists(sizes, min_size=1, max_size=60))):
        if total + part > 200:
            break
        parts.append(part)
        total += part
    return tuple(reversed(parts))


@settings(max_examples=200)
@given(partitions_up_to_200())
def test_encode_decode_round_trip_up_to_200(lam):
    n = sum(lam)
    sym = to_dyson_symbol(lam)
    assert validate_dyson(sym) and sym.weight() == n
    assert from_dyson_symbol(sym) == lam
    assert DysonSymbol.from_json(sym.to_json()) == sym
    # The symbol's crank is -crank(lam), a crank that M(m, n) counts.
    assert dyson_crank(sym) == -crank(lam)
    assert crank_counts(n)[dyson_crank(sym)] > 0
