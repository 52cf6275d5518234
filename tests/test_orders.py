import itertools

import pytest

from cmreg.errors import UsageError
from cmreg.orders import (
    GREVLEX,
    GRLEX,
    LEX,
    EliminationOrder,
    MonomialOrder,
)


def test_classic_grevlex_vs_grlex_separation():
    # x*z^2 vs y^3 (same degree): grlex ranks by leftmost exponent,
    # grevlex by smallest trailing exponent, and they disagree here.
    xz2 = (1, 0, 2)
    y3 = (0, 3, 0)
    assert MonomialOrder(GRLEX, 3).compare(xz2, y3) > 0
    assert MonomialOrder(GREVLEX, 3).compare(xz2, y3) < 0


def test_lex_ignores_total_degree():
    lex = MonomialOrder(LEX, 2)
    assert lex.compare((1, 0), (0, 5)) > 0
    assert lex.compare((2, 0), (1, 9)) > 0


def test_graded_orders_refine_degree():
    for kind in (GREVLEX, GRLEX):
        order = MonomialOrder(kind, 3)
        for a in itertools.product(range(3), repeat=3):
            for b in itertools.product(range(3), repeat=3):
                if sum(a) < sum(b):
                    assert order.compare(a, b) < 0


def test_all_orders_are_multiplicative_total_orders():
    mons = list(itertools.product(range(3), repeat=3))
    for kind in (GREVLEX, LEX, GRLEX):
        order = MonomialOrder(kind, 3)
        for a in mons:
            for b in mons:
                c = order.compare(a, b)
                assert c == -order.compare(b, a)
                if a != b:
                    assert c != 0
                # compatibility with multiplication
                shifted = tuple(x + 1 for x in a), tuple(x + 1 for x in b)
                assert order.compare(*shifted) == c
        one = (0, 0, 0)
        for a in mons:
            if a != one:
                assert order.compare(a, one) > 0  # global order: 1 is least


def test_precedence_permutation():
    # make the last variable the biggest
    order = MonomialOrder(LEX, 3, precedence=(2, 1, 0))
    assert order.compare((1, 0, 0), (0, 0, 1)) < 0
    with pytest.raises(UsageError):
        MonomialOrder(LEX, 3, precedence=(0, 0, 1))
    with pytest.raises(UsageError):
        MonomialOrder("weird", 2)


def test_elimination_order_blocks():
    order = EliminationOrder(4, nelim=2)
    # anything touching the first block beats anything outside it
    assert order.compare((0, 1, 0, 0), (0, 0, 9, 9)) > 0
    # inside the second block, grevlex on the full vector
    grevlex = MonomialOrder(GREVLEX, 4)
    for a in itertools.product(range(3), repeat=2):
        for b in itertools.product(range(3), repeat=2):
            pa, pb = (0, 0) + a, (0, 0) + b
            assert order.compare(pa, pb) == grevlex.compare(pa, pb)


def test_degree_gives_eliminated_variables_weight_zero():
    permuted = MonomialOrder(LEX, 4, precedence=(3, 1, 2, 0))
    for a in itertools.product(range(3), repeat=4):
        assert MonomialOrder(GREVLEX, 4).degree(a) == sum(a)
        assert permuted.degree(a) == sum(a)
        assert EliminationOrder(4, 1).degree(a) == sum(a[1:])
    assert EliminationOrder(4, 1).degree((7, 1, 0, 2)) == 3


def test_compare_validates_arity_and_spells_out():
    order = MonomialOrder(GREVLEX, 2)
    with pytest.raises(UsageError):
        order.compare((1, 0, 0), (0, 1))


def test_order_equality_and_hash():
    assert MonomialOrder(GREVLEX, 3) == MonomialOrder(GREVLEX, 3)
    assert MonomialOrder(GREVLEX, 3) != MonomialOrder(GRLEX, 3)
    assert EliminationOrder(3, 1) != MonomialOrder(GREVLEX, 3)
    assert hash(EliminationOrder(3, 2)) == hash(EliminationOrder(3, 2))
