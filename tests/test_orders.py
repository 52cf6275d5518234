import itertools
import random

import pytest

from cmreg.errors import ExponentOverflowError, UsageError
from cmreg.orders import (
    EXPONENT_LIMIT,
    GREVLEX,
    GRLEX,
    LEX,
    EliminationOrder,
    MonomialOrder,
    word_lcm,
)
from oracle import divides, order_key


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


@pytest.mark.parametrize("order", [MonomialOrder(GREVLEX, 2),
                                   MonomialOrder(LEX, 2, precedence=(1, 0)),
                                   MonomialOrder(GRLEX, 2),
                                   EliminationOrder(2, 1)])
def test_compare_rejects_exponents_pack_cannot_order(order):
    # pack orders exponents in [0, EXPONENT_LIMIT) only: one past either
    # end raises instead of comparing wrongly, on either side
    assert order.compare((EXPONENT_LIMIT - 1, 0), (0, 0)) > 0
    for bad in ((-1, 0), (0, EXPONENT_LIMIT), (EXPONENT_LIMIT + 5, 1)):
        with pytest.raises(UsageError, match="16-bit"):
            order.compare(bad, (0, 1))
        with pytest.raises(UsageError, match="16-bit"):
            order.compare((1, 0), bad)


def test_order_equality_and_hash():
    assert MonomialOrder(GREVLEX, 3) == MonomialOrder(GREVLEX, 3)
    assert MonomialOrder(GREVLEX, 3) != MonomialOrder(GRLEX, 3)
    assert EliminationOrder(3, 1) != MonomialOrder(GREVLEX, 3)
    assert hash(EliminationOrder(3, 2)) == hash(EliminationOrder(3, 2))


# --- packed keys ---

def _packed_orders(n, rng):
    """Grevlex, lex, grlex, each under a random precedence too, and the
    elimination order of the first variable, in n variables."""
    perm = list(range(n))
    rng.shuffle(perm)
    orders = [MonomialOrder(kind, n) for kind in (GREVLEX, LEX, GRLEX)]
    orders += [MonomialOrder(kind, n, precedence=perm)
               for kind in (GREVLEX, LEX, GRLEX)]
    return orders + [EliminationOrder(n, 1)]


def _exponent_vectors(n, rng, count=24):
    """Frozen-seed exponent vectors with 0, 65535 and small exponents."""
    choices = (0, 0, 1, 2, 3, EXPONENT_LIMIT - 1)
    vecs = [(0,) * n, (EXPONENT_LIMIT - 1,) * n]
    while len(vecs) < count:
        vecs.append(tuple(rng.choice(choices) if rng.random() < 0.8
                          else rng.randrange(EXPONENT_LIMIT)
                          for _ in range(n)))
    return vecs


@pytest.mark.parametrize("n,seed", [(2, 141), (3, 142), (4, 143), (5, 144)])
def test_packed_keys_follow_the_order_and_multiply_by_adding(n, seed):
    rng = random.Random(seed)
    vecs = _exponent_vectors(n, rng)
    for order in _packed_orders(n, rng):
        packed = [order.pack(a) for a in vecs]
        nelim = getattr(order, "nelim", 0)

        def ref(a):
            return order_key(order.kind, a, order.precedence, nelim)
        for a, ka in zip(vecs, packed):
            assert order.unpack(ka) == a
            assert order.exponents(order.word(ka)) == a
            assert order.total_degree(ka) == sum(a)
            for b, kb in zip(vecs, packed):
                assert (ka > kb) == (ref(a) > ref(b))
                assert (ka == kb) == (a == b)
                ab = tuple(x + y for x, y in zip(a, b))
                assert order.pack(ab) == ka + kb
                assert order.total_degree(ka + kb) == sum(ab)
                assert order.word(ka + kb) == order.word(ka) + order.word(kb)


@pytest.mark.parametrize("n,seed", [(2, 151), (3, 152), (4, 153), (5, 154)])
def test_words_divide_and_overflow_by_their_guard_bits(n, seed):
    rng = random.Random(seed)
    vecs = _exponent_vectors(n, rng)
    for order in _packed_orders(n, rng):
        guards = order.guards
        words = [order.word(order.pack(a)) for a in vecs]
        for a, wa in zip(vecs, words):
            assert wa & guards == 0
            for b, wb in zip(vecs, words):
                assert (((wb | guards) - wa) & guards == guards) == divides(a, b)
                assert order.exponents(word_lcm(wa, wb, guards)) == tuple(
                    max(x, y) for x, y in zip(a, b))
                # a product reaching the limit sets a guard bit and raises
                ab = [x + y for x, y in zip(a, b)]
                over = [e for e in ab if e >= EXPONENT_LIMIT]
                assert bool((wa + wb) & guards) == bool(over)
                if over:
                    with pytest.raises(ExponentOverflowError,
                                       match=f"exponent {over[0]} exceeds"):
                        order.check(wa + wb)
                else:
                    order.check(wa + wb)
