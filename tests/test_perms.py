import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsgraph import InvalidArgumentError, Permutation, orientations, perms
from fsgraph.perms import lex_words


def perm_strategy(max_n=10):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(Permutation)


def test_parse_word_and_comma_forms():
    assert Permutation.parse("53142") == Permutation([5, 3, 1, 4, 2])
    assert Permutation.parse("5,3,1,4,2") == Permutation([5, 3, 1, 4, 2])
    assert str(Permutation.parse("53142")) == "53142"


def test_parse_rejects_garbage():
    for bad in ("", "50", "1123", "abc", "1,2,2", "1,300", "1,-2", "300", "-1"):
        with pytest.raises(InvalidArgumentError):
            Permutation.parse(bad)


def test_constructor_refuses_items_that_are_no_images():
    for bad in ([1, 300], [1, -2], [1.0, 2.0], ["1", "2"], [None], 5, None):
        with pytest.raises(InvalidArgumentError):
            Permutation(bad)


def test_long_permutations_use_comma_form():
    p = Permutation(list(range(1, 12)))
    assert str(p) == "1,2,3,4,5,6,7,8,9,10,11"
    assert Permutation.parse(str(p)) == p


def test_compose_with_identity():
    p = Permutation.parse("53142")
    assert p.compose(Permutation.identity(5)) == p
    assert Permutation.identity(5).compose(p) == p


def test_compose_transposition_involution():
    p = Permutation.parse("213")
    assert p.compose(p) == Permutation.identity(3)


def test_compose_positional():
    # result(i) = sigma(pi(i)) with pi swapping positions 2 and 3
    assert Permutation.parse("53142").compose(Permutation.parse("13245")) == Permutation.parse(
        "51342"
    )


def test_apply_transposition():
    p = Permutation.parse("12345")
    assert p.apply_transposition(1, 5) == Permutation.parse("52341")
    assert p.apply_transposition(1, 5).apply_transposition(1, 5) == p
    with pytest.raises(InvalidArgumentError):
        p.apply_transposition(3, 3)
    with pytest.raises(InvalidArgumentError):
        p.apply_transposition(0, 2)


def test_sign_basics():
    assert Permutation.identity(6).sign() == 1
    assert Permutation.parse("213").sign() == -1
    # 53142 has cycle structure (1 5 2 3)(4): one 4-cycle, one fixed point
    assert Permutation.parse("53142").sign() == -1


def test_sign_flips_under_transposition():
    p = Permutation.parse("4231")
    assert p.apply_transposition(2, 4).sign() == -p.sign()


def test_cyclic_shift():
    assert Permutation.parse("12345").cyclic_shift() == Permutation.parse("23451")
    p = Permutation.parse("53142")
    q = p
    for _ in range(5):
        q = q.cyclic_shift()
    assert q == p


def test_cyclic_shift_order_exactly_n():
    for n in range(1, 8):
        p = Permutation.identity(n)
        q = p.cyclic_shift()
        order = 1
        while q != p:
            q = q.cyclic_shift()
            order += 1
        assert order == n


def test_a_permutation_is_its_word_but_never_equals_it():
    p = Permutation.parse("53142")
    assert type(p.word) is bytes and p.word == bytes([5, 3, 1, 4, 2])
    assert p != p.word and p.word != p
    assert not p == p.word and not p.word == p
    assert hash(p) == hash(p.word)
    assert p == Permutation.parse("5,3,1,4,2") and not p != Permutation.parse("53142")
    assert {p.word: 1}.get(p) is None and {p: 1}.get(Permutation(p.word)) == 1


def test_length_iteration_and_images_follow_the_word():
    p = Permutation.parse("53142")
    assert len(p) == p.n == 5
    assert list(p) == [5, 3, 1, 4, 2]
    assert p.images == (5, 3, 1, 4, 2)
    assert p(1) == 5 and p(5) == 2


def test_pickle_and_copy_keep_the_type():
    p = Permutation(list(range(11, 0, -1)))
    copies = [pickle.loads(pickle.dumps(p, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(p), copy.deepcopy(p)]
    for q in copies:
        assert type(q) is Permutation and q == p and str(q) == str(p)


def test_permutations_are_immutable():
    p = Permutation.parse("213")
    with pytest.raises(AttributeError):
        p.word = b"\x01\x02\x03"
    with pytest.raises(AttributeError):
        p.extra = 1


def test_lexicographic_ordering_matches_words():
    ps = [Permutation.parse(w) for w in ("213", "132", "123", "321")]
    assert [str(p) for p in sorted(ps)] == ["123", "132", "213", "321"]


@given(st.lists(perm_strategy(max_n=5), max_size=12))
@settings(max_examples=60)
def test_sorting_matches_word_order_across_lengths(ps):
    assert [p.word for p in sorted(ps)] == sorted(p.word for p in ps)
    for p in ps:
        for q in ps:
            assert (p < q, p <= q, p > q, p >= q) == (
                p.word < q.word, p.word <= q.word, p.word > q.word, p.word >= q.word
            )


@given(perm_strategy())
@settings(max_examples=60)
def test_inverse_is_involution(p):
    assert p.inverse().inverse() == p
    assert p.compose(p.inverse()) == Permutation.identity(p.n)
    assert p.inverse().compose(p) == Permutation.identity(p.n)


@given(perm_strategy(max_n=8), st.data())
@settings(max_examples=60)
def test_sign_is_multiplicative(p, data):
    q = data.draw(st.permutations(list(range(1, p.n + 1))).map(Permutation))
    assert p.compose(q).sign() == p.sign() * q.sign()


@given(perm_strategy(max_n=8))
@settings(max_examples=40)
def test_shift_composes_with_rotation(p):
    # Shifting is precomposition with the rotation i -> i + 1 (mod n).
    n = p.n
    rotation = Permutation([i % n + 1 for i in range(1, n + 1)])
    assert p.cyclic_shift() == p.compose(rotation)


def test_word_table_lists_the_lexicographic_words():
    for n in range(1, 10):
        words = list(lex_words(n))
        assert words == list(map(bytes, itertools.permutations(range(1, n + 1)))), n
        assert all(type(w) is bytes for w in words), n


def test_word_table_is_kept_up_to_eight_letters_only():
    for n in range(1, 9):
        first = lex_words(n)
        assert lex_words(n) is first and perms._WORD_TABLES[n] is first
    nine = lex_words(9)
    assert not isinstance(nine, tuple)
    assert next(nine) == bytes(range(1, 10))
    assert max(perms._WORD_TABLES) == perms._ORDER_TABLE_MAX_N == 8


def test_order_listings_keep_no_word_table(monkeypatch):
    monkeypatch.setattr(perms, "_WORD_TABLES", {})
    monkeypatch.setattr(orientations, "_ORDER_TABLES", {})
    words = lex_words(6, keep=False)
    assert not isinstance(words, tuple) and perms._WORD_TABLES == {}
    assert list(orientations._vertex_orders(6)) == list(map(Permutation._from_word, lex_words(6)))
    assert list(perms._WORD_TABLES) == [6]
    # Once the table exists, keep=False returns it too.
    assert lex_words(6, keep=False) is perms._WORD_TABLES[6]
    orientations._vertex_orders(7)
    assert list(perms._WORD_TABLES) == [6]


def test_trusted_constructor_builds_a_permutation():
    p = Permutation._from_word(b"\x02\x01\x03")
    assert type(p) is Permutation and p == Permutation([2, 1, 3])
    assert Permutation.identity(4) == Permutation([1, 2, 3, 4])
