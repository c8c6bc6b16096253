"""Degree sequence parsing and the closed-formula bounds."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import degree_sequences
from treenullity import (
    DegreeSequence,
    InvalidDegree,
    NotTreeSum,
    ParseError,
    TooSmall,
    bounds,
    literal_characterization,
    parse_sequence,
)


class TestParse:
    def test_canonicalizes_figure_sequence(self):
        s = parse_sequence("4,3,3,2,2,1,1,1,1,1,1")
        assert s.degrees == (1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 4)

    def test_single_edge(self):
        assert parse_sequence("1 1").degrees == (1, 1)

    def test_mixed_separators(self):
        assert parse_sequence(" 2, 1\t1,,2  ").degrees == (1, 1, 2, 2)

    def test_not_tree_sum(self):
        with pytest.raises(NotTreeSum):
            parse_sequence("1,1,1")

    def test_too_small(self):
        with pytest.raises(TooSmall):
            parse_sequence("5")

    def test_invalid_degree(self):
        with pytest.raises(InvalidDegree):
            parse_sequence("0,2,1,1")

    @pytest.mark.parametrize(
        "degrees",
        [(1.5, 1.5, 1), (1, 1, 2.0), (1, 1, Fraction(2)), (1, 1, Decimal(2)),
         (1, 1, "2"), ("1", "1"), (None, None),
         (True, True), (1, 1, True, 3)],  # a bool is no label, so no degree
    )
    def test_non_int_degree(self, degrees):
        with pytest.raises(InvalidDegree):
            DegreeSequence(degrees)

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_sequence("1,two,3")

    @pytest.mark.parametrize(
        "text, bad",
        [
            ("1_1,1", "1_1"),  # int() reads 11
            ("\u0661,\u0661", "\u0661"),  # ARABIC-INDIC DIGIT ONE, read as 1
            ("\uff11,1", "\uff11"),  # FULLWIDTH DIGIT ONE
            ("1,1\u0661", "1\u0661"),
            ("2,1,1_", "1_"),
            ("abc,1_1", "abc"),  # the first bad token is named
            ("1_1,abc", "1_1"),
            ("1,+-1", "+-1"),
        ],
    )
    def test_tokens_are_ascii_integers(self, text, bad):
        with pytest.raises(ParseError) as info:
            parse_sequence(text)
        assert str(info.value) == f"not an integer: {bad!r}"

    @pytest.mark.parametrize(
        "text, degrees",
        [("+1,+1", (1, 1)), ("01, 1", (1, 1)), ("1\u00a01", (1, 1)), ("1\u20031,\n", (1, 1))],
    )
    def test_signs_zeros_and_unicode_separators(self, text, degrees):
        # Unicode whitespace still separates; only the tokens must be ASCII.
        assert parse_sequence(text).degrees == degrees

    def test_too_many_digits_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_sequence("1," + "1" * 5000)

    def test_rejects_sum_short_by_two(self):
        # Six entries summing to 8; a tree on 6 vertices needs degree sum 10.
        with pytest.raises(NotTreeSum):
            parse_sequence("1,1,1,1,2,2")

    @given(degree_sequences())
    @settings(max_examples=100, deadline=None)
    def test_order_insensitive(self, s):
        shuffled = ",".join(str(d) for d in reversed(s.degrees))
        assert parse_sequence(shuffled) == s


class TestStats:
    @pytest.mark.parametrize(
        "text,l,m,a",
        [
            ("1,1,1,1,1,1,1,1,8", 8, 8, 8),
            ("1,1,1,1,1,1,1,1,1,1,2,4,4,4,4", 10, 14, 11),
            ("1,1,2,2,2", 2, 4, 3),
            ("1,1,1,1,1,1,2,2,3,3,4", 6, 10, 8),
            ("1,1", 2, 1, 1),
        ],
    )
    def test_examples(self, text, l, m, a):
        st = bounds(parse_sequence(text))
        assert (st.l, st.m, st.a) == (l, m, a)

    @given(degree_sequences(min_n=3))
    @settings(max_examples=200, deadline=None)
    def test_annihilation_window(self, s):
        st = bounds(s)
        assert max(st.l, (s.n + 1) // 2) <= st.a <= s.n - 1
        assert 2 <= st.l <= s.n - 1

    @given(degree_sequences(min_n=2))
    @settings(max_examples=100, deadline=None)
    def test_a_is_maximal(self, s):
        st = bounds(s)
        assert sum(s.degrees[: st.a]) <= st.m
        if st.a < s.n:
            assert sum(s.degrees[: st.a + 1]) > st.m


class TestBounds:
    def test_figure_1a_sequence(self):
        b = bounds(parse_sequence("1,1,1,1,1,1,2,2,3,3,4"))
        assert (b.nu_max, b.nullity_min, b.alpha_min) == (5, 1, 6)
        assert (b.nu_min, b.nullity_max, b.alpha_max) == (3, 5, 8)
        assert not b.extremal_equal

    def test_figure_1b_sequence(self):
        b = bounds(parse_sequence("1,1,1,1,2,2,2,2,2,3,3"))
        assert (b.nu_max, b.nullity_min) == (5, 1)
        assert (b.nu_min, b.nullity_max) == (4, 3)

    def test_star(self):
        b = bounds(parse_sequence("1,1,1,1,1,1,1,1,8"))
        assert (b.nu_min, b.nu_max) == (1, 1)
        assert (b.nullity_min, b.nullity_max) == (7, 7)
        assert b.extremal_equal

    def test_single_edge_special_case(self):
        b = bounds(parse_sequence("1,1"))
        assert (b.nu_min, b.nu_max, b.nullity_min, b.nullity_max) == (1, 1, 0, 0)
        assert (b.alpha_min, b.alpha_max) == (1, 1)
        assert b.extremal_equal

    def test_json_keys(self):
        d = bounds(parse_sequence("1,1,2,2,2")).to_json_dict()
        assert list(d) == [
            "n", "l", "m", "a",
            "nu_min", "nu_max", "nullity_min", "nullity_max",
            "alpha_min", "alpha_max", "extremal_equal",
        ]

    @given(degree_sequences())
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, s):
        b = bounds(s)
        assert b.nu_min <= b.nu_max
        assert b.nullity_min <= b.nullity_max
        assert b.alpha_min <= b.alpha_max
        assert b.nullity_min == s.n - 2 * b.nu_max
        assert b.nullity_max == s.n - 2 * b.nu_min
        assert b.alpha_min == s.n - b.nu_max
        assert b.alpha_max == s.n - b.nu_min
        assert b.nullity_min % 2 == b.nullity_max % 2 == s.n % 2


class TestMinMaxEqual:
    def test_equal_when_a_hits_leaf_count(self):
        # n = 6, a = l = 4: both extremal formulas give nullity 2.
        assert bounds(DegreeSequence((1, 1, 1, 1, 2, 4))).extremal_equal

    def test_odd_path_is_the_amended_case(self):
        s = parse_sequence("1,1,2,2,2")
        assert bounds(s).extremal_equal
        # The unamended floor(n/2) reading disagrees on odd paths.
        assert not literal_characterization(s)

    def test_unequal(self):
        assert not bounds(parse_sequence("1,1,1,1,2,2,2,2,2,3,3")).extremal_equal

    @given(degree_sequences())
    @settings(max_examples=200, deadline=None)
    def test_consistent_with_bounds(self, s):
        b = bounds(s)
        assert b.extremal_equal == (b.nu_min == b.nu_max)
        if s.n > 2:
            st = bounds(s)
            assert b.extremal_equal == (st.a == max(st.l, (s.n + 1) // 2))
