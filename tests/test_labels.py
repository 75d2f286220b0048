"""Tests for label sets and matchers, including property-based invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ValidationError
from repro.common.labels import (
    LabelSet,
    Matcher,
    MatchOp,
    label_matcher,
    matches_all,
    validate_label_name,
)

label_names = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,8}", fullmatch=True)
label_values = st.text(min_size=0, max_size=12)
label_dicts = st.dictionaries(label_names, label_values, max_size=5)


class TestLabelSet:
    def test_empty(self):
        assert len(LabelSet()) == 0

    def test_basic_mapping(self):
        ls = LabelSet({"a": "1", "b": "2"})
        assert ls["a"] == "1"
        assert sorted(ls) == ["a", "b"]
        assert len(ls) == 2

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            LabelSet({"a": "1"})["b"]

    def test_invalid_name_rejected(self):
        with pytest.raises(ValidationError):
            LabelSet({"9bad": "x"})
        with pytest.raises(ValidationError):
            LabelSet({"has space": "x"})

    def test_non_string_value_rejected(self):
        with pytest.raises(ValidationError):
            LabelSet({"a": 1})  # type: ignore[dict-item]

    def test_equality_independent_of_order(self):
        assert LabelSet([("a", "1"), ("b", "2")]) == LabelSet([("b", "2"), ("a", "1")])

    def test_equality_with_plain_dict(self):
        assert LabelSet({"a": "1"}) == {"a": "1"}

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            LabelSet([("a", "1"), ("a", "2")])

    def test_with_labels_overrides(self):
        ls = LabelSet({"a": "1"}).with_labels(a="9", b="2")
        assert ls == {"a": "9", "b": "2"}

    def test_without(self):
        assert LabelSet({"a": "1", "b": "2"}).without("a") == {"b": "2"}

    def test_project(self):
        assert LabelSet({"a": "1", "b": "2", "c": "3"}).project(["a", "c"]) == {
            "a": "1",
            "c": "3",
        }

    def test_project_ignores_absent(self):
        assert LabelSet({"a": "1"}).project(["zz"]) == {}

    def test_repr_promql_style(self):
        assert repr(LabelSet({"b": "2", "a": "1"})) == '{a="1", b="2"}'

    @given(label_dicts)
    def test_hash_equals_for_equal_sets(self, d):
        assert hash(LabelSet(d)) == hash(LabelSet(list(d.items())[::-1]))

    @given(label_dicts)
    def test_roundtrip_to_dict(self, d):
        assert LabelSet(d).to_dict() == d

    @given(label_dicts, label_names)
    def test_without_removes(self, d, name):
        assert name not in LabelSet(d).without(name)


def assert_same_set(derived: LabelSet, built: LabelSet):
    """``derived`` skipped validation; it must be what the validating
    constructor builds, as a mapping, a dict key and a sort key."""
    assert derived == built and built == derived
    assert hash(derived) == hash(built)
    assert derived.items_tuple() == built.items_tuple()
    assert {built: 1}[derived] == 1
    assert derived.fingerprint() == built.fingerprint()
    assert repr(derived) == repr(built)


class TestDerivedSetsSkipValidationNotCorrectness:
    """``without``/``project``/``with_labels`` derive from a canonical
    tuple and do not validate it again."""

    @given(label_dicts, st.lists(label_names, max_size=4))
    def test_without_equals_the_public_constructor(self, d, names):
        assert_same_set(
            LabelSet(d).without(*names),
            LabelSet({k: v for k, v in d.items() if k not in names}),
        )

    @given(label_dicts, st.lists(label_names, max_size=4))
    def test_project_equals_the_public_constructor(self, d, names):
        assert_same_set(
            LabelSet(d).project(names),
            LabelSet({k: v for k, v in d.items() if k in names}),
        )
        assert_same_set(
            LabelSet(d).project(iter(names)),
            LabelSet({k: v for k, v in d.items() if k in names}),
        )

    @given(label_dicts, st.booleans())
    def test_nameless_is_without_the_name_and_is_kept(self, d, named):
        labels = LabelSet({**d, "__name__": "m"} if named else d)
        dropped = labels.nameless()
        assert_same_set(dropped, labels.without("__name__"))
        # Asked again, of either: the same object, and no set holds itself.
        assert labels.nameless() is dropped and dropped.nameless() is dropped
        assert (dropped is labels) == ("__name__" not in labels)
        assert labels._nameless is not labels and dropped._nameless is None

    @given(label_dicts, label_dicts)
    def test_with_labels_equals_the_public_constructor(self, d, extra):
        assert_same_set(LabelSet(d).with_labels(**extra), LabelSet({**d, **extra}))

    @given(label_dicts)
    def test_dropping_or_keeping_everything(self, d):
        labels = LabelSet(d)
        assert_same_set(labels.without(), labels)
        assert_same_set(labels.project(d), labels)
        assert_same_set(labels.without(*d), LabelSet())
        assert_same_set(labels.project([]), LabelSet())

    @given(label_dicts, st.sampled_from(["9bad", "has space", "", "a-b", "é"]))
    def test_with_labels_still_rejects_an_invalid_new_name(self, d, bad):
        with pytest.raises(ValidationError):
            LabelSet(d).with_labels(**{bad: "x"})

    @given(label_dicts, label_names)
    def test_with_labels_still_rejects_a_non_string_value(self, d, name):
        with pytest.raises(ValidationError):
            LabelSet(d).with_labels(**{name: 1})
        if d:  # overriding an existing name is checked too
            with pytest.raises(ValidationError):
                LabelSet(d).with_labels(**{next(iter(d)): None})


class TestMatchers:
    def test_eq(self):
        assert label_matcher("a", "=", "x").matches({"a": "x"})
        assert not label_matcher("a", "=", "x").matches({"a": "y"})

    def test_neq(self):
        assert label_matcher("a", "!=", "x").matches({"a": "y"})
        assert not label_matcher("a", "!=", "x").matches({"a": "x"})

    def test_missing_label_is_empty_string(self):
        assert label_matcher("a", "=", "").matches({})
        assert label_matcher("a", "!=", "x").matches({})

    def test_regex_anchored(self):
        m = label_matcher("a", "=~", "perl.*")
        assert m.matches({"a": "perlmutter"})
        assert not m.matches({"a": "xperlmutter"})
        # Full anchoring: prefix match alone is not enough.
        assert not label_matcher("a", "=~", "perl").matches({"a": "perlmutter"})

    def test_negative_regex(self):
        m = label_matcher("a", "!~", "x+")
        assert m.matches({"a": "y"})
        assert not m.matches({"a": "xx"})

    def test_bad_regex_rejected(self):
        with pytest.raises(ValidationError):
            label_matcher("a", "=~", "(unclosed")

    def test_matches_all(self):
        ms = [label_matcher("a", "=", "1"), label_matcher("b", "!=", "9")]
        assert matches_all({"a": "1", "b": "2"}, ms)
        assert not matches_all({"a": "1", "b": "9"}, ms)

    def test_matcher_equality_and_hash(self):
        a = Matcher("x", MatchOp.EQ, "1")
        b = Matcher("x", MatchOp.EQ, "1")
        assert a == b and hash(a) == hash(b)
        assert a != Matcher("x", MatchOp.NEQ, "1")

    @given(label_dicts)
    def test_eq_matcher_agrees_with_dict(self, d):
        for name, value in d.items():
            assert Matcher(name, MatchOp.EQ, value).matches(d)


class TestValidateLabelName:
    @pytest.mark.parametrize("name", ["a", "_x", "Context", "data_type", "A9_b"])
    def test_valid(self, name):
        assert validate_label_name(name) == name

    @pytest.mark.parametrize("name", ["", "9a", "a-b", "a.b", "a b"])
    def test_invalid(self, name):
        with pytest.raises(ValidationError):
            validate_label_name(name)
