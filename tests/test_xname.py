"""Tests for Shasta xname parsing and hierarchy."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ValidationError
from repro.common.xname import XName


class TestParse:
    def test_paper_chassis_controller(self):
        x = XName.parse("x1203c1b0")
        assert (x.cabinet, x.chassis, x.bmc) == (1203, 1, 0)
        assert x.slot is None and x.switch is None and x.node is None

    def test_paper_node_controller(self):
        x = XName.parse("x1102c4s0b0")
        assert (x.cabinet, x.chassis, x.slot, x.bmc) == (1102, 4, 0, 0)

    def test_paper_switch(self):
        x = XName.parse("x1002c1r7b0")
        assert (x.cabinet, x.chassis, x.switch, x.bmc) == (1002, 1, 7, 0)
        assert x.is_switch

    def test_full_node(self):
        x = XName.parse("x1000c0s5b0n1")
        assert (x.cabinet, x.chassis, x.slot, x.bmc, x.node) == (1000, 0, 5, 0, 1)

    def test_cabinet_only(self):
        x = XName.parse("x3000")
        assert x.cabinet == 3000 and x.chassis is None and x.parent() is None

    @pytest.mark.parametrize(
        "bad", ["", "x", "y1000", "x1000c", "x1000s0", "x1000c0n1", "x1c0s0r0"]
    )
    def test_invalid(self, bad):
        with pytest.raises(ValidationError):
            XName.parse(bad)

    def test_slot_and_switch_exclusive(self):
        with pytest.raises(ValidationError):
            XName(1, 0, slot=1, switch=1)

    def test_node_requires_bmc(self):
        with pytest.raises(ValidationError):
            XName(1, 0, slot=1, node=0)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        ["x1203c1b0", "x1102c4s0b0", "x1002c1r7b0", "x1000", "x1c2", "x9c0s3b1n3"],
    )
    def test_str_roundtrip(self, text):
        assert str(XName.parse(text)) == text

    @given(
        st.integers(0, 9999),
        st.none() | st.integers(0, 7),
        st.none() | st.integers(0, 63),
        st.none() | st.integers(0, 7),
    )
    def test_generated_roundtrip(self, cab, chassis, slot, bmc):
        if chassis is None:
            slot = bmc = None
        x = XName(cab, chassis, slot=slot, bmc=bmc)
        assert XName.parse(str(x)) == x


class TestHierarchy:
    def test_parent_chain(self):
        x = XName.parse("x1c2s3b0n1")
        chain = []
        cur = x
        while cur is not None:
            chain.append(str(cur))
            cur = cur.parent()
        assert chain == ["x1c2s3b0n1", "x1c2s3b0", "x1c2s3", "x1c2", "x1"]

    def test_contains(self):
        cab = XName.parse("x1")
        node = XName.parse("x1c2s3b0n1")
        assert cab.contains(node)
        assert XName.parse("x1c2").contains(node)
        assert not XName.parse("x2").contains(node)
        assert not XName.parse("x1c3").contains(node)

    def test_contains_self(self):
        x = XName.parse("x1c2")
        assert x.contains(x)

    def test_cabinet_and_chassis_accessors(self):
        x = XName.parse("x5c3s1b0")
        assert str(x.cabinet_xname()) == "x5"
        assert str(x.chassis_xname()) == "x5c3"

    def test_chassis_xname_requires_chassis(self):
        with pytest.raises(ValidationError):
            XName.parse("x5").chassis_xname()

    def test_is_controller(self):
        assert XName.parse("x1c0b0").is_controller
        assert XName.parse("x1c0s0b0").is_controller
        assert not XName.parse("x1c0s0b0n0").is_controller

    def test_ordering_is_total(self):
        xs = [XName.parse(t) for t in ["x2", "x1c1", "x1", "x1c0s0b0"]]
        assert [str(x) for x in sorted(xs)] == ["x1", "x1c0s0b0", "x1c1", "x2"]
