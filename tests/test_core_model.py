"""Unit tests for fixed-width values, layouts and the internet checksum."""

import pytest
from hypothesis import given, strategies as st

from oracles import rfc1071_naive
from p4flowgen.core_model import (
    RING_CAPACITY_MAX,
    U8,
    U16,
    U32,
    U64,
    FieldDecl,
    HeaderLayout,
    RingBufferDecl,
    SharedVariableDecl,
    UValue,
    UWidth,
    cast_value,
    check_identifier,
    internet_checksum,
    u8,
    u16,
    u32,
    u64,
    wrap_add,
    wrap_sub,
)
from p4flowgen.errors import (
    MissingField,
    ReservedName,
    WidthMismatch,
)


WIDTHS = [U8, U16, U32, U64]


def uvalues(width):
    return st.integers(min_value=0, max_value=width.mask).map(
        lambda m: UValue(width, m)
    )


any_width = st.sampled_from(WIDTHS)


class TestUWidth:
    def test_members(self):
        assert [w.bits for w in UWidth] == [8, 16, 32, 64]

    def test_derived_properties(self):
        assert U16.nbytes == 2
        assert U32.mask == 0xFFFFFFFF
        assert U64.mask == 2**64 - 1

    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError):
            UWidth(12)


class TestUValue:
    def test_range_is_enforced(self):
        UValue(U8, 255)
        with pytest.raises(ValueError):
            UValue(U8, 256)
        with pytest.raises(ValueError):
            UValue(U8, -1)

    @pytest.mark.parametrize("magnitude, words", [
        (256, "a 9-bit magnitude does not fit in u8"),
        (-1, "a negative magnitude does not fit in u8"),
        (10**5000, "a 16610-bit magnitude does not fit in u8"),  # past str()'s digit limit
    ], ids=["wide", "negative", "thousands_of_digits"])
    def test_out_of_range_names_the_width(self, magnitude, words):
        with pytest.raises(ValueError) as err:
            u8(magnitude)
        assert str(err.value) == words

    def test_plain_int_width_is_coerced(self):
        v = UValue(16, 7)
        assert v.width is U16

    def test_helpers(self):
        assert u8(1).width is U8
        assert u16(1).width is U16
        assert u32(1).width is U32
        assert u64(1).width is U64

    def test_bool_magnitude_rejected(self):
        # A bool is an int to Python, but generate would emit 8wTrue.
        with pytest.raises(TypeError, match="magnitude must be an int"):
            u8(True)


class TestWrapArithmetic:
    def test_add_wraps_at_width(self):
        assert wrap_add(u8(255), u8(1)) == u8(0)

    def test_sub_wraps_below_zero(self):
        assert wrap_sub(u8(0), u8(1)) == u8(255)

    def test_mixed_widths_rejected(self):
        with pytest.raises(WidthMismatch):
            wrap_add(u8(1), u16(1))
        with pytest.raises(WidthMismatch):
            wrap_sub(u16(1), u32(1))

    @given(any_width.flatmap(lambda w: st.tuples(uvalues(w), uvalues(w))))
    def test_add_matches_modular_model(self, pair):
        a, b = pair
        assert wrap_add(a, b).magnitude == (a.magnitude + b.magnitude) % (
            1 << a.width.bits
        )

    @given(any_width.flatmap(lambda w: st.tuples(uvalues(w), uvalues(w))))
    def test_sub_matches_modular_model(self, pair):
        a, b = pair
        assert wrap_sub(a, b).magnitude == (a.magnitude - b.magnitude) % (
            1 << a.width.bits
        )

    @given(any_width.flatmap(lambda w: st.tuples(uvalues(w), uvalues(w))))
    def test_sub_inverts_add(self, pair):
        a, b = pair
        assert wrap_sub(wrap_add(a, b), b) == a


class TestCast:
    def test_narrowing_keeps_low_bits(self):
        assert cast_value(u16(0x1234), U8) == u8(0x34)

    def test_widening_preserves_value(self):
        assert cast_value(u8(0xAB), U32) == u32(0xAB)

    @given(uvalues(U8), any_width)
    def test_widen_then_narrow_round_trips(self, v, wide):
        assert cast_value(cast_value(v, wide), U8) == v

    @given(any_width.flatmap(uvalues), any_width)
    def test_result_fits_target(self, v, target):
        r = cast_value(v, target)
        assert r.width is target
        assert r.magnitude <= target.mask


class TestIdentifiers:
    @pytest.mark.parametrize("name", ["x", "guess", "valA", "_tmp", "n0"])
    def test_valid_names_pass(self, name):
        assert check_identifier(name) == name

    @pytest.mark.parametrize(
        "name", ["", "0x", "a-b", "a b", "a__b", "__x", "hdr", "if", "register"]
    )
    def test_invalid_or_reserved_names_rejected(self, name):
        with pytest.raises(ReservedName):
            check_identifier(name)


class TestDecls:
    def test_field_decl_checks_name(self):
        FieldDecl("guess", U8)
        with pytest.raises(ReservedName):
            FieldDecl("meta", U8)

    def test_layout_byte_size(self):
        layout = HeaderLayout("req", [FieldDecl("a", U8), FieldDecl("b", U16)])
        assert layout.byte_size == 3

    def test_layout_rejects_duplicate_fields(self):
        with pytest.raises(ReservedName):
            HeaderLayout("req", [FieldDecl("a", U8), FieldDecl("a", U16)])

    def test_layout_rejects_empty(self):
        with pytest.raises(ValueError):
            HeaderLayout("req", [])

    def test_layout_field_lookup(self):
        layout = HeaderLayout("req", [FieldDecl("a", U8)])
        assert layout.field("a").width is U8
        assert layout.has_field("a")
        assert not layout.has_field("b")
        with pytest.raises(MissingField):
            layout.field("b")

    def test_shared_variable_initial_width_must_match(self):
        SharedVariableDecl("secret", U8, u8(42))
        with pytest.raises(WidthMismatch):
            SharedVariableDecl("secret", U8, u16(42))

    def test_ring_capacity_must_be_positive(self):
        RingBufferDecl("log", U32, 1)
        with pytest.raises(ValueError):
            RingBufferDecl("log", U32, 0)

    def test_ring_capacity_must_not_be_a_bool(self):
        with pytest.raises(ValueError, match="needs capacity >= 1"):
            RingBufferDecl("r", U8, True)

    def test_ring_capacity_is_bounded(self):
        # only refused: a ring of that size is never allocated here
        assert 0 < RING_CAPACITY_MAX < 2**32
        with pytest.raises(ValueError, match=f"needs capacity <= {RING_CAPACITY_MAX}"):
            RingBufferDecl("log", U32, RING_CAPACITY_MAX + 1)


class TestInternetChecksum:
    def test_all_zero_header(self):
        assert internet_checksum(bytes(20)) == u16(0xFFFF)

    def test_single_word(self):
        assert internet_checksum(bytes([0x00, 0x01])) == u16(0xFFFE)

    def test_odd_length_pads_with_zero(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_empty_input(self):
        assert internet_checksum(b"") == u16(0xFFFF)

    @given(st.binary(min_size=0, max_size=64))
    def test_matches_reference_model(self, data):
        assert internet_checksum(data).magnitude == rfc1071_naive(data)

    @given(st.binary(min_size=2, max_size=40).filter(lambda d: len(d) % 2 == 0))
    def test_patched_region_verifies_to_zero(self, data):
        # Standard usage: zero the checksum word, compute, write it back.
        region = bytearray(data)
        region[0:2] = b"\x00\x00"
        c = internet_checksum(bytes(region)).magnitude
        region[0:2] = c.to_bytes(2, "big")
        assert internet_checksum(bytes(region)).magnitude == 0
