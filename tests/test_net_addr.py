"""Unit tests for IPv4 addresses, prefixes, and the address inventory."""

import pytest

from repro.net.addr import AddressSpaceInventory, IPAddress, Prefix, dotted


class TestIPAddress:
    def test_parse_round_trip(self):
        for text in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "192.0.2.1"):
            assert str(IPAddress.parse(text)) == text

    def test_parse_rejects_malformed(self):
        for bad in ("1.2.3", "1.2.3.4.5", "a.b.c.d", "256.0.0.1", "", "1..2.3"):
            with pytest.raises(ValueError):
                IPAddress.parse(bad)

    def test_parse_accepts_only_ascii_digits(self):
        # str.isdigit and int() take other scripts' digits and superscripts.
        for bad in ("\u0661.\u0662.\u0663.\u0664", "\u00b2.1.1.1", "1.2.3.\uff14"):
            with pytest.raises(ValueError, match="malformed IPv4 address"):
                IPAddress.parse(bad)

    def test_an_address_is_an_int_that_prints_dotted(self):
        addr = IPAddress.parse("10.0.0.1")
        assert isinstance(addr, int) and addr == 167772161
        assert dotted(addr) == str(addr) == "10.0.0.1"
        assert repr(addr) == "IPAddress('10.0.0.1')"
        assert f"{addr:d}" == "167772161"
        assert type(addr + 1) is int and dotted(addr + 1) == "10.0.0.2"

    def test_value_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IPAddress(-1)
        with pytest.raises(ValueError):
            IPAddress(1 << 32)

    def test_equality_and_hash(self):
        a = IPAddress.parse("10.0.0.1")
        b = IPAddress(167772161)
        assert a == b
        assert hash(a) == hash(b)
        assert a != IPAddress.parse("10.0.0.2")

    def test_ordering(self):
        assert IPAddress.parse("10.0.0.1") < IPAddress.parse("10.0.0.2")
        assert IPAddress.parse("9.255.255.255") <= IPAddress.parse("10.0.0.0")

    def test_immutability(self):
        addr = IPAddress.parse("10.0.0.1")
        with pytest.raises(AttributeError):
            addr.value = 5



class TestPrefix:
    def test_parse_and_str(self):
        p = Prefix.parse("10.16.0.0/16")
        assert str(p) == "10.16.0.0/16"
        assert p.length == 16
        assert p.size == 65536

    def test_rejects_host_bits_set(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.16.0.1/16")

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0/33")

    def test_rejects_non_ascii_digits(self):
        with pytest.raises(ValueError, match="malformed prefix length"):
            Prefix.parse("10.16.0.0/\u0661\u0666")
        with pytest.raises(ValueError, match="malformed IPv4 address"):
            Prefix.parse("\u0661\u0660.16.0.0/16")

    def test_rejects_missing_slash(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0")

    def test_contains(self):
        p = Prefix.parse("10.16.0.0/16")
        assert p.contains(IPAddress.parse("10.16.0.0"))
        assert p.contains(IPAddress.parse("10.16.255.255"))
        assert not p.contains(IPAddress.parse("10.17.0.0"))
        assert not p.contains(IPAddress.parse("10.15.255.255"))

    def test_address_at_and_index_of_roundtrip(self):
        # An address's index in its prefix is plain subtraction.
        p = Prefix.parse("10.0.0.0/24")
        for i in (0, 1, 127, 255):
            assert p.address_at(i) - p.network == i

    def test_address_at_out_of_range(self):
        p = Prefix.parse("10.0.0.0/24")
        with pytest.raises(IndexError):
            p.address_at(256)
        with pytest.raises(IndexError):
            p.address_at(-1)

    def test_slash32_prefix(self):
        p = Prefix.parse("10.0.0.1/32")
        assert p.size == 1
        assert p.contains(IPAddress.parse("10.0.0.1"))
        assert not p.contains(IPAddress.parse("10.0.0.2"))

    def test_slash0_contains_everything(self):
        p = Prefix.parse("0.0.0.0/0")
        assert p.contains(IPAddress.parse("255.255.255.255"))
        assert p.size == 1 << 32

    def test_hash_and_equality(self):
        assert Prefix.parse("10.0.0.0/16") == Prefix.parse("10.0.0.0/16")
        assert hash(Prefix.parse("10.0.0.0/16")) == hash(Prefix.parse("10.0.0.0/16"))
        assert Prefix.parse("10.0.0.0/16") != Prefix.parse("10.0.0.0/17")


class TestAddressSpaceInventory:
    def test_total_addresses(self):
        inv = AddressSpaceInventory(
            [Prefix.parse("10.0.0.0/24"), Prefix.parse("10.1.0.0/24")]
        )
        assert inv.total_addresses == 512
        assert len(inv) == 2

    def test_lookup_and_covers(self):
        inv = AddressSpaceInventory([Prefix.parse("10.0.0.0/24")])
        assert inv.covers(IPAddress.parse("10.0.0.5"))
        assert not inv.covers(IPAddress.parse("10.0.1.5"))
        assert inv.lookup(IPAddress.parse("10.0.0.5")) == Prefix.parse("10.0.0.0/24")
        assert inv.lookup(IPAddress.parse("8.8.8.8")) is None

    def test_rejects_overlapping_registration(self):
        inv = AddressSpaceInventory([Prefix.parse("10.0.0.0/16")])
        with pytest.raises(ValueError):
            inv.add(Prefix.parse("10.0.1.0/24"))

    def test_flat_index_spans_prefixes_in_order(self):
        inv = AddressSpaceInventory(
            [Prefix.parse("10.0.0.0/30"), Prefix.parse("10.9.0.0/30")]
        )
        assert inv.flat_index(IPAddress.parse("10.0.0.3")) == 3
        assert inv.flat_index(IPAddress.parse("10.9.0.0")) == 4
        assert inv.flat_index(IPAddress.parse("10.9.0.3")) == 7

    def test_flat_index_roundtrip(self):
        inv = AddressSpaceInventory(
            [Prefix.parse("10.0.0.0/30"), Prefix.parse("10.9.0.0/30")]
        )
        for index in range(inv.total_addresses):
            assert inv.flat_index(inv.address_at_flat_index(index)) == index

    def test_flat_index_rejects_uncovered(self):
        inv = AddressSpaceInventory([Prefix.parse("10.0.0.0/24")])
        with pytest.raises(ValueError):
            inv.flat_index(IPAddress.parse("8.8.8.8"))

    def test_address_at_flat_index_bounds(self):
        inv = AddressSpaceInventory([Prefix.parse("10.0.0.0/30")])
        with pytest.raises(IndexError):
            inv.address_at_flat_index(4)
        with pytest.raises(IndexError):
            inv.address_at_flat_index(-1)

    def test_empty_inventory(self):
        inv = AddressSpaceInventory()
        assert inv.total_addresses == 0
        assert not inv.covers(IPAddress.parse("10.0.0.1"))
