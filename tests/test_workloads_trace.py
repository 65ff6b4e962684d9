"""Unit tests for trace records, persistence, and replay."""

import pytest

from repro.net.addr import dotted
from repro.net.packet import PROTO_TCP, PROTO_UDP, TcpFlags
from repro.workloads.trace import TraceReader, TraceRecord, TraceWriter, replay_into_farm


def record(time=0.0, dst="10.16.0.1", payload="", protocol=PROTO_TCP):
    return TraceRecord(
        time=time, src="203.0.113.9", dst=dst, protocol=protocol,
        src_port=1234, dst_port=445, payload=payload,
    )


class TestTraceRecord:
    def test_to_packet_addresses_and_ports(self):
        packet = record().to_packet()
        assert dotted(packet.src) == "203.0.113.9"
        assert dotted(packet.dst) == "10.16.0.1"
        assert packet.dst_port == 445

    def test_bare_tcp_record_becomes_syn(self):
        assert record().to_packet().flags.is_syn

    def test_payload_record_becomes_data_segment(self):
        packet = record(payload="exploit:sasser").to_packet()
        assert packet.flags & TcpFlags.PSH
        assert packet.payload == "exploit:sasser"

    def test_udp_record(self):
        packet = record(protocol=PROTO_UDP).to_packet()
        assert packet.is_udp
        assert packet.flags == TcpFlags.NONE

    def test_from_packet_roundtrip(self):
        packet = record(payload="x").to_packet()
        back = TraceRecord.from_packet(3.5, packet)
        assert back.time == 3.5
        assert back.src == "203.0.113.9"
        assert back.payload == "x"
        assert back.size == packet.size


class TestPersistence:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [record(time=float(i), dst=f"10.16.0.{i}") for i in range(10)]
        with TraceWriter(path) as writer:
            assert writer.write_all(records) == 10
        assert TraceReader(path).read_all() == records

    def test_writer_requires_context_manager(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.jsonl")
        with pytest.raises(ValueError):
            writer.write(record())

    def test_reader_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            writer.write(record())
        path.write_text(path.read_text() + "\n\n")
        assert len(TraceReader(path).read_all()) == 1

    def test_reader_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(ValueError, match="malformed"):
            TraceReader(path).read_all()

    def test_reader_rejects_wrong_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"unexpected": 1}\n')
        with pytest.raises(ValueError):
            TraceReader(path).read_all()

    @pytest.mark.parametrize(
        "dst",
        [
            '"10.16.0.999"', '"10.16.0"', "167772161", "null",
            # Digits outside ASCII: str.isdigit and int() accept them.
            '"\u0661.\u0662.\u0663.\u0664"', '"\u00b2.16.0.1"',
        ],
    )
    def test_reader_rejects_an_unparseable_address(self, tmp_path, dst):
        path = tmp_path / "bad.jsonl"
        with TraceWriter(path) as writer:
            writer.write(record())
        line = path.read_text().replace('"10.16.0.1"', dst)
        path.write_text(path.read_text() + line)
        with pytest.raises(ValueError, match=rf"{path}:2: malformed trace record"):
            TraceReader(path).read_all()
        with pytest.raises(ValueError, match=rf"{path}:2: malformed trace record"):
            list(TraceReader(path))


class TestReplay:
    def test_replay_schedules_all_records(self, small_farm):
        records = [record(time=float(i), dst=f"10.16.0.{i + 1}") for i in range(5)]
        assert replay_into_farm(small_farm, records) == 5
        small_farm.run(until=10.0)
        assert small_farm.metrics.counters()["gateway.packets_in"] >= 5
        assert small_farm.live_vms == 5

    def test_replay_honours_timestamps(self, small_farm):
        replay_into_farm(small_farm, [record(time=7.5)])
        small_farm.run(until=7.0)
        assert small_farm.metrics.counters().get("gateway.packets_in", 0) == 0
        small_farm.run(until=8.0)
        assert small_farm.metrics.counters()["gateway.packets_in"] == 1

    def test_replay_with_offset(self, small_farm):
        small_farm.run(until=100.0)
        replay_into_farm(small_farm, [record(time=1.0)], time_offset=100.0)
        small_farm.run(until=102.0)
        assert small_farm.metrics.counters()["gateway.packets_in"] == 1
