// Tests for the wire protocol and the socket server/client pair.
//
// Framing is tested on plain byte buffers (no socket): round trips
// across every message type, then every malformed-input class — bad
// magic, oversized length, truncated body, unknown opcode, trailing
// bytes. The server tests drive real loopback sockets: garbage input
// must produce one error frame and a closed connection (never a
// crash, and never take down other connections), and a synthetic
// fleet over remote_client must reproduce the in-process digests bit
// for bit with pipelined, out-of-order responses.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/server.h"
#include "service/synthetic.h"

namespace pim::net {
namespace {

// ---------------------------------------------------------------------------
// Framing round trips
// ---------------------------------------------------------------------------

dram::bulk_vector sample_vector(int base) {
  dram::bulk_vector v;
  v.size = 8192 * 2;
  for (int i = 0; i < 2; ++i) {
    dram::address a;
    a.channel = base % 2;
    a.rank = 0;
    a.bank = (base + i) % 8;
    a.row = 100 + base + i;
    v.rows.push_back(a);
  }
  return v;
}

bitvector sample_bits(std::size_t size, std::uint64_t seed) {
  rng gen(seed);
  return bitvector::random(size, gen);
}

net_frame roundtrip(std::uint64_t id, const net_message& msg) {
  const std::vector<std::uint8_t> wire = encode_frame(id, msg);
  frame_splitter splitter;
  splitter.feed(wire.data(), wire.size());
  std::optional<net_frame> frame = splitter.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(splitter.buffered(), 0u);
  EXPECT_EQ(frame->id, id);
  EXPECT_EQ(frame->msg.index(), msg.index());
  return std::move(*frame);
}

TEST(protocol, round_trips_every_request_type) {
  {
    const auto f = roundtrip(1, open_session_req{2.5});
    EXPECT_DOUBLE_EQ(std::get<open_session_req>(f.msg).weight, 2.5);
  }
  {
    const auto f = roundtrip(2, close_session_req{77});
    EXPECT_EQ(std::get<close_session_req>(f.msg).session, 77u);
  }
  {
    const auto f = roundtrip(3, allocate_req{9, 8192, 3});
    const auto& m = std::get<allocate_req>(f.msg);
    EXPECT_EQ(m.session, 9u);
    EXPECT_EQ(m.size, 8192u);
    EXPECT_EQ(m.count, 3);
  }
  {
    write_req req;
    req.session = 4;
    req.v = sample_vector(1);
    req.data = sample_bits(req.v.size, 99);
    const auto f = roundtrip(4, req);
    const auto& m = std::get<write_req>(f.msg);
    EXPECT_EQ(m.v.rows, req.v.rows);
    EXPECT_EQ(m.v.size, req.v.size);
    EXPECT_EQ(m.data, req.data);
  }
  {
    read_req req;
    req.session = 5;
    req.v = sample_vector(2);
    const auto f = roundtrip(5, req);
    EXPECT_EQ(std::get<read_req>(f.msg).v.rows, req.v.rows);
  }
  {
    submit_req req;
    req.session = 6;
    req.op = dram::bulk_op::xor_op;
    req.a = sample_vector(1);
    req.b = sample_vector(2);
    req.d = sample_vector(3);
    const auto f = roundtrip(6, req);
    const auto& m = std::get<submit_req>(f.msg);
    EXPECT_EQ(m.op, dram::bulk_op::xor_op);
    ASSERT_TRUE(m.b.has_value());
    EXPECT_EQ(m.b->rows, req.b->rows);
  }
  {
    submit_req unary;
    unary.session = 6;
    unary.op = dram::bulk_op::not_op;
    unary.a = sample_vector(1);
    unary.d = sample_vector(3);
    const auto f = roundtrip(7, unary);
    EXPECT_FALSE(std::get<submit_req>(f.msg).b.has_value());
  }
  {
    submit_shared_req req;
    req.issuer = 8;
    req.op = dram::bulk_op::and_op;
    req.a = {11, sample_vector(1)};
    req.b = service::shared_vector{12, sample_vector(2)};
    req.d = {11, sample_vector(3)};
    const auto f = roundtrip(8, req);
    const auto& m = std::get<submit_shared_req>(f.msg);
    EXPECT_EQ(m.a.owner, 11u);
    ASSERT_TRUE(m.b.has_value());
    EXPECT_EQ(m.b->owner, 12u);
    EXPECT_EQ(m.d.v.rows, req.d.v.rows);
  }
  roundtrip(9, wait_req{});
  roundtrip(10, stats_req{});
  {
    const auto f = roundtrip(11, hello_req{7});
    EXPECT_EQ(std::get<hello_req>(f.msg).max_version, 7);
  }
}

TEST(protocol, round_trips_every_response_type) {
  {
    const auto f = roundtrip(20, opened_resp{1234, 3});
    const auto& m = std::get<opened_resp>(f.msg);
    EXPECT_EQ(m.session, 1234u);
    EXPECT_EQ(m.shard, 3);
  }
  roundtrip(21, closed_resp{});
  {
    vectors_resp resp;
    resp.vectors = {sample_vector(1), sample_vector(4)};
    const auto f = roundtrip(22, resp);
    const auto& m = std::get<vectors_resp>(f.msg);
    ASSERT_EQ(m.vectors.size(), 2u);
    EXPECT_EQ(m.vectors[1].rows, resp.vectors[1].rows);
  }
  {
    data_resp resp;
    resp.data = sample_bits(1000, 7);
    const auto f = roundtrip(23, resp);
    EXPECT_EQ(std::get<data_resp>(f.msg).data, resp.data);
  }
  {
    done_resp resp;
    resp.report.id = 55;
    resp.report.stream = 2;
    resp.report.kind = runtime::task_kind::bulk_bool;
    resp.report.where = runtime::backend_kind::ambit;
    resp.report.submit_ps = 10;
    resp.report.start_ps = 20;
    resp.report.complete_ps = 300;
    resp.report.output_bytes = 4096;
    const auto f = roundtrip(24, resp);
    const auto& m = std::get<done_resp>(f.msg);
    EXPECT_EQ(m.report.id, 55u);
    EXPECT_EQ(m.report.where, runtime::backend_kind::ambit);
    EXPECT_EQ(m.report.complete_ps, 300);
    EXPECT_EQ(m.report.output_bytes, 4096u);
  }
  roundtrip(25, waited_resp{});
  {
    const auto f = roundtrip(26, stats_resp{"{\"x\":1}"});
    EXPECT_EQ(std::get<stats_resp>(f.msg).json, "{\"x\":1}");
  }
  {
    const auto f = roundtrip(27, error_resp{"boom"});
    EXPECT_EQ(std::get<error_resp>(f.msg).message, "boom");
  }
  {
    const auto f = roundtrip(28, hello_resp{wire_version});
    EXPECT_EQ(std::get<hello_resp>(f.msg).version, wire_version);
  }
}

TEST(protocol, accepts_the_whole_supported_version_range) {
  // Frames stamped anywhere in [wire_version_min, wire_version] parse;
  // outside the range is a protocol error.
  for (std::uint8_t v = wire_version_min; v <= wire_version; ++v) {
    const auto wire = encode_frame(1, wait_req{}, v);
    frame_splitter splitter;
    splitter.feed(wire.data(), wire.size());
    EXPECT_TRUE(splitter.next().has_value()) << int(v);
  }
  for (const std::uint8_t v : {std::uint8_t{0},
                               static_cast<std::uint8_t>(wire_version + 1)}) {
    const auto wire = encode_frame(1, wait_req{}, v);
    frame_splitter splitter;
    splitter.feed(wire.data(), wire.size());
    EXPECT_THROW(splitter.next(), protocol_error) << int(v);
  }
}

TEST(protocol, reassembles_frames_split_across_feeds) {
  write_req req;
  req.session = 4;
  req.v = sample_vector(1);
  req.data = sample_bits(req.v.size, 5);
  const std::vector<std::uint8_t> wire = encode_frame(99, req);

  frame_splitter splitter;
  // One byte at a time: next() must return nullopt until the last byte.
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    splitter.feed(&wire[i], 1);
    EXPECT_FALSE(splitter.next().has_value());
  }
  splitter.feed(&wire[wire.size() - 1], 1);
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->id, 99u);
  EXPECT_EQ(std::get<write_req>(frame->msg).data, req.data);
}

TEST(protocol, pops_pipelined_frames_in_order) {
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const auto f = encode_frame(id, wait_req{});
    wire.insert(wire.end(), f.begin(), f.end());
  }
  frame_splitter splitter;
  splitter.feed(wire.data(), wire.size());
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const auto frame = splitter.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->id, id);
  }
  EXPECT_FALSE(splitter.next().has_value());
}

// ---------------------------------------------------------------------------
// Malformed input
// ---------------------------------------------------------------------------

TEST(protocol, rejects_bad_magic) {
  std::vector<std::uint8_t> wire = encode_frame(1, wait_req{});
  wire[0] ^= 0xff;
  frame_splitter splitter;
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
}

TEST(protocol, rejects_oversized_length) {
  std::vector<std::uint8_t> wire = encode_frame(1, wait_req{});
  const std::uint32_t huge = max_frame_bytes + 1;
  std::memcpy(wire.data() + 4, &huge, 4);  // little-endian host in tests
  frame_splitter splitter;
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
}

TEST(protocol, rejects_runt_frame) {
  std::vector<std::uint8_t> wire = encode_frame(1, wait_req{});
  const std::uint32_t tiny = 4;  // below version+id+opcode
  std::memcpy(wire.data() + 4, &tiny, 4);
  frame_splitter splitter;
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
}

TEST(protocol, rejects_truncated_body) {
  // A write frame whose declared length stops mid-bitvector: the body
  // decoder must throw, not read out of bounds.
  write_req req;
  req.session = 1;
  req.v = sample_vector(1);
  req.data = sample_bits(req.v.size, 3);
  std::vector<std::uint8_t> wire = encode_frame(7, req);
  const std::uint32_t declared = static_cast<std::uint32_t>(wire.size() - 8);
  const std::uint32_t shorter = declared - 9;  // drop one word + 1 byte
  std::memcpy(wire.data() + 4, &shorter, 4);
  wire.resize(8 + shorter);
  frame_splitter splitter;
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
  EXPECT_EQ(splitter.last_id(), 7u);  // failed after the id was read
}

TEST(protocol, rejects_unknown_opcode) {
  std::vector<std::uint8_t> wire = encode_frame(3, wait_req{});
  wire[8 + 1 + 8] = 0xee;  // opcode byte after version + id
  frame_splitter splitter;
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
  EXPECT_EQ(splitter.last_id(), 3u);
}

TEST(protocol, rejects_trailing_bytes_in_frame) {
  std::vector<std::uint8_t> wire = encode_frame(1, wait_req{});
  // Grow the payload by one byte the body decoder will not consume.
  wire.push_back(0xab);
  const std::uint32_t longer = static_cast<std::uint32_t>(wire.size() - 8);
  std::memcpy(wire.data() + 4, &longer, 4);
  frame_splitter splitter;
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
}

// ---------------------------------------------------------------------------
// Golden wire bytes
// ---------------------------------------------------------------------------

dram::address golden_address(int k) {
  dram::address a;
  a.channel = k;
  a.rank = k + 1;
  a.bank = -(k + 2);  // negative: pins the i32 sign extension
  a.row = 1000 * k + 7;
  a.column = k + 3;
  return a;
}

dram::bulk_vector golden_vector(int k) {
  dram::bulk_vector v;
  v.size = 8192 * 2 + static_cast<bits>(k);
  v.rows = {golden_address(k), golden_address(k + 10)};
  return v;
}

bitvector golden_bits(std::size_t size, std::uint64_t salt) {
  bitvector v(size);
  for (std::size_t i = 0; i < size; ++i) {
    v.set(i, ((i * 2654435761u) ^ salt) % 3 == 0);
  }
  return v;
}

/// Every message type with every field set to a non-default value,
/// plus the absent state of each optional operand. Shared by the
/// golden-bytes pin and the decoder fuzzer.
std::vector<std::pair<std::string, net_message>> golden_messages() {
  std::vector<std::pair<std::string, net_message>> out;
  out.emplace_back("open_session", open_session_req{2.75});
  out.emplace_back("close_session", close_session_req{0x1122334455667788ull});
  out.emplace_back("allocate", allocate_req{9, 16384, -3});
  {
    write_req m;
    m.session = 4;
    m.v = golden_vector(1);
    m.data = golden_bits(130, 5);  // a partial last word
    out.emplace_back("write", m);
  }
  {
    read_req m;
    m.session = 5;
    m.v = golden_vector(2);
    out.emplace_back("read", m);
  }
  {
    submit_req m;
    m.session = 6;
    m.op = dram::bulk_op::xnor_op;
    m.a = golden_vector(3);
    m.b = golden_vector(4);
    m.d = golden_vector(5);
    out.emplace_back("submit", m);
    m.op = dram::bulk_op::not_op;
    m.b.reset();
    out.emplace_back("submit_unary", m);
  }
  {
    submit_shared_req m;
    m.issuer = 7;
    m.op = dram::bulk_op::or_op;
    m.a = {11, golden_vector(6)};
    m.b = service::shared_vector{12, golden_vector(7)};
    m.d = {13, golden_vector(8)};
    out.emplace_back("submit_shared", m);
    m.op = dram::bulk_op::not_op;
    m.b.reset();
    out.emplace_back("submit_shared_unary", m);
  }
  {
    submit_program_req m;
    m.session = 0x0102030405060708ull;
    m.steps.resize(2);
    m.steps[0].op = dram::bulk_op::and_op;
    m.steps[0].a = golden_vector(12);
    m.steps[0].b = golden_vector(13);
    m.steps[0].d = golden_vector(14);
    m.steps[1].op = dram::bulk_op::not_op;  // unary: absent b
    m.steps[1].a = golden_vector(14);
    m.steps[1].d = golden_vector(15);
    m.outputs = {golden_vector(15), golden_vector(14)};
    out.emplace_back("submit_program", m);
  }
  out.emplace_back("wait", wait_req{});
  out.emplace_back("stats", stats_req{});
  out.emplace_back("hello", hello_req{3});
  out.emplace_back("get_metrics", get_metrics_req{});
  out.emplace_back("trace_ctl", trace_ctl_req{trace_ctl_req::dump, "t.json"});
  out.emplace_back("watch_stats", watch_stats_req{250, -5});
  out.emplace_back("opened", opened_resp{1234, -1});
  out.emplace_back("closed", closed_resp{});
  {
    vectors_resp m;
    m.vectors = {golden_vector(9), golden_vector(10), golden_vector(11)};
    out.emplace_back("vectors", m);
  }
  out.emplace_back("data", data_resp{golden_bits(64 * 3, 9)});
  {
    done_resp m;
    runtime::task_report& r = m.report;
    r.id = 55;
    r.stream = -2;
    r.kind = runtime::task_kind::row_memset;
    r.where = runtime::backend_kind::ndp_logic;
    r.submit_ps = 10;
    r.start_ps = 20;
    r.complete_ps = 300;
    r.output_bytes = 4096;
    r.channel = 1;
    r.bank = 6;
    r.energy_fj = 0xabcdef;
    r.insitu_bytes = 11;
    r.offchip_bytes = 12;
    r.wire_bytes = 13;
    r.admit_ps = 5;
    r.release_ps = 15;
    r.blocked_on = 54;
    r.blocked_row = 0x8000000000000001ull;
    r.wire_hop = true;
    out.emplace_back("done", m);
  }
  {
    program_done_resp m;
    m.reports.resize(2);
    for (std::size_t k = 0; k < m.reports.size(); ++k) {
      runtime::task_report& r = m.reports[k];
      const auto i = static_cast<std::int64_t>(k) + 1;
      r.id = 70 + k;
      r.stream = -static_cast<int>(i);
      r.kind = runtime::task_kind::bulk_bool;
      r.where = runtime::backend_kind::ambit;
      r.submit_ps = 100 * i;
      r.start_ps = 200 * i;
      r.complete_ps = 3000 * i;
      r.output_bytes = 8192 * static_cast<bytes>(i);
      r.channel = static_cast<int>(i);
      r.bank = 3 + static_cast<int>(i);
      r.energy_fj = 0x123456 * static_cast<std::uint64_t>(i);
      r.insitu_bytes = 21 * static_cast<bytes>(i);
      r.offchip_bytes = 22 * static_cast<bytes>(i);
      r.wire_bytes = 23 * static_cast<bytes>(i);
      r.admit_ps = 50 * i;
      r.release_ps = 150 * i;
      r.blocked_on = 69 + k;
      r.blocked_row = 0x4000000000000002ull + k;
      r.wire_hop = k == 1;
    }
    m.outputs = {golden_bits(64 * 2, 12), golden_bits(70, 13)};
    out.emplace_back("program_done", m);
  }
  out.emplace_back("waited", waited_resp{});
  out.emplace_back("stats_report", stats_resp{"{\"x\":1}"});
  out.emplace_back("error", error_resp{"boom"});
  out.emplace_back("hello_ack", hello_resp{2});
  out.emplace_back("metrics_report", metrics_resp{"{\"metrics\":{}}"});
  out.emplace_back("trace_ack", trace_ack_resp{12, "[]"});
  {
    stats_push_resp m;
    m.seq = 3;
    m.last = 1;
    m.counters = {{"service.requests_completed", 42}, {"c2", 0}};
    m.gauges = {{"service.shard.0.queue_depth", -1}};
    m.hists = {{"service.latency_ns", 10, 1.5, 2.5, 3.5},
               {"h2", 1, -0.0, 1e300, 4.0}};
    out.emplace_back("stats_push", m);
  }
  return out;
}

std::string hex_digest(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(protocol, golden_bytes_pin_every_v1_to_v4_message_at_every_version) {
  // Round trips cannot see a layout change made symmetrically on both
  // sides; these digests pin the exact frame bytes. Each covers the
  // message's frames at versions 1..4 (request id = 100 + version),
  // so a version-gated tail that moves changes the digest too. The
  // digests predate version 5 and must never be regenerated: messages
  // born at version 5 are pinned by the v5 table below instead.
  static_assert(wire_version_min == 1 && wire_version >= 4,
                "version window changed: extend the golden digests");
  const std::map<std::string, std::string> expected = {
      {"open_session", "26922cac3a060b75"},
      {"close_session", "05ed785a6f3a7029"},
      {"allocate", "97c18e4a5d344651"},
      {"write", "8614ff998a11203d"},
      {"read", "c1aa1bb58734b3a5"},
      {"submit", "09a28750078ac9d1"},
      {"submit_unary", "6148a9b5014d4079"},
      {"submit_shared", "5f988e6f96f50d6d"},
      {"submit_shared_unary", "393d5e411ed77d39"},
      {"wait", "c005c3d0a8dbf139"},
      {"stats", "5f73b1fdb5d77c6d"},
      {"hello", "36ee6ea59b46af45"},
      {"get_metrics", "10faa39abb114c7d"},
      {"trace_ctl", "34ba5de8269dc23d"},
      {"watch_stats", "b7a04fb0a5cb5055"},
      {"opened", "5b2d18c62bfb9c49"},
      {"closed", "448789d663782e8d"},
      {"vectors", "7ba332a3f0b56415"},
      {"data", "144a2f277f266dad"},
      {"done", "a3f6ddbd43460160"},
      {"waited", "e2c709117d7bbbd5"},
      {"stats_report", "e9d957941ebe86dd"},
      {"error", "3ecf6514959d9641"},
      {"hello_ack", "d8d7247494114065"},
      {"metrics_report", "ce4ad8eebd3c3ba1"},
      {"trace_ack", "0c1735b505b6ab31"},
      {"stats_push", "daaef2da6a864ba1"},
  };
  const auto messages = golden_messages();
  EXPECT_EQ(messages.size(), std::variant_size_v<net_message> + 2);
  std::size_t pinned = 0;
  for (const auto& [name, msg] : messages) {
    if (message_table[msg.index()].since > 4) continue;
    std::vector<std::uint8_t> all;
    for (std::uint8_t v = wire_version_min; v <= 4; ++v) {
      const auto frame = encode_frame(100 + v, msg, v);
      all.insert(all.end(), frame.begin(), frame.end());
    }
    const auto it = expected.find(name);
    EXPECT_TRUE(it != expected.end() && it->second == hex_digest(all))
        << "{\"" << name << "\", \"" << hex_digest(all) << "\"},";
    ++pinned;
  }
  EXPECT_EQ(pinned, expected.size());
}

TEST(protocol, golden_bytes_pin_every_message_at_v5) {
  // Version 5 frame of every message (request id 105), the two
  // program messages it introduced included.
  static_assert(wire_version == 5,
                "version window changed: add a golden table for it");
  const std::map<std::string, std::string> expected = {
      {"open_session", "1f14afe1f70e638b"},
      {"close_session", "a0f80c982f262b1c"},
      {"allocate", "e22ccb01400a97bc"},
      {"write", "ec3aac8f18d44df9"},
      {"read", "072de60f58f005b3"},
      {"submit", "703716b560bd0392"},
      {"submit_unary", "08dddf53c3ccda3a"},
      {"submit_shared", "1dc2efb53127a371"},
      {"submit_shared_unary", "af30e36f3922c4d6"},
      {"submit_program", "af94e8facb5b1955"},
      {"wait", "31776904deeba11a"},
      {"stats", "31776a04deeba2cd"},
      {"hello", "eb4c128abe6ac3ea"},
      {"get_metrics", "31776804deeb9f67"},
      {"trace_ctl", "d8af80f7c6aac98b"},
      {"watch_stats", "f73eaf3d1f32d83b"},
      {"opened", "ca4af0223a7a11d4"},
      {"closed", "31772204deeb2875"},
      {"vectors", "f409f98f437ec4b9"},
      {"data", "885f4784ccccbdc7"},
      {"done", "cfbb941d906e7abc"},
      {"program_done", "90bccdac49f1e457"},
      {"waited", "31771e04deeb21a9"},
      {"stats_report", "64b54305575945ad"},
      {"error", "b558ac08342b3568"},
      {"hello_ack", "ea6bc38abdac2e3f"},
      {"metrics_report", "55ce510ea9bae258"},
      {"trace_ack", "dd1a320b2584b418"},
      {"stats_push", "de8d55bf23470c7e"},
  };
  const auto messages = golden_messages();
  for (const auto& [name, msg] : messages) {
    const std::string digest = hex_digest(encode_frame(105, msg, 5));
    const auto it = expected.find(name);
    EXPECT_TRUE(it != expected.end() && it->second == digest)
        << "{\"" << name << "\", \"" << digest << "\"},";
  }
  EXPECT_EQ(messages.size(), expected.size());
}



TEST(protocol, golden_frames_decode_and_reencode_byte_identically) {
  // The decoder reads back exactly what the encoder wrote, at every
  // version: decode + re-encode reproduces the frame bytes.
  for (const auto& [name, msg] : golden_messages()) {
    for (std::uint8_t v = wire_version_min; v <= wire_version; ++v) {
      const auto wire = encode_frame(v, msg, v);
      frame_splitter splitter;
      splitter.feed(wire.data(), wire.size());
      const std::optional<net_frame> frame = splitter.next();
      ASSERT_TRUE(frame.has_value()) << name << " v" << int(v);
      EXPECT_EQ(encode_frame(frame->id, frame->msg, v), wire)
          << name << " v" << int(v);
    }
  }
}

TEST(protocol, rejects_bitvector_claim_larger_than_its_frame) {
  // A 28-byte write body (session, empty row list, bit count) that
  // claims 2^29 bits: the claim must be refused against the bytes left
  // in the frame before any bitvector is sized from it.
  write_req req;
  req.session = 1;
  std::vector<std::uint8_t> wire = encode_frame(4, req);
  ASSERT_EQ(wire.size(), 8u + 10u + 28u);
  const std::uint64_t claim = std::uint64_t{1} << 29;
  std::memcpy(wire.data() + wire.size() - 8, &claim, 8);
  frame_splitter splitter;
  splitter.feed(wire.data(), wire.size());
  try {
    splitter.next();
    ADD_FAILURE() << "decoded a bitvector claim larger than its frame";
  } catch (const protocol_error& e) {
    EXPECT_NE(std::string(e.what()).find("bitvector larger than its frame"),
              std::string::npos)
        << e.what();
  }
}

TEST(protocol, fuzzed_golden_frames_decode_or_reject_cleanly) {
  // Seeded mutations of every golden frame at every version: bit flips,
  // truncation, byte insertion, and edits of the length field and of
  // u32 counts inside the body. Whatever the bytes, next() returns a
  // frame, returns nullopt, or throws protocol_error — nothing else
  // (the sanitizer builds catch anything worse).
  std::vector<std::vector<std::uint8_t>> seeds;
  for (const auto& [name, msg] : golden_messages()) {
    for (std::uint8_t v = wire_version_min; v <= wire_version; ++v) {
      seeds.push_back(encode_frame(v, msg, v));
    }
  }
  std::mt19937_64 gen(20191);
  auto below = [&gen](std::size_t n) {
    return static_cast<std::size_t>(gen() % n);
  };
  auto put_u32 = [](std::vector<std::uint8_t>& w, std::size_t at,
                    std::uint32_t value) {
    std::memcpy(w.data() + at, &value, 4);
  };
  int frames = 0, rejected = 0;
  for (int iter = 0; iter < 50000; ++iter) {
    std::vector<std::uint8_t> w = seeds[below(seeds.size())];
    const int edits = 1 + static_cast<int>(below(3));
    for (int e = 0; e < edits; ++e) {
      switch (below(5)) {
        case 0:  // bit flip
          w[below(w.size())] ^= static_cast<std::uint8_t>(1u << below(8));
          break;
        case 1:  // truncation
          w.resize(below(w.size() + 1));
          break;
        case 2:  // byte insertion
          w.insert(w.begin() + static_cast<std::ptrdiff_t>(below(w.size() + 1)),
                   static_cast<std::uint8_t>(gen()));
          break;
        case 3: {  // length field: off by a little, or anything
          if (w.size() < 8) break;
          std::uint32_t len = 0;
          std::memcpy(&len, w.data() + 4, 4);
          put_u32(w, 4,
                  below(2) ? len + static_cast<std::uint32_t>(below(17)) - 8
                           : static_cast<std::uint32_t>(gen()));
          break;
        }
        default: {  // a u32 count or size inside the body
          if (w.size() < 8 + 10 + 4) break;
          static constexpr std::uint32_t counts[] = {
              0, 1, 2, 0x7fffffff, 0xffffffff, max_frame_bytes};
          put_u32(w, 8 + 10 + below(w.size() - 8 - 10 - 3),
                  counts[below(std::size(counts))]);
          break;
        }
      }
      if (w.empty()) break;
    }
    frame_splitter splitter;
    // Feed in one piece or two, so partial prefixes are exercised too.
    const std::size_t cut = below(2) ? w.size() : below(w.size() + 1);
    try {
      splitter.feed(w.data(), cut);
      while (splitter.next()) ++frames;
      splitter.feed(w.data() + cut, w.size() - cut);
      while (splitter.next()) ++frames;
    } catch (const protocol_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << ": " << e.what();
    }
  }
  // The mutations reach both outcomes.
  EXPECT_GT(frames, 0);
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// Server over loopback sockets
// ---------------------------------------------------------------------------

server_config small_server_config(int shards = 2) {
  server_config cfg;
  cfg.service.shards = shards;
  cfg.service.system.org.channels = 2;
  cfg.service.system.org.ranks = 1;
  cfg.service.system.org.banks = 4;
  cfg.service.system.org.subarrays = 4;
  cfg.service.system.org.rows = 512;
  cfg.service.system.org.columns = 128;
  return cfg;
}

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Reads until EOF; returns everything received.
std::vector<std::uint8_t> drain_socket(int fd) {
  std::vector<std::uint8_t> all;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    all.insert(all.end(), buf, buf + n);
  }
  return all;
}

TEST(pim_server, answers_garbage_with_error_frame_and_closes) {
  pim_server server(small_server_config());
  server.start();

  const int fd = connect_raw(server.port());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);

  // The server must answer with a well-formed error frame, then close.
  const std::vector<std::uint8_t> reply = drain_socket(fd);
  ::close(fd);
  frame_splitter splitter;
  splitter.feed(reply.data(), reply.size());
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(std::holds_alternative<error_resp>(frame->msg));

  // And the server must still serve new connections afterwards.
  remote_client client("127.0.0.1", server.port());
  const auto v = client.allocate(8192, 3);
  EXPECT_EQ(v.size(), 3u);
  server.stop();
}

TEST(pim_server, survives_truncated_and_oversized_frames) {
  pim_server server(small_server_config());
  server.start();

  {
    // Truncated body under a valid header.
    write_req req;
    req.session = 0;
    req.v = sample_vector(1);
    req.data = sample_bits(req.v.size, 3);
    std::vector<std::uint8_t> wire = encode_frame(7, req);
    const std::uint32_t shorter =
        static_cast<std::uint32_t>(wire.size() - 8 - 16);
    std::memcpy(wire.data() + 4, &shorter, 4);
    wire.resize(8 + shorter);
    const int fd = connect_raw(server.port());
    ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
    const auto reply = drain_socket(fd);
    ::close(fd);
    EXPECT_FALSE(reply.empty());  // error frame, not a crash
  }
  {
    // Oversized declared length.
    std::vector<std::uint8_t> wire = encode_frame(1, wait_req{});
    const std::uint32_t huge = max_frame_bytes + 1;
    std::memcpy(wire.data() + 4, &huge, 4);
    const int fd = connect_raw(server.port());
    ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
    const auto reply = drain_socket(fd);
    ::close(fd);
    EXPECT_FALSE(reply.empty());
  }
  {
    // Unknown opcode.
    std::vector<std::uint8_t> wire = encode_frame(5, wait_req{});
    wire[8 + 1 + 8] = 0xee;
    const int fd = connect_raw(server.port());
    ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
    const auto reply = drain_socket(fd);
    ::close(fd);
    frame_splitter splitter;
    splitter.feed(reply.data(), reply.size());
    const auto frame = splitter.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->id, 5u);  // id echoed even for an unknown opcode
    EXPECT_TRUE(std::holds_alternative<error_resp>(frame->msg));
  }

  // Healthy traffic still works.
  remote_client client("127.0.0.1", server.port());
  EXPECT_EQ(client.allocate(8192, 3).size(), 3u);
  server.stop();
}

TEST(pim_server, rejects_requests_for_foreign_sessions) {
  pim_server server(small_server_config());
  server.start();
  remote_client a("127.0.0.1", server.port());
  const int fd = connect_raw(server.port());

  // A raw connection that never opened session `a.id()` asks to
  // allocate on it: per-request error, connection stays up.
  allocate_req req;
  req.session = a.id();
  req.size = 8192;
  req.count = 1;
  const auto wire = encode_frame(1, req);
  ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
  std::uint8_t buf[4096];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  ASSERT_GT(n, 0);
  frame_splitter splitter;
  splitter.feed(buf, static_cast<std::size_t>(n));
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(std::holds_alternative<error_resp>(frame->msg));

  // Same connection, now with its own session: works.
  const auto open_wire = encode_frame(2, open_session_req{});
  ASSERT_GT(::send(fd, open_wire.data(), open_wire.size(), MSG_NOSIGNAL), 0);
  const ssize_t n2 = ::recv(fd, buf, sizeof(buf), 0);
  ASSERT_GT(n2, 0);
  splitter.feed(buf, static_cast<std::size_t>(n2));
  const auto opened = splitter.next();
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(std::holds_alternative<opened_resp>(opened->msg));
  ::close(fd);
  server.stop();
}

TEST(pim_server, negotiates_protocol_version_on_open) {
  pim_server server(small_server_config());
  server.start();

  {
    // remote_client's hello lands on the current version.
    remote_client client("127.0.0.1", server.port());
    EXPECT_EQ(client.negotiated_version(), wire_version);
    EXPECT_EQ(client.allocate(8192, 1).size(), 1u);
  }
  {
    // A client from the future offers more than we speak: the server
    // answers with its own maximum.
    const int fd = connect_raw(server.port());
    const auto wire = encode_frame(1, hello_req{99}, wire_version_min);
    ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
    std::uint8_t buf[512];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    frame_splitter splitter;
    splitter.feed(buf, static_cast<std::size_t>(n));
    const auto frame = splitter.next();
    ASSERT_TRUE(frame.has_value());
    ASSERT_TRUE(std::holds_alternative<hello_resp>(frame->msg));
    EXPECT_EQ(std::get<hello_resp>(frame->msg).version, wire_version);
    ::close(fd);
  }
  server.stop();
}

TEST(pim_server, frames_legacy_clients_at_the_floor_version) {
  // A client that never sends hello is older than the hello opcode:
  // the server must answer with frames stamped at the floor version —
  // the one framing every supported peer parses.
  pim_server server(small_server_config());
  server.start();
  const int fd = connect_raw(server.port());
  const auto wire = encode_frame(1, open_session_req{}, wire_version_min);
  ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
  std::uint8_t buf[512];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  ASSERT_GT(n, 8 + 1);
  EXPECT_EQ(buf[8], wire_version_min);  // version byte after the header
  frame_splitter splitter;
  splitter.feed(buf, static_cast<std::size_t>(n));
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(std::holds_alternative<opened_resp>(frame->msg));
  ::close(fd);
  server.stop();
}

TEST(pim_server, rejects_mismatched_major_version_with_error_frame) {
  pim_server server(small_server_config());
  server.start();

  // A hello below the server's floor: one clean error frame, then the
  // connection closes (drain_socket sees EOF after the frame).
  const int fd = connect_raw(server.port());
  const auto wire = encode_frame(1, hello_req{0}, wire_version_min);
  ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
  const std::vector<std::uint8_t> reply = drain_socket(fd);
  ::close(fd);
  frame_splitter splitter;
  splitter.feed(reply.data(), reply.size());
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(std::holds_alternative<error_resp>(frame->msg));
  EXPECT_NE(std::get<error_resp>(frame->msg).message.find("version"),
            std::string::npos);
  EXPECT_FALSE(splitter.next().has_value());

  // Other connections are unaffected.
  remote_client client("127.0.0.1", server.port());
  EXPECT_EQ(client.allocate(8192, 1).size(), 1u);
  server.stop();
}

TEST(remote_client, matches_in_process_execution_bit_for_bit) {
  // The acceptance check: one synthetic chain over the socket equals
  // the same chain in process. 4 groups × pipelined ops exercise
  // out-of-order completion (independent groups overlap across banks,
  // so response frames do not come back in request order).
  service::synthetic_config chain;
  chain.ops = 24;
  chain.groups = 4;
  chain.vector_bits = 2 * 8192;
  chain.seed = 7;

  pim_server server(small_server_config());
  server.start();
  std::uint64_t remote_digest = 0;
  {
    remote_client client("127.0.0.1", server.port());
    remote_digest = service::run_synthetic_client(client, chain).digest;
    client.barrier();
    const std::string json = client.stats_json();
    EXPECT_NE(json.find("\"latency\""), std::string::npos);
    client.close_session();
  }
  server.stop();

  service::service_config local;
  local.shards = 1;
  local.system = small_server_config().service.system;
  service::pim_service svc(local);
  svc.start();
  const std::uint64_t local_digest =
      service::run_synthetic_client(svc, chain).digest;
  svc.stop();

  EXPECT_EQ(remote_digest, local_digest);
}

TEST(remote_client, fleet_over_loopback_matches_in_process_fleet) {
  // Whole-fleet equivalence: N concurrent remote clients vs the same
  // population through in-process service_clients, digest lists equal
  // element-wise. Includes cross-session ops (submit_shared over the
  // wire, two-phase planner underneath when owners land on different
  // shards).
  std::vector<service::synthetic_config> population;
  for (int i = 0; i < 6; ++i) {
    service::synthetic_config c;
    c.ops = 16;
    c.groups = 2;
    c.vector_bits = 8192;
    c.seed = 100 + static_cast<std::uint64_t>(i);
    c.cross_fraction = i % 2 == 0 ? 0.25 : 0.0;
    population.push_back(c);
  }

  auto run_remote = [&](std::uint16_t port) {
    const int parties = static_cast<int>(population.size());
    std::vector<service::client_outcome> outcomes(population.size());
    std::vector<std::unique_ptr<remote_client>> clients;
    for (std::size_t i = 0; i < population.size(); ++i) {
      clients.push_back(std::make_unique<remote_client>("127.0.0.1", port));
    }
    // Neighbor exchange mirrors run_synthetic_fleet: client i's cross
    // ops read client (i+1)'s published v[0].
    std::vector<service::shared_vector> published(population.size());
    std::vector<std::vector<dram::bulk_vector>> setup(population.size());
    std::vector<std::thread> threads;
    service::start_gate exchange(parties);
    for (std::size_t i = 0; i < population.size(); ++i) {
      threads.emplace_back([&, i] {
        const service::synthetic_config& config = population[i];
        remote_client& client = *clients[i];
        std::vector<dram::bulk_vector> v;
        for (int g = 0; g < config.groups; ++g) {
          const auto group = client.allocate(
              config.vector_bits, service::synthetic_group_vectors);
          v.insert(v.end(), group.begin(), group.end());
        }
        rng data(config.seed ^ 0xa5a5a5a5a5a5a5a5ull);
        for (const dram::bulk_vector& vec : v) {
          client.write(vec, bitvector::random(vec.size, data));
        }
        published[i] = client.share(v[0]);
        exchange.arrive_and_wait();
        const service::shared_vector* neighbor =
            &published[(i + 1) % published.size()];
        service::client_outcome& outcome = outcomes[i];
        outcome.session = client.id();
        for (const service::synthetic_op& op :
             service::make_synthetic_ops(config)) {
          if (op.cross) {
            client.submit_shared(
                op.op, client.share(v[static_cast<std::size_t>(op.a)]),
                neighbor, client.share(v[static_cast<std::size_t>(op.d)]));
          } else {
            const dram::bulk_vector* b =
                op.b < 0 ? nullptr : &v[static_cast<std::size_t>(op.b)];
            client.submit_bulk(op.op, v[static_cast<std::size_t>(op.a)], b,
                               v[static_cast<std::size_t>(op.d)]);
          }
          ++outcome.tasks;
        }
        outcome.digest = client.digest();
      });
    }
    for (std::thread& t : threads) t.join();
    std::vector<std::uint64_t> digests;
    for (const auto& o : outcomes) digests.push_back(o.digest);
    return digests;
  };

  pim_server server(small_server_config());
  server.start();
  const std::vector<std::uint64_t> remote_digests = run_remote(server.port());
  server.stop();

  service::service_config local;
  local.shards = 2;
  local.system = small_server_config().service.system;
  service::pim_service svc(local);
  svc.start();
  const auto outcomes =
      service::run_synthetic_fleet(svc, population, /*burst=*/false);
  svc.stop();
  std::vector<std::uint64_t> local_digests;
  for (const auto& o : outcomes) local_digests.push_back(o.digest);

  EXPECT_EQ(remote_digests, local_digests);
}

TEST(remote_client, wait_barrier_drains_pipeline) {
  pim_server server(small_server_config());
  server.start();
  {
    remote_client client("127.0.0.1", server.port());
    const auto v = client.allocate(8192, 3);
    rng gen(1);
    client.write(v[0], bitvector::random(8192, gen));
    client.write(v[1], bitvector::random(8192, gen));
    for (int i = 0; i < 8; ++i) {
      client.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1], v[2]);
    }
    client.barrier();  // server answers only once all 8 completed
    // After the barrier every future must already be resolved.
    client.wait_all();
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Observability opcodes: framing, error paths, streaming telemetry
// ---------------------------------------------------------------------------

TEST(protocol, round_trips_observability_messages) {
  roundtrip(30, get_metrics_req{});
  {
    trace_ctl_req req;
    req.action = trace_ctl_req::dump;
    req.path = "/tmp/trace.json";
    const auto f = roundtrip(31, req);
    const auto& m = std::get<trace_ctl_req>(f.msg);
    EXPECT_EQ(m.action, trace_ctl_req::dump);
    EXPECT_EQ(m.path, "/tmp/trace.json");
  }
  {
    const auto f = roundtrip(32, watch_stats_req{250, 5'000'000});
    const auto& m = std::get<watch_stats_req>(f.msg);
    EXPECT_EQ(m.interval_ms, 250u);
    EXPECT_EQ(m.slow_threshold_ns, 5'000'000);
  }
  {
    const auto f = roundtrip(33, metrics_resp{"{\"counters\":{}}"});
    EXPECT_EQ(std::get<metrics_resp>(f.msg).json, "{\"counters\":{}}");
  }
  {
    const auto f = roundtrip(34, trace_ack_resp{12, "[]"});
    EXPECT_EQ(std::get<trace_ack_resp>(f.msg).events, 12u);
  }
  {
    stats_push_resp push;
    push.seq = 3;
    push.last = 1;
    push.counters = {{"service.requests_completed", 42}};
    push.gauges = {{"service.shard.0.queue_depth", -1}};
    push.hists = {{"service.latency_ns", 10, 1.0, 2.0, 3.0}};
    const auto f = roundtrip(35, push);
    const auto& m = std::get<stats_push_resp>(f.msg);
    EXPECT_EQ(m.seq, 3u);
    EXPECT_EQ(m.last, 1);
    ASSERT_EQ(m.counters.size(), 1u);
    EXPECT_EQ(m.counters[0].first, "service.requests_completed");
    EXPECT_EQ(m.counters[0].second, 42u);
    ASSERT_EQ(m.gauges.size(), 1u);
    EXPECT_EQ(m.gauges[0].second, -1);
    ASSERT_EQ(m.hists.size(), 1u);
    EXPECT_EQ(m.hists[0].name, "service.latency_ns");
    EXPECT_DOUBLE_EQ(m.hists[0].p99, 3.0);
  }
}

TEST(protocol, rejects_truncated_watch_stats_body) {
  // A watch_stats frame whose declared length stops inside the
  // interval field: the decoder must throw, not read out of bounds.
  std::vector<std::uint8_t> wire = encode_frame(9, watch_stats_req{1000, -1});
  const std::uint32_t declared = static_cast<std::uint32_t>(wire.size() - 8);
  const std::uint32_t shorter = declared - 6;
  std::memcpy(wire.data() + 4, &shorter, 4);
  wire.resize(8 + shorter);
  frame_splitter splitter;
  splitter.feed(wire.data(), wire.size());
  EXPECT_THROW(splitter.next(), protocol_error);
  EXPECT_EQ(splitter.last_id(), 9u);
}

TEST(pim_server, malformed_watch_stats_body_answers_error_and_closes) {
  // The same truncated frame over a real socket: the server must
  // answer with an error frame and close this connection, without
  // disturbing a healthy client on another connection.
  pim_server server(small_server_config());
  server.start();

  remote_client healthy("127.0.0.1", server.port());

  std::vector<std::uint8_t> wire = encode_frame(5, watch_stats_req{1000, -1});
  const std::uint32_t declared = static_cast<std::uint32_t>(wire.size() - 8);
  const std::uint32_t shorter = declared - 6;
  std::memcpy(wire.data() + 4, &shorter, 4);
  wire.resize(8 + shorter);

  const int fd = connect_raw(server.port());
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  const std::vector<std::uint8_t> reply = drain_socket(fd);  // until EOF
  ::close(fd);
  frame_splitter splitter;
  splitter.feed(reply.data(), reply.size());
  const auto frame = splitter.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(std::holds_alternative<error_resp>(frame->msg));

  EXPECT_EQ(healthy.allocate(8192, 1).size(), 1u);
  server.stop();
}

TEST(remote_client, trace_dump_while_disabled_returns_empty_trace) {
  // trace_ctl dump with tracing never enabled: a well-formed ack with
  // zero events and a loadable (empty) trace document, not an error.
  pim_server server(small_server_config());
  server.start();
  {
    remote_client client("127.0.0.1", server.port());
    std::string json;
    const std::uint64_t events = client.trace_dump("", &json);
    EXPECT_EQ(events, 0u);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
    // Disable without a prior enable is equally benign.
    EXPECT_EQ(client.trace_disable(), 0u);
  }
  server.stop();
}

TEST(remote_client, watch_stats_streams_deltas_and_cancels) {
  pim_server server(small_server_config());
  server.start();
  {
    remote_client client("127.0.0.1", server.port());

    std::mutex mu;
    std::condition_variable cv;
    std::vector<stats_push_resp> pushes;
    client.watch_stats(20, [&](const stats_push_resp& push) {
      std::lock_guard<std::mutex> lock(mu);
      pushes.push_back(push);
      cv.notify_all();
    });
    // Generate server-side activity between pushes so deltas have
    // something to carry.
    const auto vs = client.allocate(8192, 2);
    client.submit_bulk(dram::bulk_op::not_op, vs[0], nullptr, vs[1]).get();
    {
      std::unique_lock<std::mutex> lock(mu);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                              [&] { return pushes.size() >= 3; }));
    }
    client.unwatch_stats();

    std::lock_guard<std::mutex> lock(mu);
    // Seq 0 is the full snapshot and must already carry the service
    // aggregates and per-shard gauges the dashboard renders.
    EXPECT_EQ(pushes.front().seq, 0u);
    auto has_counter = [](const stats_push_resp& p, const std::string& name) {
      for (const auto& [n, v] : p.counters) {
        if (n == name) return true;
      }
      return false;
    };
    auto has_gauge = [](const stats_push_resp& p, const std::string& name) {
      for (const auto& [n, v] : p.gauges) {
        if (n == name) return true;
      }
      return false;
    };
    EXPECT_TRUE(has_counter(pushes.front(), "service.requests_completed"));
    EXPECT_TRUE(has_gauge(pushes.front(), "service.shard.0.queue_depth"));
    // Seq runs contiguously within the watch; the cancel is a watch
    // replacement, so its final push starts a fresh epoch at seq 0.
    ASSERT_GE(pushes.size(), 2u);
    for (std::size_t i = 1; i + 1 < pushes.size(); ++i) {
      EXPECT_EQ(pushes[i].seq, pushes[i - 1].seq + 1);
    }
    // The orderly cancel delivered a final push flagged `last`, and
    // nothing after it.
    EXPECT_EQ(pushes.back().last, 1);
    EXPECT_EQ(pushes.back().seq, 0u);
  }
  server.stop();
}

TEST(remote_client, watcher_disconnect_mid_stream_leaves_server_healthy) {
  // A watcher that vanishes without cancelling (process death): the
  // server's writer must notice the dead socket and reap the
  // connection, leaving the server fully serviceable.
  pim_server server(small_server_config());
  server.start();
  {
    remote_client watcher("127.0.0.1", server.port());
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pushes = 0;
    watcher.watch_stats(10, [&](const stats_push_resp&) {
      std::lock_guard<std::mutex> lock(mu);
      ++pushes;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return pushes >= 2; }));
    // Destructor closes the socket with the watch still active.
  }
  {
    remote_client client("127.0.0.1", server.port());
    const auto vs = client.allocate(8192, 2);
    client.submit_bulk(dram::bulk_op::not_op, vs[0], nullptr, vs[1]).get();
    EXPECT_NE(client.digest(), 0u);
  }
  server.stop();
}

TEST(remote_client, server_side_failure_surfaces_as_future_error) {
  pim_server server(small_server_config());
  server.start();
  {
    remote_client client("127.0.0.1", server.port());
    // A submit naming a vector that was never allocated fails on the
    // shard; the error must travel back through the response frame
    // into the future.
    dram::bulk_vector bogus;
    bogus.size = 8192;
    dram::address a;
    a.channel = -1;  // virtual handle with no translation
    a.rank = 0;
    a.row = 4096;
    bogus.rows.push_back(a);
    service::request_future f =
        client.submit_bulk(dram::bulk_op::not_op, bogus, nullptr, bogus);
    EXPECT_THROW(f.get(), std::runtime_error);
    // wait_all surfaces the recorded failure too, then clears it.
    EXPECT_THROW(client.wait_all(), std::runtime_error);
    // The connection is still healthy for correct requests.
    EXPECT_EQ(client.allocate(8192, 2).size(), 2u);
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Pushed-down programs over the wire (protocol version 5)
// ---------------------------------------------------------------------------

/// Reads frames off `fd` into `out` until one carries `id`; false on
/// EOF first.
bool read_until_id(int fd, frame_splitter& splitter, std::uint64_t id,
                   std::vector<net_frame>& out) {
  std::uint8_t buf[4096];
  for (;;) {
    while (auto f = splitter.next()) {
      out.push_back(std::move(*f));
      if (out.back().id == id) return true;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    splitter.feed(buf, static_cast<std::size_t>(n));
  }
}

/// Sends one frame at `version`, expects its direct answer.
net_frame call_raw(int fd, frame_splitter& splitter, std::uint64_t id,
                   const net_message& msg, std::uint8_t version) {
  const auto wire = encode_frame(id, msg, version);
  EXPECT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  std::vector<net_frame> frames;
  EXPECT_TRUE(read_until_id(fd, splitter, id, frames));
  return frames.back();
}

TEST(pim_server, answers_every_program_id_exactly_once) {
  pim_server server(small_server_config());
  server.start();
  const int fd = connect_raw(server.port());
  frame_splitter splitter;
  const net_frame hello = call_raw(fd, splitter, 1, hello_req{5}, 1);
  ASSERT_EQ(std::get<hello_resp>(hello.msg).version, 5);
  const net_frame opened = call_raw(fd, splitter, 2, open_session_req{}, 5);
  const service::session_id session = std::get<opened_resp>(opened.msg).session;
  allocate_req alloc;
  alloc.session = session;
  alloc.size = 8192;
  alloc.count = 3;
  const net_frame vecs = call_raw(fd, splitter, 3, alloc, 5);
  const auto v = std::get<vectors_resp>(vecs.msg).vectors;
  ASSERT_EQ(v.size(), 3u);

  auto program = [&](const dram::bulk_vector& out) {
    submit_program_req req;
    req.session = session;
    req.steps.resize(2);
    req.steps[0].op = dram::bulk_op::not_op;
    req.steps[0].a = v[0];
    req.steps[0].d = v[1];
    req.steps[1].op = dram::bulk_op::xor_op;
    req.steps[1].a = v[0];
    req.steps[1].b = v[1];
    req.steps[1].d = out;
    req.outputs = {out};
    return req;
  };
  dram::bulk_vector foreign = v[2];
  foreign.rows[0].row += 10'000;
  std::map<std::uint64_t, std::string> sent;  // id -> expected answer
  std::vector<std::uint8_t> burst;
  auto queue = [&](std::uint64_t id, const submit_program_req& req,
                   const char* answer) {
    const auto wire = encode_frame(id, req, 5);
    burst.insert(burst.end(), wire.begin(), wire.end());
    sent[id] = answer;
  };
  for (std::uint64_t id = 100; id < 110; ++id) {
    queue(id, program(v[2]), "program_done");
  }
  queue(110, program(foreign), "error");  // fails on the shard
  submit_program_req untouched = program(v[2]);
  untouched.outputs = {foreign};
  queue(111, untouched, "error");  // refused before admission
  submit_program_req stranger = program(v[2]);
  stranger.session = session + 1000;
  queue(112, stranger, "error");  // not this connection's session
  for (std::uint64_t id = 113; id < 120; ++id) {
    queue(id, program(v[2]), "program_done");
  }
  // The barrier answers once every program has been answered.
  const auto barrier = encode_frame(999, wait_req{}, 5);
  burst.insert(burst.end(), barrier.begin(), barrier.end());
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  std::vector<net_frame> frames;
  ASSERT_TRUE(read_until_id(fd, splitter, 999, frames));
  // A later request's answer must be the next frame: no program
  // answers twice.
  const net_frame after = call_raw(fd, splitter, 1000, stats_req{}, 5);
  EXPECT_TRUE(std::holds_alternative<stats_resp>(after.msg));
  ::close(fd);
  server.stop();

  std::map<std::uint64_t, int> answers;
  for (const net_frame& f : frames) {
    if (f.id == 999) continue;
    ++answers[f.id];
    ASSERT_EQ(sent.count(f.id), 1u) << "unexpected id " << f.id;
    const std::string& want = sent[f.id];
    if (want == "program_done") {
      ASSERT_TRUE(std::holds_alternative<program_done_resp>(f.msg))
          << "id " << f.id;
      const auto& done = std::get<program_done_resp>(f.msg);
      EXPECT_EQ(done.reports.size(), 2u);
      ASSERT_EQ(done.outputs.size(), 1u);
      // v0 ^ ~v0: all ones.
      EXPECT_EQ(done.outputs[0].popcount(), done.outputs[0].size());
    } else {
      EXPECT_TRUE(std::holds_alternative<error_resp>(f.msg)) << "id " << f.id;
    }
  }
  EXPECT_EQ(answers.size(), sent.size());
  for (const auto& [id, n] : answers) EXPECT_EQ(n, 1) << "id " << id;
}

TEST(remote_client, v4_peer_falls_back_to_one_request_per_step) {
  pim_server server(small_server_config());
  server.start();
  auto run = [&](std::uint8_t max_version) -> std::uint64_t {
    remote_client client("127.0.0.1", server.port(), 1.0, max_version);
    EXPECT_EQ(client.negotiated_version(), max_version);
    const auto v = client.allocate(8192, 4);
    rng gen(static_cast<std::uint64_t>(max_version));
    const bitvector a = bitvector::random(8192, gen);
    const bitvector b = bitvector::random(8192, gen);
    client.write(v[0], a);
    client.write(v[1], b);
    std::vector<service::bulk_step> steps(3);
    steps[0].op = dram::bulk_op::and_op;
    steps[0].a = v[0];
    steps[0].b = v[1];
    steps[0].d = v[2];
    steps[1].op = dram::bulk_op::nor_op;
    steps[1].a = v[0];
    steps[1].b = v[2];
    steps[1].d = v[3];
    steps[2].op = dram::bulk_op::not_op;
    steps[2].a = v[3];
    steps[2].d = v[3];
    const std::uint64_t before =
        server.service().stats().requests_enqueued;
    const service::request_future f =
        client.submit_program(std::move(steps), {v[3], v[2]});
    const service::request_result& r = f.get();
    const std::uint64_t requests =
        server.service().stats().requests_enqueued - before;
    EXPECT_EQ(r.reports.size(), 3u);
    EXPECT_EQ(r.outputs.size(), 2u);
    if (r.outputs.size() == 2) {
      EXPECT_EQ(r.outputs[0], a | (a & b));
      EXPECT_EQ(r.outputs[1], a & b);
    }
    client.wait_all();
    return requests;
  };
  // v5: one request. v4: three submits plus two output reads.
  EXPECT_EQ(run(5), 1u);
  EXPECT_EQ(run(4), 5u);
  server.stop();
}

}  // namespace
}  // namespace pim::net
