// Wire protocol of the networked PIM service.
//
// Out-of-process clients talk to a pim_server over a stream socket
// using length-prefixed binary frames:
//
//   +-------------+--------------+---------------------------------+
//   | magic (u32) | length (u32) | payload (`length` bytes)        |
//   +-------------+--------------+---------------------------------+
//   payload: | version (u8) | request id (u64) | opcode (u8) | body |
//
// All integers are little-endian. `length` counts the payload only;
// frames above max_frame_bytes are rejected before buffering (a
// malformed peer cannot make the server allocate unbounded memory).
// The request id is chosen by the client and echoed by the matching
// response — requests are pipelined and responses complete OUT OF
// ORDER as the shards' simulated clocks advance, so the id is the only
// correlation between the two directions. Opcode values below 64 are
// requests, 64 and above are responses; an error_resp can answer any
// request.
//
// The message set covers the full client_api surface (open/close
// session, allocate, write, read, submit, submit_shared,
// submit_program, wait, stats)
// plus version negotiation and the observability opcodes. It is
// written down once, as the PIM_NET_MESSAGES table below; the opcode
// enum, the net_message variant, opcode_of, the decoder's dispatch and
// the verifier's V3xx schema are all generated from it, so there is no
// second list to keep in step. encode_frame/frame_splitter round-trip
// on plain byte buffers with no socket involved — which is how the
// framing tests pin every message's bytes at every version, fuzz the
// decoder, and exercise every malformed-input path (bad magic,
// oversized length, truncated body, unknown opcode) deterministically.
#ifndef PIM_NET_PROTOCOL_H
#define PIM_NET_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "runtime/task.h"
#include "service/request.h"

namespace pim::net {

inline constexpr std::uint32_t wire_magic = 0x50494D31;  // "1MIP" on the wire
/// Highest protocol version this build speaks. Version 2 added the
/// hello negotiation exchange; version 3 appends the energy charge and
/// moved-bytes ledger to task reports (done frames); version 4 appends
/// the wait-state attribution fields (admit/release stamps, the
/// blocking task/row release edge, the wire-hop flag) the critical-
/// path analyzer consumes. Encoders omit each tail at negotiated
/// versions below its floor, so older peers see the exact old grammar
/// and simply report zeros. Version 5 adds the submit_program /
/// program_done pair: a whole step program as one request, answered
/// by one frame carrying every step's report and the output bits.
/// Peers below 5 never see them (remote_client falls back to one
/// submit per step).
inline constexpr std::uint8_t wire_version = 5;
/// Oldest version still parseable. A peer whose highest version is
/// below this floor is a major-version mismatch: the server answers a
/// clean error frame and closes.
inline constexpr std::uint8_t wire_version_min = 1;
/// Upper bound on one frame's payload: comfortably above any realistic
/// bulk vector, far below anything that could exhaust server memory.
inline constexpr std::uint32_t max_frame_bytes = 1u << 26;  // 64 MiB

/// Decode-side violation of the framing or message grammar. The server
/// answers with an error frame and closes the connection; the client
/// treats it as a broken server.
struct protocol_error : std::runtime_error {
  explicit protocol_error(const std::string& what)
      : std::runtime_error("protocol error: " + what) {}
};

// --- the message table -----------------------------------------------------
//
// The one description of the message set. One row per message, in
// net_message alternative order: the body struct, its opcode name and
// value, and the first protocol version it exists in; request rows also
// name their success response (any request may instead be answered by
// `error`). Version 2 added the hello negotiation; the observability
// opcodes (get_metrics/trace_ctl/watch_stats and their responses)
// shipped while version 2 was current, so 2 is the floor they exist at.
// The floor is schema metadata: the decoder accepts every opcode at
// every supported version.
//
// The table generates the opcode enum, net_message, opcode_of, the
// decoder's opcode-to-type dispatch and the V3xx schema pim_lint checks
// (verify::canonical_wire_schema). Each body's byte layout is its one
// fields() function in protocol.cpp, which both the encoder and the
// bounds-checked decoder run. Adding a message means one row here, one
// fields() function and its server handler.
#define PIM_NET_MESSAGES(REQ, RESP)                              \
  /*  body struct        opcode          value since response */ \
  REQ(open_session_req,  open_session,   1,  1, opened)         \
  REQ(close_session_req, close_session,  2,  1, closed)         \
  REQ(allocate_req,      allocate,       3,  1, vectors)        \
  REQ(write_req,         write,          4,  1, done)           \
  REQ(read_req,          read,           5,  1, data)           \
  REQ(submit_req,        submit,         6,  1, done)           \
  REQ(submit_shared_req, submit_shared,  7,  1, done)           \
  REQ(wait_req,          wait,           8,  1, waited)         \
  REQ(stats_req,         stats,          9,  1, stats_report)   \
  REQ(hello_req,         hello,          10, 2, hello_ack)      \
  REQ(get_metrics_req,   get_metrics,    11, 2, metrics_report) \
  REQ(trace_ctl_req,     trace_ctl,      12, 2, trace_ack)      \
  REQ(watch_stats_req,   watch_stats,    13, 2, stats_push)     \
  REQ(submit_program_req, submit_program, 14, 5, program_done)  \
  RESP(opened_resp,      opened,         64, 1)                 \
  RESP(closed_resp,      closed,         65, 1)                 \
  RESP(vectors_resp,     vectors,        66, 1)                 \
  RESP(data_resp,        data,           67, 1)                 \
  RESP(done_resp,        done,           68, 1)                 \
  RESP(waited_resp,      waited,         69, 1)                 \
  RESP(stats_resp,       stats_report,   70, 1)                 \
  RESP(error_resp,       error,          71, 1)                 \
  RESP(hello_resp,       hello_ack,      72, 2)                 \
  RESP(metrics_resp,     metrics_report, 73, 2)                 \
  RESP(trace_ack_resp,   trace_ack,      74, 2)                 \
  RESP(stats_push_resp,  stats_push,     75, 2)                 \
  RESP(program_done_resp, program_done,  76, 5)

/// Tag byte of a frame: requests below 64, responses from 64.
enum class opcode : std::uint8_t {
#define PIM_NET_OPCODE(type, name, value, ...) name = value,
  PIM_NET_MESSAGES(PIM_NET_OPCODE, PIM_NET_OPCODE)
#undef PIM_NET_OPCODE
};

// --- request bodies --------------------------------------------------------

struct open_session_req {
  double weight = 1.0;
};

/// Connection-level bookkeeping: the server stops accepting the
/// session on this connection. (Service sessions are not destroyed —
/// their vectors may be shared cross-session.)
struct close_session_req {
  service::session_id session = 0;
};

struct allocate_req {
  service::session_id session = 0;
  bits size = 0;
  std::int32_t count = 0;
};

struct write_req {
  service::session_id session = 0;
  dram::bulk_vector v;
  bitvector data;
};

struct read_req {
  service::session_id session = 0;
  dram::bulk_vector v;
};

/// One bulk Boolean op: d = op(a[, b]).
struct submit_req {
  service::session_id session = 0;
  dram::bulk_op op = dram::bulk_op::not_op;
  dram::bulk_vector a;
  std::optional<dram::bulk_vector> b;
  dram::bulk_vector d;
};

/// Cross-session (possibly cross-shard) bulk op over shared vectors.
struct submit_shared_req {
  service::session_id issuer = 0;
  dram::bulk_op op = dram::bulk_op::not_op;
  service::shared_vector a;
  std::optional<service::shared_vector> b;
  service::shared_vector d;
};

/// A whole program of bulk ops over the session's vectors
/// (client_api::submit_program): the steps in program order, then the
/// vectors whose bits the answer carries.
struct submit_program_req {
  service::session_id session = 0;
  std::vector<service::bulk_step> steps;
  std::vector<dram::bulk_vector> outputs;
};

/// Barrier: the response is sent once every request this connection
/// submitted before it has completed server-side.
struct wait_req {};

struct stats_req {};

/// Version negotiation, sent by the client as its first frame (and
/// encoded at wire_version_min so any compatible server can parse
/// it): "the highest version I speak". The server answers hello_resp
/// with the agreed version — min(client max, server max) — and both
/// sides frame at that version from then on. A client max below the
/// server's wire_version_min is a major-version mismatch: the server
/// answers an error frame and closes the connection. Clients that
/// skip the exchange are framed at the server's current version.
struct hello_req {
  std::uint8_t max_version = wire_version;
};

/// Snapshot of the server process's obs::metrics_registry (counters,
/// gauges, histograms) plus the service's aggregate stats, as JSON.
struct get_metrics_req {};

/// Runtime control of the server's tracer. `dump` with an empty path
/// returns the Chrome trace JSON inline in the trace_ack; with a path
/// the server writes the file locally and returns only the count.
struct trace_ctl_req {
  enum : std::uint8_t { enable = 0, disable = 1, dump = 2, clear = 3 };
  std::uint8_t action = enable;
  std::string path;  // dump only; empty = return JSON inline
};

/// Subscribes this connection to streaming telemetry: the server
/// pushes stats_push frames (echoing this request's id) every
/// `interval_ms` until the watch is replaced, cancelled, or the
/// connection closes. interval_ms == 0 cancels the watch; either way
/// the server answers with one immediate push (the cancel's push has
/// `last` set). `slow_threshold_ns >= 0` also sets the server's
/// slow-request log threshold (-1 leaves it untouched) — the runtime
/// knob for tail-based span retention.
struct watch_stats_req {
  std::uint32_t interval_ms = 1000;
  std::int64_t slow_threshold_ns = -1;
};

// --- response bodies -------------------------------------------------------

struct opened_resp {
  service::session_id session = 0;
  std::int32_t shard = 0;
};

struct closed_resp {};

struct vectors_resp {
  std::vector<dram::bulk_vector> vectors;
};

struct data_resp {
  bitvector data;
};

/// Completion of a submit/submit_shared/write: the task report fields
/// a remote client can act on (simulated timestamps, backend,
/// output).
struct done_resp {
  runtime::task_report report;
};

struct waited_resp {};

/// Service-wide telemetry, encoded as the same JSON document
/// pim_service::write_json produces.
struct stats_resp {
  std::string json;
};

struct error_resp {
  std::string message;
};

/// The version both sides agreed to frame at.
struct hello_resp {
  std::uint8_t version = wire_version;
};

/// Answer to get_metrics: one JSON document with "metrics" (registry
/// snapshot) and "service" (aggregate service stats) members.
struct metrics_resp {
  std::string json;
};

/// Answer to trace_ctl: buffered event count at the time of the
/// action, plus the trace JSON for an inline dump (empty otherwise).
struct trace_ack_resp {
  std::uint64_t events = 0;
  std::string json;
};

/// One server-initiated telemetry frame, echoing the watch_stats
/// request id so pipelined clients demux it like any response. The
/// payload is a *delta* encoding of the metrics registry: seq 0
/// carries every counter/gauge/histogram, later pushes only entries
/// whose value changed since the previous push — the consumer folds
/// them into its cumulative view (tools/pim_top renders that view and
/// re-exposes it as OpenMetrics). Per-shard gauges ride along under
/// their registry names ("service.shard.N.queue_depth", ...), and the
/// server injects service-level aggregates (latency percentiles, top
/// sessions) as synthetic "service.*" entries.
struct stats_push_resp {
  struct hist_entry {
    std::string name;
    std::uint64_t count = 0;
    double p50 = 0, p95 = 0, p99 = 0;
  };

  std::uint64_t seq = 0;
  std::uint8_t last = 0;  // 1 = final push of a cancelled watch
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<hist_entry> hists;
};

/// Completion of a submit_program: every step's task report, in step
/// order, and each requested output's bits, in request order.
struct program_done_resp {
  std::vector<runtime::task_report> reports;
  std::vector<bitvector> outputs;
};

namespace detail {
/// Drops the leading placeholder that absorbs the generated list's
/// leading comma.
template <class Placeholder, class... Bodies>
struct message_variant {
  using type = std::variant<Bodies...>;
};
}  // namespace detail

/// Every body type, one alternative per table row, in table order.
#define PIM_NET_BODY(type, ...) , type
using net_message = detail::message_variant<
    void PIM_NET_MESSAGES(PIM_NET_BODY, PIM_NET_BODY)>::type;
#undef PIM_NET_BODY

/// One table row as data, indexed like net_message's alternatives.
struct message_info {
  opcode op;
  const char* name;    // the opcode's name
  std::uint8_t since;  // first protocol version the message exists in
  bool request;
  opcode response;     // requests only: the success response
};

inline constexpr message_info message_table[] = {
#define PIM_NET_REQ_ROW(type, name, value, since, resp) \
  {opcode::name, #name, since, true, opcode::resp},
#define PIM_NET_RESP_ROW(type, name, value, since) \
  {opcode::name, #name, since, false, opcode{}},
    PIM_NET_MESSAGES(PIM_NET_REQ_ROW, PIM_NET_RESP_ROW)
#undef PIM_NET_REQ_ROW
#undef PIM_NET_RESP_ROW
};

/// Opcode of a message (the tag byte its frame carries).
inline opcode opcode_of(const net_message& msg) {
  return message_table[msg.index()].op;
}

/// First protocol version `op` exists in.
constexpr std::uint8_t since_version(opcode op) {
  for (const message_info& m : message_table) {
    if (m.op == op) return m.since;
  }
  return 0;
}

/// Requests that run as shard tasks; their wire request id doubles as
/// the trace flow id on both sides of the connection.
inline bool is_task_request(const net_message& msg) {
  return std::holds_alternative<write_req>(msg) ||
         std::holds_alternative<read_req>(msg) ||
         std::holds_alternative<submit_req>(msg) ||
         std::holds_alternative<submit_shared_req>(msg) ||
         std::holds_alternative<submit_program_req>(msg);
}

/// One decoded frame.
struct net_frame {
  std::uint64_t id = 0;
  net_message msg;
};

/// Serializes a complete frame (header + payload) for `msg` under
/// request id `id`, stamping the given (negotiated) protocol version.
std::vector<std::uint8_t> encode_frame(std::uint64_t id,
                                       const net_message& msg,
                                       std::uint8_t version = wire_version);

/// Incremental frame decoder over a byte stream. Feed whatever the
/// socket produced; next() pops complete frames one at a time,
/// returning nullopt while the buffered prefix is still incomplete
/// (trailing partial frames are not an error — more bytes may arrive)
/// and throwing protocol_error on grammar violations.
class frame_splitter {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  std::optional<net_frame> next();

  /// Request id of the last frame next() parsed far enough to read an
  /// id from — what an error frame echoes when decode fails mid-body.
  /// Zero when the failure preceded the id.
  std::uint64_t last_id() const { return last_id_; }

  /// Buffered bytes not yet consumed (tests).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::uint64_t last_id_ = 0;
};

}  // namespace pim::net

#endif  // PIM_NET_PROTOCOL_H
