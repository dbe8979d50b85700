#include "net/protocol.h"

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstring>
#include <type_traits>
#include <utility>

namespace pim::net {
namespace {

// --- the two codec directions ----------------------------------------------
//
// Every body's layout is one fields() function, run with a writer to
// encode (over a const message) and with a reader to decode (into a
// fresh one). Both speak the same small vocabulary: fixed-width
// little-endian scalars, one-byte enums/flags, u32-length strings,
// bit vectors and u32 element counts.

template <class T>
void store_le(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(p, p + sizeof(T));
  }
}

template <class T>
T load_le(const std::uint8_t* p) {
  std::uint8_t le[sizeof(T)];
  std::memcpy(le, p, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(le, le + sizeof(T));
  }
  T v;
  std::memcpy(&v, le, sizeof(T));
  return v;
}

struct writer {
  std::vector<std::uint8_t>& out;
  /// The frame's negotiated version: version-gated fields key off it.
  std::uint8_t version;

  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = out.size();
    out.resize(at + n);
    return out.data() + at;
  }
  template <class T>
  void scalar(const T& v) {
    store_le(grow(sizeof(T)), v);
  }
  template <class T>
  void byte(const T& v) {
    out.push_back(static_cast<std::uint8_t>(v));
  }
  void str(const std::string& s) {
    scalar(static_cast<std::uint32_t>(s.size()));
    std::memcpy(grow(s.size()), s.data(), s.size());
  }
  void bits(const bitvector& v) {
    scalar(std::uint64_t{v.size()});
    std::uint8_t* p = grow(v.word_count() * 8);
    for (std::size_t w = 0; w < v.word_count(); ++w) {
      store_le(p + 8 * w, v.get_word(w));
    }
  }
  std::size_t count(std::size_t n, std::size_t /*min_element_bytes*/) {
    scalar(static_cast<std::uint32_t>(n));
    return n;
  }
  void require(bool /*ok*/, const char* /*what*/) {}
};

struct reader {
  const std::uint8_t* p = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;
  /// The frame's version, set by frame_splitter::next() from the
  /// header before the body decodes.
  std::uint8_t version = wire_version;

  std::size_t left() const { return size - pos; }
  const std::uint8_t* take(std::size_t n) {
    if (n > left()) throw protocol_error("truncated frame body");
    const std::uint8_t* at = p + pos;
    pos += n;
    return at;
  }
  template <class T>
  void scalar(T& v) {
    v = load_le<T>(take(sizeof(T)));
  }
  template <class T>
  void byte(T& v) {
    v = static_cast<T>(*take(1));
  }
  void str(std::string& s) {
    std::uint32_t n = 0;
    scalar(n);
    const std::uint8_t* at = take(n);
    s.assign(reinterpret_cast<const char*>(at), n);
  }
  void bits(bitvector& v) {
    std::uint64_t size_bits = 0;
    scalar(size_bits);
    // Bounded by what is left of the frame before anything is sized
    // from the claim: a tiny frame cannot make us zero-fill megabytes.
    const std::uint64_t words = size_bits / 64 + (size_bits % 64 != 0);
    if (words > left() / 8) {
      throw protocol_error("bitvector larger than its frame");
    }
    v = bitvector(static_cast<std::size_t>(size_bits));
    const std::uint8_t* at = take(v.word_count() * 8);
    for (std::size_t w = 0; w < v.word_count(); ++w) {
      v.set_word(w, load_le<std::uint64_t>(at + 8 * w));
    }
  }
  /// A u32 element count, bounded by the remaining frame: a count that
  /// cannot fit is malformed, not a reason to allocate gigabytes.
  std::size_t count(std::size_t /*current*/, std::size_t min_element_bytes) {
    std::uint32_t n = 0;
    scalar(n);
    if (static_cast<std::size_t>(n) * min_element_bytes > left()) {
      throw protocol_error("element count exceeds frame");
    }
    return n;
  }
  void require(bool ok, const char* what) {
    if (!ok) throw protocol_error(what);
  }
};

// --- field functions: one per wire shape ------------------------------------
//
// M is T for the reader and const T for the writer. Composite layouts
// list their members in wire order; fields(io, a, b, ...) runs each.

template <class M, class T>
concept maybe_const = std::same_as<std::remove_const_t<M>, T>;

template <class M, template <class...> class Tmpl>
inline constexpr bool instance_of = false;
template <template <class...> class Tmpl, class... A>
inline constexpr bool instance_of<Tmpl<A...>, Tmpl> = true;
template <template <class...> class Tmpl, class... A>
inline constexpr bool instance_of<const Tmpl<A...>, Tmpl> = true;

template <class IO, class... F>
  requires(sizeof...(F) > 1)
void fields(IO& io, F&... f) {
  (fields(io, f), ...);
}

/// Integers and doubles travel at their own width.
template <class IO, class M>
  requires std::is_arithmetic_v<M> && (!maybe_const<M, bool>)
void fields(IO& io, M& v) { io.scalar(v); }

template <class IO, maybe_const<std::string> M>
void fields(IO& io, M& s) { io.str(s); }

template <class IO, maybe_const<bitvector> M>
void fields(IO& io, M& v) { io.bits(v); }

/// Empty bodies (wait, stats, get_metrics, closed, waited).
template <class IO, class M>
  requires std::is_empty_v<M>
void fields(IO&, M&) {}

/// u8 presence flag, then the value when present.
template <class IO, class M>
  requires instance_of<M, std::optional>
void fields(IO& io, M& o) {
  bool present = o.has_value();
  io.byte(present);
  if (!present) return;
  if constexpr (!std::is_const_v<M>) o.emplace();
  fields(io, *o);
}

/// Wire bytes of a default-constructed T at `version`: the least any
/// element of a counted sequence can occupy, which bounds a decoded
/// count. Per version, because version-gated tails (task reports)
/// change the size.
template <class T>
std::size_t min_wire_bytes(std::uint8_t version) {
  static const auto sizes = [] {
    std::array<std::size_t, wire_version + 1> n{};
    for (std::uint8_t v = wire_version_min; v <= wire_version; ++v) {
      std::vector<std::uint8_t> buf;
      writer w{buf, v};
      const T t{};
      fields(w, t);
      n[v] = buf.size();
    }
    return n;
  }();
  // The writer may stamp versions outside the window (tests framing
  // what the splitter must reject); it never uses the bound.
  return sizes[std::min(version, wire_version)];
}

/// u32 element count, then the elements.
template <class IO, class M>
  requires instance_of<M, std::vector>
void fields(IO& io, M& v) {
  using T = typename std::remove_const_t<M>::value_type;
  const std::size_t n = io.count(v.size(), min_wire_bytes<T>(io.version));
  if constexpr (!std::is_const_v<M>) v.resize(n);
  for (auto& e : v) fields(io, e);
}

template <class IO, class M>
  requires instance_of<M, std::pair>
void fields(IO& io, M& p) { fields(io, p.first, p.second); }

template <class IO, maybe_const<dram::bulk_op> M>
void fields(IO& io, M& op) {
  io.byte(op);
  io.require(op <= dram::bulk_op::xnor_op, "unknown bulk op");
}

template <class IO, maybe_const<dram::address> M>
void fields(IO& io, M& a) {
  fields(io, a.channel, a.rank, a.bank, a.row, a.column);
}

template <class IO, maybe_const<dram::bulk_vector> M>
void fields(IO& io, M& v) { fields(io, v.size, v.rows); }

template <class IO, maybe_const<service::shared_vector> M>
void fields(IO& io, M& sv) { fields(io, sv.owner, sv.v); }

template <class IO, maybe_const<runtime::task_report> M>
void fields(IO& io, M& r) {
  fields(io, r.id, r.stream);
  io.byte(r.kind);
  io.byte(r.where);
  fields(io, r.submit_ps, r.start_ps, r.complete_ps, r.output_bytes,
         r.channel, r.bank);
  if (io.version >= 3) {
    // v3: the live energy meter's per-task charge and moved-bytes
    // ledger ride the report, so remote sessions fold the same energy
    // attribution as in-process ones.
    fields(io, r.energy_fj, r.insitu_bytes, r.offchip_bytes, r.wire_bytes);
  }
  if (io.version >= 4) {
    // v4: wait-state attribution — the admit/release stamps that
    // split the old queue wait into admission/hazard/bank segments,
    // the release edge (blocking task + row) the critical-path
    // analyzer walks, and the wire-hop execution flag.
    fields(io, r.admit_ps, r.release_ps, r.blocked_on, r.blocked_row);
    io.byte(r.wire_hop);
  }
}

// --- message bodies ---------------------------------------------------------

template <class IO, maybe_const<open_session_req> M>
void fields(IO& io, M& m) { fields(io, m.weight); }

template <class IO, maybe_const<close_session_req> M>
void fields(IO& io, M& m) { fields(io, m.session); }

template <class IO, maybe_const<allocate_req> M>
void fields(IO& io, M& m) { fields(io, m.session, m.size, m.count); }

template <class IO, maybe_const<write_req> M>
void fields(IO& io, M& m) { fields(io, m.session, m.v, m.data); }

template <class IO, maybe_const<read_req> M>
void fields(IO& io, M& m) { fields(io, m.session, m.v); }

template <class IO, maybe_const<submit_req> M>
void fields(IO& io, M& m) { fields(io, m.session, m.op, m.a, m.b, m.d); }

template <class IO, maybe_const<submit_shared_req> M>
void fields(IO& io, M& m) { fields(io, m.issuer, m.op, m.a, m.b, m.d); }

template <class IO, maybe_const<service::bulk_step> M>
void fields(IO& io, M& s) { fields(io, s.op, s.a, s.b, s.d); }

template <class IO, maybe_const<submit_program_req> M>
void fields(IO& io, M& m) { fields(io, m.session, m.steps, m.outputs); }

template <class IO, maybe_const<hello_req> M>
void fields(IO& io, M& m) { fields(io, m.max_version); }

template <class IO, maybe_const<trace_ctl_req> M>
void fields(IO& io, M& m) {
  fields(io, m.action);
  io.require(m.action <= trace_ctl_req::clear, "unknown trace_ctl action");
  fields(io, m.path);
}

template <class IO, maybe_const<watch_stats_req> M>
void fields(IO& io, M& m) { fields(io, m.interval_ms, m.slow_threshold_ns); }

template <class IO, maybe_const<opened_resp> M>
void fields(IO& io, M& m) { fields(io, m.session, m.shard); }

template <class IO, maybe_const<vectors_resp> M>
void fields(IO& io, M& m) { fields(io, m.vectors); }

template <class IO, maybe_const<data_resp> M>
void fields(IO& io, M& m) { fields(io, m.data); }

template <class IO, maybe_const<done_resp> M>
void fields(IO& io, M& m) { fields(io, m.report); }

template <class IO, maybe_const<program_done_resp> M>
void fields(IO& io, M& m) { fields(io, m.reports, m.outputs); }

template <class IO, class M>
  requires maybe_const<M, stats_resp> || maybe_const<M, metrics_resp>
void fields(IO& io, M& m) { fields(io, m.json); }

template <class IO, maybe_const<error_resp> M>
void fields(IO& io, M& m) { fields(io, m.message); }

template <class IO, maybe_const<hello_resp> M>
void fields(IO& io, M& m) { fields(io, m.version); }

template <class IO, maybe_const<trace_ack_resp> M>
void fields(IO& io, M& m) { fields(io, m.events, m.json); }

template <class IO, maybe_const<stats_push_resp::hist_entry> M>
void fields(IO& io, M& h) { fields(io, h.name, h.count, h.p50, h.p95, h.p99); }

template <class IO, maybe_const<stats_push_resp> M>
void fields(IO& io, M& m) {
  fields(io, m.seq, m.last, m.counters, m.gauges, m.hists);
}

// --- opcode -> body decoder, from the message table -------------------------

using body_decoder = void (*)(reader&, net_message&);

template <std::size_t I>
void decode_as(reader& in, net_message& msg) {
  fields(in, msg.emplace<I>());
}

constexpr std::array<body_decoder, 256> body_decoders =
    []<std::size_t... I>(std::index_sequence<I...>) {
      std::array<body_decoder, 256> t{};
      ((t[static_cast<std::uint8_t>(message_table[I].op)] = &decode_as<I>),
       ...);
      return t;
    }(std::make_index_sequence<std::variant_size_v<net_message>>{});

}  // namespace

std::vector<std::uint8_t> encode_frame(std::uint64_t id,
                                       const net_message& msg,
                                       std::uint8_t version) {
  std::vector<std::uint8_t> out;
  out.reserve(256);  // header + any small body in one allocation
  writer w{out, version};
  w.scalar(wire_magic);
  w.scalar(std::uint32_t{0});  // length, patched below
  w.scalar(version);
  w.scalar(id);
  w.byte(opcode_of(msg));
  std::visit([&w](const auto& m) { fields(w, m); }, msg);
  const std::size_t payload = out.size() - 8;
  if (payload > max_frame_bytes) {
    throw protocol_error("frame exceeds max_frame_bytes");
  }
  store_le(out.data() + 4, static_cast<std::uint32_t>(payload));
  return out;
}

void frame_splitter::feed(const std::uint8_t* data, std::size_t size) {
  // Compact lazily: drop consumed prefix before appending so the
  // buffer stays bounded by one frame plus one socket read.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

std::optional<net_frame> frame_splitter::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 8) return std::nullopt;

  reader head{buf_.data() + pos_, 8, 0};
  std::uint32_t magic = 0, length = 0;
  head.scalar(magic);
  if (magic != wire_magic) throw protocol_error("bad magic");
  head.scalar(length);
  if (length > max_frame_bytes) throw protocol_error("oversized frame");
  // Every payload carries at least version + id + opcode.
  if (length < 10) throw protocol_error("runt frame");
  if (avail < 8 + static_cast<std::size_t>(length)) return std::nullopt;

  reader in{buf_.data() + pos_ + 8, length, 0};
  pos_ += 8 + length;

  in.scalar(in.version);
  if (in.version < wire_version_min || in.version > wire_version) {
    throw protocol_error("unsupported version");
  }
  net_frame frame;
  in.scalar(frame.id);
  last_id_ = frame.id;
  std::uint8_t op = 0;
  in.scalar(op);
  const body_decoder decode = body_decoders[op];
  if (decode == nullptr) throw protocol_error("unknown opcode");
  decode(in, frame.msg);
  if (in.pos != in.size) throw protocol_error("trailing bytes in frame");
  return frame;
}

}  // namespace pim::net
