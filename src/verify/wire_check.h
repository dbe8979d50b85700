// Static checker for the wire opcode/response table (V3xx block).
//
// net/protocol.h defines the message set once, as the PIM_NET_MESSAGES
// table that also generates the opcode enum, the net_message variant
// and the decoder's dispatch. What no type system enforces is that the
// table is closed and consistent: every request opcode has a response
// arm, request and response values stay in their ranges (below/above
// 64), no value is assigned twice, and each opcode's version window
// fits inside the protocol's [wire_version_min, wire_version] span.
// canonical_wire_schema() is that table read back as data, so it cannot
// drift from the protocol; check_wire_schema validates any schema —
// the canonical one in CI and pim_lint, seeded-bad copies in the
// mutation self-test.
#ifndef PIM_VERIFY_WIRE_CHECK_H
#define PIM_VERIFY_WIRE_CHECK_H

#include <cstdint>
#include <vector>

#include "verify/diagnostics.h"

namespace pim::verify {

/// One opcode of the wire schema. For requests, `response` names the
/// success-response opcode (any request may also be answered by the
/// error response). min/max_version bound the protocol versions the
/// opcode exists in.
struct opcode_info {
  std::uint8_t value = 0;
  const char* name = "";
  bool request = false;
  std::uint8_t response = 0;  // requests only
  std::uint8_t min_version = 1;
  std::uint8_t max_version = 1;
};

struct wire_schema_info {
  std::uint8_t version_min = 1;  // oldest version still parseable
  std::uint8_t version_max = 1;  // highest version this build speaks
  /// Opcode of the error response that may answer any request.
  std::uint8_t error_opcode = 0;
  std::vector<opcode_info> opcodes;
};

/// The real protocol's schema, read from net::message_table.
wire_schema_info canonical_wire_schema();

/// V301 opcode-range, V302 duplicate-opcode, V303 missing-response-arm,
/// V304 version-bounds.
report check_wire_schema(const wire_schema_info& schema);

}  // namespace pim::verify

#endif  // PIM_VERIFY_WIRE_CHECK_H
