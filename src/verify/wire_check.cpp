#include "verify/wire_check.h"

#include <map>
#include <string>

#include "net/protocol.h"

namespace pim::verify {

namespace {

constexpr std::uint8_t raw(net::opcode op) {
  return static_cast<std::uint8_t>(op);
}

}  // namespace

wire_schema_info canonical_wire_schema() {
  wire_schema_info s;
  s.version_min = net::wire_version_min;
  s.version_max = net::wire_version;
  s.error_opcode = raw(net::opcode::error);
  // Every message is still spoken at the current version.
  for (const net::message_info& m : net::message_table) {
    s.opcodes.push_back({raw(m.op), m.name, m.request,
                         m.request ? raw(m.response) : std::uint8_t{0},
                         m.since, net::wire_version});
  }
  return s;
}

report check_wire_schema(const wire_schema_info& schema) {
  report r;
  r.artifact = "wire_schema";

  std::map<std::uint8_t, const opcode_info*> by_value;
  for (std::size_t i = 0; i < schema.opcodes.size(); ++i) {
    const opcode_info& op = schema.opcodes[i];
    const int loc = static_cast<int>(i);

    if (op.request ? op.value >= 64 : op.value < 64) {
      r.add(diag::opcode_range, loc,
            std::string(op.name) + " (" + std::to_string(op.value) + ") is a " +
                (op.request ? "request >= 64" : "response < 64"));
    }
    const auto [it, inserted] = by_value.emplace(op.value, &op);
    if (!inserted) {
      r.add(diag::duplicate_opcode, loc,
            std::string(op.name) + " reuses opcode " +
                std::to_string(op.value) + " of " + it->second->name);
    }
    if (op.min_version > op.max_version ||
        op.min_version < schema.version_min ||
        op.max_version > schema.version_max) {
      r.add(diag::version_bounds, loc,
            std::string(op.name) + " spans versions [" +
                std::to_string(op.min_version) + ", " +
                std::to_string(op.max_version) + "], wire window is [" +
                std::to_string(schema.version_min) + ", " +
                std::to_string(schema.version_max) + "]");
    }
  }

  // Every request needs a response arm that exists, is a response, and
  // is live across the request's whole version window; and the error
  // response any request can be answered with must itself exist.
  const auto error_it = by_value.find(schema.error_opcode);
  if (error_it == by_value.end() || error_it->second->request) {
    r.add(diag::missing_response_arm, -1,
          "error response opcode " + std::to_string(schema.error_opcode) +
              " is not a response in the schema");
  }
  for (std::size_t i = 0; i < schema.opcodes.size(); ++i) {
    const opcode_info& op = schema.opcodes[i];
    if (!op.request) continue;
    const int loc = static_cast<int>(i);
    const auto it = by_value.find(op.response);
    if (it == by_value.end() || it->second->request ||
        it->second == &op) {
      r.add(diag::missing_response_arm, loc,
            std::string(op.name) + " names response opcode " +
                std::to_string(op.response) + ", which is not a response");
      continue;
    }
    const opcode_info& resp = *it->second;
    if (resp.min_version > op.min_version ||
        resp.max_version < op.max_version) {
      r.add(diag::missing_response_arm, loc,
            std::string(op.name) + " exists in versions [" +
                std::to_string(op.min_version) + ", " +
                std::to_string(op.max_version) + "] but its response " +
                resp.name + " only in [" + std::to_string(resp.min_version) +
                ", " + std::to_string(resp.max_version) + "]");
    }
  }

  return r;
}

}  // namespace pim::verify
