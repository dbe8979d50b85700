// client_api: the transport-independent client surface of the PIM
// service.
//
// Two implementations exist: service_client (in-process — calls
// straight into a pim_service living in the same address space) and
// net::remote_client (out-of-process — the same calls serialized over
// the wire protocol to a pim_server). Application code, the examples,
// and the synthetic fleets program against this interface, so the same
// workload runs unchanged over either transport — which is also how
// the loopback equivalence tests prove the wire path bit-identical to
// the in-process path.
//
// Semantics every implementation honors:
//  - one client = one session = one runtime stream;
//  - allocate/write/read block; submit_* returns a request_future that
//    completes out of order as the shard's simulated clock advances
//    (submit_program's base implementation excepted: it blocks);
//  - a client instance is driven by a single thread (many clients on
//    many threads is the supported concurrency model);
//  - digest() waits out pending work and hashes every vector the
//    client allocated, in allocation order — the bit-for-bit
//    equivalence check across transports, shard counts, and migration.
#ifndef PIM_SERVICE_CLIENT_API_H
#define PIM_SERVICE_CLIENT_API_H

#include "service/request.h"

namespace pim::service {

class client_api {
 public:
  virtual ~client_api() = default;

  /// The session this client opened.
  virtual session_id id() const = 0;

  /// The session's current shard (migration moves it); remote clients
  /// report the shard at open time.
  virtual int shard_index() const = 0;

  /// Allocates `count` co-located bulk vectors of `size` bits. Blocks.
  /// The client remembers every vector it allocated, in order, for
  /// digest().
  virtual std::vector<dram::bulk_vector> allocate(bits size, int count) = 0;

  /// Host data movement (blocking).
  virtual void write(const dram::bulk_vector& v, const bitvector& data) = 0;
  virtual bitvector read(const dram::bulk_vector& v) = 0;

  /// Submits one bulk Boolean op: d = op(a[, b]); b is null for unary
  /// ops. Blocks only under admission backpressure.
  virtual request_future submit_bulk(dram::bulk_op op,
                                     const dram::bulk_vector& a,
                                     const dram::bulk_vector* b,
                                     const dram::bulk_vector& d) = 0;

  /// Bulk op over shared vectors, possibly spanning sessions and
  /// shards: d = op(a[, b]).
  virtual request_future submit_shared(dram::bulk_op op,
                                       const shared_vector& a,
                                       const shared_vector* b,
                                       const shared_vector& d) = 0;

  /// Pushes a whole program of bulk ops down as one request: the
  /// steps run in program order (the row-hazard graph orders the ones
  /// that conflict), and the one future resolves with every step's
  /// task report, in step order, plus the bits of each `outputs`
  /// vector as the program left them. Each output must be an operand
  /// of some step; an empty program or an untouched output throws
  /// std::invalid_argument. The first failing step fails the future.
  ///
  /// This base implementation sends the steps one by one through
  /// submit_bulk, waits for them, reads the outputs and returns a
  /// resolved future — it blocks. The transports override it with a
  /// single request the shard expands itself.
  virtual request_future submit_program(std::vector<bulk_step> steps,
                                        std::vector<dram::bulk_vector> outputs);

  /// Blocks until every future this client received has completed;
  /// rethrows the first failure.
  virtual void wait_all() = 0;

  /// Digest of every vector this client allocated (in allocation
  /// order), after waiting out pending work.
  virtual std::uint64_t digest() = 0;

  /// Publishes a vector this client owns for cross-session use.
  shared_vector share(const dram::bulk_vector& v) const { return {id(), v}; }
};

}  // namespace pim::service

#endif  // PIM_SERVICE_CLIENT_API_H
