// Query executor: runs a lowered plan on a pim_table, all partitions
// concurrently.
//
// The calling thread maps the plan's registers onto each partition's
// slice/scratch vectors and pushes the partition's whole step list
// down as one program (client_api::submit_program) — one request per
// partition, so a query saturates every shard's banks at once while
// the runtime's hazard graph keeps program order where rows actually
// conflict. Each program's result carries the selection and aggregate
// masks, captured on the shard as their last step completes; the host
// reduces them (popcount), exactly the paper's split: bulk bitwise
// work in DRAM, the final tally over the channel.
//
// The optional combine step gathers every partition's selection into
// result slots owned by a single collector session via submit_shared:
// an OR-reduction into zeroed slots that rides the service's
// two-phase cross-shard planner (RowClone-priced staging, compute on
// the chosen shard, priced write-back). The collector's digest() is
// then a one-session, transport-independent fingerprint of the whole
// query result — the equivalence the tests pin across shard counts
// and transports.
#ifndef PIM_QUERY_EXEC_H
#define PIM_QUERY_EXEC_H

#include "common/digest.h"
#include "obs/profile.h"
#include "query/plan.h"
#include "query/table.h"

namespace pim::query {

/// Reusable cross-shard combine state: per-partition result slots on
/// one collector session, allocated on first use and reused across
/// queries (client sessions cannot free vectors, so per-query
/// allocation would leak shard capacity).
class selection_gatherer {
 public:
  /// `collector` must outlive the gatherer and follow the client_api
  /// single-thread contract (execute() drives it from the calling
  /// thread).
  explicit selection_gatherer(service::client_api& collector)
      : collector_(&collector) {}

  service::client_api& collector() { return *collector_; }

  /// Digest of the gathered slots (the collector session's vectors in
  /// allocation order) — identical across shard counts and transports
  /// for the same table contents and plan.
  std::uint64_t digest() { return collector_->digest(); }

 private:
  friend struct executor;
  service::client_api* collector_;
  std::vector<dram::bulk_vector> slots_;
  std::vector<bits> slot_sizes_;
};

struct exec_options {
  /// Non-null: OR-reduce per-partition selections into the gatherer's
  /// collector slots via submit_shared after the scan completes.
  selection_gatherer* gather = nullptr;
  /// Fold every step's task report into query_result::samples (one
  /// profiler sample per executed step, op = plan-step index, sub =
  /// partition, group = the partition's home shard). This is
  /// explain_analyze's data feed; the reports come back in each
  /// program's result, so it works identically over in-process and
  /// remote transports.
  bool collect_samples = false;
};

struct query_result {
  std::size_t rows = 0;     // rows scanned
  std::size_t matches = 0;  // popcount of the selection
  std::uint64_t sum = 0;    // sum aggregate (0 unless agg == sum)
  /// Whole-table selection, partition results concatenated in row
  /// order — bit-identical to the synchronous db::evaluate reference.
  bitvector selection;
  /// FNV-1a over `selection` (the cross-variant equivalence check).
  std::uint64_t digest = 0;
  /// Collector-side digest of the gathered slots (gather only).
  std::uint64_t gathered_digest = 0;
  /// Bulk ops executed across all partitions (plan steps times
  /// partitions).
  std::uint64_t ops_submitted = 0;
  /// Per-step profiler samples (collect_samples only), ordered by
  /// (partition, step) — the input to obs::fold_samples.
  std::vector<obs::sim_op_sample> samples;
};

/// Executes `plan` over `table`, one program per partition. Throws
/// when the plan needs more scratch vectors than the table allocated,
/// or on any partition failure (first error rethrown after every
/// partition's program has been waited out).
query_result execute(pim_table& table, const query_plan& plan,
                     const exec_options& opts = {});

/// Convenience: plan + execute in one call.
query_result run_query(pim_table& table, const query_spec& spec,
                       const exec_options& opts = {});

}  // namespace pim::query

#endif  // PIM_QUERY_EXEC_H
