#include "query/exec.h"

#include <exception>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pim::query {

namespace {

/// The profiler sample of one executed step: op = plan-step index,
/// sub = partition, group = the partition's home shard.
obs::sim_op_sample sample_of(const runtime::task_report& r, int group,
                             int step, int partition) {
  obs::sim_op_sample sample;
  sample.group = group;
  sample.id = r.id;
  sample.op = step;
  sample.sub = partition;
  sample.backend = static_cast<int>(r.where);
  sample.channel = r.channel;
  sample.bank = r.bank;
  sample.output_bytes = r.output_bytes;
  sample.admit_ps = r.admit_ps;
  sample.submit_ps = r.submit_ps;
  sample.release_ps = r.release_ps;
  sample.start_ps = r.start_ps;
  sample.complete_ps = r.complete_ps;
  sample.blocked_on = r.blocked_on;
  sample.blocked_row = r.blocked_row;
  sample.wire_hop = r.wire_hop;
  sample.energy_fj = r.energy_fj;
  sample.insitu_bytes = r.insitu_bytes;
  sample.offchip_bytes = r.offchip_bytes;
  sample.wire_bytes = r.wire_bytes;
  return sample;
}

}  // namespace

struct executor {
  static void gather(pim_table& table, const query_plan& plan,
                     selection_gatherer& g, query_result& result) {
    service::client_api& collector = *g.collector_;
    // Lazily allocate one result slot per partition, sized to match;
    // reject reuse against a different table shape (sessions cannot
    // free vectors, so the slots cannot be re-sized).
    if (g.slots_.empty()) {
      for (int p = 0; p < table.partitions(); ++p) {
        const bits size = table.partition_rows(p);
        const auto slot = collector.allocate(size, 1);
        g.slots_.push_back(slot.at(0));
        g.slot_sizes_.push_back(size);
      }
    }
    if (g.slot_sizes_.size() != static_cast<std::size_t>(table.partitions())) {
      throw std::invalid_argument(
          "selection_gatherer: bound to a different table shape");
    }
    for (int p = 0; p < table.partitions(); ++p) {
      if (g.slot_sizes_[static_cast<std::size_t>(p)] !=
          table.partition_rows(p)) {
        throw std::invalid_argument(
            "selection_gatherer: bound to a different table shape");
      }
    }

    // OR-reduce each partition's selection into its zeroed slot. The
    // operands span sessions (partition -> collector), so each step
    // runs the service's two-phase cross-shard plan; the export read
    // is hazard-ordered behind the partition's compute, so no explicit
    // barrier is needed.
    for (int p = 0; p < table.partitions(); ++p) {
      const auto& slot = g.slots_[static_cast<std::size_t>(p)];
      collector.write(slot, bitvector(table.partition_rows(p), false));
    }
    for (int p = 0; p < table.partitions(); ++p) {
      const auto& slot = g.slots_[static_cast<std::size_t>(p)];
      const service::shared_vector sel =
          table.session(p).share(reg_of(table, plan, p, plan.selection));
      const service::shared_vector dst = collector.share(slot);
      collector.submit_shared(dram::bulk_op::or_op, sel, &dst, dst);
    }
    collector.wait_all();
    result.gathered_digest = collector.digest();
  }

  static const dram::bulk_vector& reg_of(pim_table& table,
                                         const query_plan& plan, int p,
                                         int r) {
    if (r < plan.input_count()) {
      const slice_ref& in = plan.inputs[static_cast<std::size_t>(r)];
      return table.slice(p, in.column, in.bit);
    }
    return table.scratch(p, r - plan.input_count());
  }
};

query_result execute(pim_table& table, const query_plan& plan,
                     const exec_options& opts) {
  if (plan.selection < 0) {
    throw std::invalid_argument("execute: plan has no selection register");
  }
  if (plan.scratch_count > table.scratch_vectors()) {
    throw std::invalid_argument(
        "execute: plan needs " + std::to_string(plan.scratch_count) +
        " scratch vectors, table allocated " +
        std::to_string(table.scratch_vectors()));
  }
  for (const slice_ref& in : plan.inputs) {
    // Resolve once against partition 0 to fail fast on a plan built
    // for a different schema.
    (void)table.slice(0, in.column, in.bit);
  }

  // One program per partition, pushed down from this thread: each
  // partition's session gets the whole lowered step list as a single
  // request, so all partitions' shards run their programs at once.
  // The outputs (selection, then the sum masks) come back captured in
  // the program's result — no read-back round trip.
  const auto parts = static_cast<std::size_t>(table.partitions());
  std::vector<service::request_future> futures(parts);
  std::exception_ptr first_error;
  {
    obs::span submit_span("submit_programs", "query");
    for (int p = 0; p < table.partitions(); ++p) {
      auto reg = [&](int r) -> const dram::bulk_vector& {
        return executor::reg_of(table, plan, p, r);
      };
      std::vector<service::bulk_step> steps(plan.steps.size());
      for (std::size_t s = 0; s < plan.steps.size(); ++s) {
        const plan_step& step = plan.steps[s];
        steps[s].op = step.op;
        steps[s].a = reg(step.a);
        if (step.b >= 0) steps[s].b = reg(step.b);
        steps[s].d = reg(step.d);
      }
      std::vector<dram::bulk_vector> outputs{reg(plan.selection)};
      for (const int r : plan.sum_regs) outputs.push_back(reg(r));
      try {
        futures[static_cast<std::size_t>(p)] =
            table.session(p).submit_program(std::move(steps),
                                            std::move(outputs));
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
  }
  {
    // wait_all also retires each client's future bookkeeping. Every
    // partition is waited out before the first failure surfaces.
    obs::span wait_span("wait_all", "query");
    for (int p = 0; p < table.partitions(); ++p) {
      try {
        table.session(p).wait_all();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  query_result result;
  result.rows = table.rows();
  result.selection.resize(table.rows());
  for (int p = 0; p < table.partitions(); ++p) {
    const service::request_result& done =
        futures[static_cast<std::size_t>(p)].get();
    const bitvector& selection = done.outputs.at(0);
    result.selection.copy_bits(table.partition_base(p), selection, 0,
                               selection.size());
    result.ops_submitted += done.reports.size();
    for (std::size_t b = 0; b < plan.sum_regs.size(); ++b) {
      result.sum +=
          static_cast<std::uint64_t>(done.outputs.at(b + 1).popcount()) << b;
    }
    if (opts.collect_samples) {
      // The reports' sim timestamps and (channel, bank) lane crossed
      // the wire for remote sessions, so the samples are
      // transport-independent.
      const int group = table.session(p).shard_index();
      for (std::size_t s = 0; s < done.reports.size(); ++s) {
        result.samples.push_back(
            sample_of(done.reports[s], group, static_cast<int>(s), p));
      }
    }
  }
  result.matches = result.selection.popcount();
  result.digest = fnv1a(fnv1a_basis, result.selection);
  obs::metrics_registry::instance()
      .counter("query.ops_submitted")
      .fetch_add(result.ops_submitted, std::memory_order_relaxed);
  obs::metrics_registry::instance()
      .counter("query.executed")
      .fetch_add(1, std::memory_order_relaxed);

  if (opts.gather != nullptr) {
    executor::gather(table, plan, *opts.gather, result);
  }
  return result;
}

query_result run_query(pim_table& table, const query_spec& spec,
                       const exec_options& opts) {
  return execute(table, plan_query(table.schema(), spec), opts);
}

}  // namespace pim::query
