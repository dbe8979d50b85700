// Tests for the asynchronous batched PIM runtime: task futures and
// reports, hazard-ordered scheduling, equivalence of batched and
// synchronous execution, offload-aware dispatch, and the multi-tenant
// workload driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/digest.h"
#include "core/pim_system.h"
#include "runtime/workload.h"

namespace pim::runtime {
namespace {

core::pim_system_config small_config() {
  core::pim_system_config cfg;
  cfg.org.channels = 1;
  cfg.org.ranks = 1;
  cfg.org.banks = 4;
  cfg.org.subarrays = 4;
  cfg.org.rows = 256;
  cfg.org.columns = 8;
  return cfg;
}

// ---------------------------------------------------------------------------
// Futures and reports
// ---------------------------------------------------------------------------

TEST(TaskFutureTest, EmptyFutureThrows) {
  task_future f;
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f.ready());
  EXPECT_THROW(f.report(), std::logic_error);
}

TEST(TaskFutureTest, ReportBeforeCompletionThrows) {
  core::pim_system sys(small_config());
  auto vecs = sys.allocate(1'000, 3);
  task_future f =
      sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
  ASSERT_TRUE(f.valid());
  EXPECT_FALSE(f.ready());
  EXPECT_THROW(f.report(), std::logic_error);
  sys.wait(f);
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.report().where, backend_kind::ambit);
}

TEST(TaskReportTest, ThroughputGuardsZeroLatency) {
  task_report r;
  r.output_bytes = 4096;
  r.submit_ps = 1000;
  r.complete_ps = 1000;  // zero-latency completion
  EXPECT_EQ(r.latency(), 0);
  EXPECT_EQ(r.throughput_gbps(), 0.0);

  r.complete_ps = 2000;
  EXPECT_GT(r.throughput_gbps(), 0.0);
}

TEST(TaskReportTest, TimestampsAreOrdered) {
  core::pim_system sys(small_config());
  auto vecs = sys.allocate(1'000, 3);
  task_future f =
      sys.submit_bulk(dram::bulk_op::or_op, vecs[0], &vecs[1], vecs[2]);
  sys.wait(f);
  const task_report& r = f.report();
  EXPECT_LE(r.submit_ps, r.start_ps);
  EXPECT_LT(r.start_ps, r.complete_ps);
  EXPECT_GT(r.throughput_gbps(), 0.0);
}

// ---------------------------------------------------------------------------
// Batched execution: correctness and hazard ordering
// ---------------------------------------------------------------------------

TEST(SchedulerTest, BatchedMatchesSynchronousBitForBit) {
  const bits size = 5'000;
  rng gen(42);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  const bitvector c = bitvector::random(size, gen);

  // Synchronous reference.
  core::pim_system sync_sys(small_config());
  auto sv = sync_sys.allocate(size, 5);
  sync_sys.write(sv[0], a);
  sync_sys.write(sv[1], b);
  sync_sys.write(sv[2], c);
  sync_sys.execute(dram::bulk_op::and_op, sv[0], &sv[1], sv[3]);
  sync_sys.execute(dram::bulk_op::xor_op, sv[3], &sv[2], sv[4]);
  sync_sys.execute(dram::bulk_op::nor_op, sv[4], &sv[0], sv[3]);

  // Same chain, submitted all at once.
  core::pim_system batched_sys(small_config());
  auto bv = batched_sys.allocate(size, 5);
  batched_sys.write(bv[0], a);
  batched_sys.write(bv[1], b);
  batched_sys.write(bv[2], c);
  batched_sys.submit_bulk(dram::bulk_op::and_op, bv[0], &bv[1], bv[3]);
  batched_sys.submit_bulk(dram::bulk_op::xor_op, bv[3], &bv[2], bv[4]);
  batched_sys.submit_bulk(dram::bulk_op::nor_op, bv[4], &bv[0], bv[3]);
  batched_sys.wait_all();

  EXPECT_EQ(batched_sys.read(bv[3]), sync_sys.read(sv[3]));
  EXPECT_EQ(batched_sys.read(bv[4]), sync_sys.read(sv[4]));
  // And against the functional model directly.
  EXPECT_EQ(batched_sys.read(bv[4]), (a & b) ^ c);
}

TEST(SchedulerTest, DependentTasksCompleteInOrder) {
  core::pim_system sys(small_config());
  const bits size = 2'000;
  auto vecs = sys.allocate(size, 4);
  rng gen(3);
  sys.write(vecs[0], bitvector::random(size, gen));
  sys.write(vecs[1], bitvector::random(size, gen));

  // t1 writes d; t2 reads d (RAW); t3 overwrites d's source (WAR).
  task_future t1 =
      sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
  task_future t2 =
      sys.submit_bulk(dram::bulk_op::or_op, vecs[2], &vecs[1], vecs[3]);
  task_future t3 =
      sys.submit_bulk(dram::bulk_op::not_op, vecs[1], nullptr, vecs[2]);
  sys.wait_all();

  EXPECT_LE(t1.report().complete_ps, t2.report().start_ps);
  EXPECT_LE(t2.report().complete_ps, t3.report().start_ps);
  EXPECT_GE(sys.runtime().stats().sched.hazard_deferred, 2u);
}

TEST(SchedulerTest, HazardChainProducesCorrectResults) {
  core::pim_system sys(small_config());
  const bits size = 3'000;
  auto vecs = sys.allocate(size, 4);
  rng gen(9);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  sys.write(vecs[0], a);
  sys.write(vecs[1], b);

  sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
  sys.submit_bulk(dram::bulk_op::or_op, vecs[2], &vecs[0], vecs[3]);
  // WAR: overwrite vecs[2] after the read above.
  sys.submit_bulk(dram::bulk_op::xor_op, vecs[0], &vecs[1], vecs[2]);
  // In-place: vecs[3] |= vecs[2].
  sys.submit_bulk(dram::bulk_op::or_op, vecs[3], &vecs[2], vecs[3]);
  sys.wait_all();

  EXPECT_EQ(sys.read(vecs[2]), a ^ b);
  EXPECT_EQ(sys.read(vecs[3]), ((a & b) | a) | (a ^ b));
}

TEST(SchedulerTest, IndependentOpsOverlapAcrossBanks) {
  // Eight independent ops on different banks: batched wall-clock must
  // beat drain-per-op, and the bank-parallelism stats must see it.
  const int ops = 8;
  core::pim_system_config cfg = small_config();
  cfg.org.banks = 8;

  core::pim_system sync_sys(cfg);
  const bits size = cfg.org.row_bits();
  picoseconds sync_ps = 0;
  for (int i = 0; i < ops; ++i) {
    auto g = sync_sys.allocate(size, 3);
    sync_ps += sync_sys.execute(dram::bulk_op::xor_op, g[0], &g[1], g[2])
                   .latency;
  }

  core::pim_system batched_sys(cfg);
  std::vector<std::vector<dram::bulk_vector>> groups;
  for (int i = 0; i < ops; ++i) groups.push_back(batched_sys.allocate(size, 3));
  const picoseconds start = batched_sys.memory().now_ps();
  for (const auto& g : groups) {
    batched_sys.submit_bulk(dram::bulk_op::xor_op, g[0], &g[1], g[2]);
  }
  batched_sys.wait_all();
  const picoseconds batched_ps = batched_sys.memory().now_ps() - start;

  EXPECT_LT(batched_ps, sync_ps / 2);  // at least 2x from overlap
  EXPECT_GT(batched_sys.runtime().stats().sched.peak_busy_banks, 1);
}

TEST(SchedulerTest, RowCloneAndMemsetTasks) {
  core::pim_system sys(small_config());
  const bits size = sys.org().row_bits();
  auto vecs = sys.allocate(size, 2);
  rng gen(5);
  const bitvector data = bitvector::random(size, gen);
  sys.write(vecs[0], data);

  pim_task copy;
  copy.payload = row_copy_args{vecs[0].rows[0], vecs[1].rows[0], true};
  task_future f1 = sys.submit(std::move(copy));

  pim_task set;
  set.payload = row_memset_args{vecs[0].rows[0], true};
  task_future f2 = sys.submit(std::move(set));  // WAR on the copy source
  sys.wait_all();

  EXPECT_EQ(sys.read(vecs[1]), data);
  EXPECT_TRUE(sys.read(vecs[0]).all());
  EXPECT_EQ(f1.report().where, backend_kind::rowclone);
  EXPECT_LE(f1.report().complete_ps, f2.report().start_ps);
}

TEST(SchedulerTest, WaitOnEmptyFutureThrows) {
  core::pim_system sys(small_config());
  task_future empty;
  EXPECT_THROW(sys.wait(empty), std::invalid_argument);
}

TEST(SchedulerTest, InvalidTaskRejectedWithoutCorruptingState) {
  core::pim_system sys(small_config());
  const bits size = 1'000;
  auto vecs = sys.allocate(size, 3);

  // A row_copy task forced onto the Ambit backend is rejected at
  // submit time...
  pim_task bad;
  bad.payload = row_copy_args{vecs[0].rows[0], vecs[1].rows[0], true};
  bad.forced_backend = backend_kind::ambit;
  EXPECT_THROW(sys.submit(std::move(bad)), std::invalid_argument);
  // ...as is an FPM copy whose rows live in different banks...
  dram::address other = vecs[0].rows[0];
  other.bank = (other.bank + 1) % sys.org().banks;
  pim_task cross;
  cross.payload = row_copy_args{vecs[0].rows[0], other, true};
  EXPECT_THROW(sys.submit(std::move(cross)), std::invalid_argument);

  // ...as is an empty bulk vector, whose zero command sequences would
  // otherwise never resolve the future...
  dram::bulk_vector empty;
  pim_task hollow;
  hollow.payload = bulk_bool_args{dram::bulk_op::not_op, empty, {}, empty};
  EXPECT_THROW(sys.submit(std::move(hollow)), std::invalid_argument);

  // ...and none of them leaves state behind: the rejected tasks' rows are
  // not registered as hazards, so later tasks run normally.
  EXPECT_EQ(sys.runtime().stats().sched.submitted, 0u);
  rng gen(21);
  const bitvector a = bitvector::random(size, gen);
  sys.write(vecs[0], a);
  task_future ok =
      sys.submit_bulk(dram::bulk_op::not_op, vecs[0], nullptr, vecs[2]);
  sys.wait(ok);
  EXPECT_EQ(sys.read(vecs[2]), ~a);
  EXPECT_TRUE(sys.runtime().idle());
}

TEST(SchedulerTest, RowInFlightMatchesScanOfIncompleteTasks) {
  // row_in_flight answers from the hazard tables alone; the reference
  // scans every submitted, not yet complete task. Back-to-back submits
  // over a few shared rows hit RAW, WAW and WAR — including writers
  // that clear a reader from the table while that reader still runs.
  core::pim_system sys(small_config());
  scheduler& sched = sys.runtime().sched();
  const dram::memory_system& mem = sys.memory();
  std::vector<std::vector<dram::bulk_vector>> groups;
  for (int g = 0; g < 2; ++g) {
    groups.push_back(sys.allocate(2 * sys.org().row_bits(), 4));
  }
  std::vector<std::uint64_t> keys;
  for (const auto& group : groups) {
    for (const dram::bulk_vector& v : group) {
      for (const dram::address& a : v.rows) keys.push_back(mem.row_key(a));
    }
  }

  struct tracked {
    task_future future;
    std::vector<std::uint64_t> reads, writes;
  };
  auto touches = [](const std::vector<std::uint64_t>& rows,
                    std::uint64_t key) {
    return std::find(rows.begin(), rows.end(), key) != rows.end();
  };
  std::vector<tracked> incomplete;
  int mismatches = 0;
  auto check = [&] {
    std::erase_if(incomplete,
                  [](const tracked& t) { return t.future.ready(); });
    for (std::uint64_t key : keys) {
      const bool expected =
          std::any_of(incomplete.begin(), incomplete.end(),
                      [&](const tracked& t) {
                        return touches(t.reads, key) ||
                               touches(t.writes, key);
                      });
      if (sched.row_in_flight(key) != expected) ++mismatches;
    }
  };

  rng gen(47);
  int raw = 0, waw = 0, war = 0;
  const dram::bulk_op ops[] = {dram::bulk_op::and_op, dram::bulk_op::or_op,
                               dram::bulk_op::xor_op, dram::bulk_op::not_op};
  for (int i = 0; i < 80; ++i) {
    const auto& group = groups[gen.next_below(groups.size())];
    auto pick = [&]() -> const dram::bulk_vector& {
      return group[gen.next_below(group.size())];
    };
    pim_task task;
    tracked t;
    if (gen.next_below(5) == 0) {
      const dram::address& dst = pick().rows[gen.next_below(2)];
      task.payload = row_memset_args{dst, gen.next_below(2) == 0};
      t.writes.push_back(mem.row_key(dst));
    } else {
      const dram::bulk_op op = ops[gen.next_below(std::size(ops))];
      const dram::bulk_vector& a = pick();
      std::optional<dram::bulk_vector> b;
      if (op != dram::bulk_op::not_op) b = pick();
      const dram::bulk_vector& d = pick();
      for (const dram::address& r : a.rows) t.reads.push_back(mem.row_key(r));
      if (b) {
        for (const dram::address& r : b->rows) {
          t.reads.push_back(mem.row_key(r));
        }
      }
      for (const dram::address& r : d.rows) t.writes.push_back(mem.row_key(r));
      task.payload = bulk_bool_args{op, a, b, d};
    }
    for (const tracked& prior : incomplete) {
      for (std::uint64_t key : t.reads) raw += touches(prior.writes, key);
      for (std::uint64_t key : t.writes) {
        waw += touches(prior.writes, key);
        war += touches(prior.reads, key);
      }
    }
    t.future = sys.submit(std::move(task));
    incomplete.push_back(std::move(t));
    check();
    // A few ticks between some submits, so tasks complete mid-stream.
    for (std::uint64_t k = gen.next_below(4); k > 0; --k) {
      sched.tick();
      check();
    }
  }
  for (int ticks = 0; !sched.idle() && ticks < 10'000'000; ++ticks) {
    sched.tick();
    check();
  }
  EXPECT_TRUE(sched.idle());
  EXPECT_TRUE(incomplete.empty());
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(raw, 0);
  EXPECT_GT(waw, 0);
  EXPECT_GT(war, 0);
  for (std::uint64_t key : keys) EXPECT_FALSE(sched.row_in_flight(key));
}

// ---------------------------------------------------------------------------
// Stream weights (fair share)
// ---------------------------------------------------------------------------

// Submits `count` host kernels on `stream`; they all queue on the
// single-slot host pool, so pop order is directly observable through
// completion times.
std::vector<task_future> submit_host_kernels(core::pim_system& sys,
                                             int stream, int count) {
  std::vector<task_future> futures;
  for (int i = 0; i < count; ++i) {
    core::kernel_profile p;
    p.name = "stress";
    p.instructions = 1'000'000;
    p.memory_traffic = 1 * mib;
    p.host_cache_hit = 0.5;
    pim_task t;
    t.payload = host_kernel_args{p};
    t.stream = stream;
    t.forced_backend = backend_kind::host;
    futures.push_back(sys.submit(std::move(t)));
  }
  return futures;
}

TEST(StreamWeightTest, DefaultRemainsFifo) {
  core::pim_system sys(small_config());
  // Stream 0 queues its whole batch first; without weights the pops
  // are strictly FIFO, so all of stream 0 completes before any of
  // stream 1.
  auto first = submit_host_kernels(sys, 0, 6);
  auto second = submit_host_kernels(sys, 1, 6);
  sys.wait_all();
  EXPECT_LE(first.back().report().complete_ps,
            second.front().report().complete_ps);
}

TEST(StreamWeightTest, WeightedStreamsInterleaveInsteadOfStarving) {
  core::pim_system sys(small_config());
  sys.runtime().set_stream_weight(0, 1.0);
  sys.runtime().set_stream_weight(1, 1.0);
  // Same submission order as the FIFO test: stream 0's backlog first.
  auto first = submit_host_kernels(sys, 0, 6);
  auto second = submit_host_kernels(sys, 1, 6);
  sys.wait_all();
  // Equal weights alternate pops, so stream 1's first task completes
  // well before stream 0's backlog drains — no starvation behind the
  // earlier-arriving queue.
  EXPECT_LT(second.front().report().complete_ps,
            first.back().report().complete_ps);
  // And proportionality: stream 1 finishes its 6 within the window in
  // which stream 0 also finishes about 6 (not all 6 after stream 0's
  // entire backlog, as FIFO would).
  const picoseconds second_last = second.back().report().complete_ps;
  int first_done_before = 0;
  for (const task_future& f : first) {
    if (f.report().complete_ps <= second_last) ++first_done_before;
  }
  EXPECT_LE(first_done_before, 6);
}

TEST(StreamWeightTest, HeavierWeightGetsProportionallyMoreService) {
  core::pim_system sys(small_config());
  sys.runtime().set_stream_weight(0, 1.0);
  sys.runtime().set_stream_weight(1, 4.0);
  auto light = submit_host_kernels(sys, 0, 8);
  auto heavy = submit_host_kernels(sys, 1, 8);
  sys.wait_all();
  // Weight 4 vs 1: the heavy stream drains roughly 4x as fast, so its
  // last completion precedes the light stream's.
  EXPECT_LT(heavy.back().report().complete_ps,
            light.back().report().complete_ps);
  // Starvation avoidance: the light stream still progresses while the
  // heavy backlog exists (its first task is not deferred to the end).
  EXPECT_LT(light.front().report().complete_ps,
            heavy.back().report().complete_ps);
}

TEST(StreamWeightTest, LateJoinerEntersAtServicePositionNotZero) {
  core::pim_system sys(small_config());
  sys.runtime().set_stream_weight(0, 1.0);
  // Stream 0 runs a warm-up batch, advancing its stride pass well past
  // zero.
  submit_host_kernels(sys, 0, 6);
  sys.wait_all();
  // Both streams now queue a batch; stream 1 was never weighted. If a
  // late joiner entered at pass 0 it would monopolize the pool until it
  // "caught up" with stream 0's history; the re-entry floor makes them
  // alternate instead.
  auto first = submit_host_kernels(sys, 0, 6);
  auto second = submit_host_kernels(sys, 1, 6);
  sys.wait_all();
  EXPECT_LT(first[1].report().complete_ps,
            second.back().report().complete_ps);
}

TEST(StreamWeightTest, RejectsNonPositiveWeight) {
  core::pim_system sys(small_config());
  EXPECT_THROW(sys.runtime().set_stream_weight(0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(sys.runtime().set_stream_weight(0, -1.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Dispatcher routing
// ---------------------------------------------------------------------------

TEST(DispatcherTest, MemoryBoundKernelOffloads) {
  dispatcher d(small_config().org);
  pim_task t;
  core::kernel_profile p;
  p.name = "streaming_scan";
  p.instructions = 1'000'000;
  p.memory_traffic = 64 * mib;  // memory-bound: host BW is the wall
  p.host_cache_hit = 0.0;
  t.payload = host_kernel_args{p};

  const dispatcher::routing_result r = d.route(t);
  EXPECT_TRUE(r.decision.offload);
  EXPECT_EQ(r.where, backend_kind::ndp_logic);
}

TEST(DispatcherTest, ComputeBoundKernelStaysOnHost) {
  dispatcher d(small_config().org);
  pim_task t;
  core::kernel_profile p;
  p.name = "crypto";
  p.instructions = 500'000'000;  // compute-bound, cache-resident
  p.memory_traffic = 64 * kib;
  p.host_cache_hit = 0.9;
  t.payload = host_kernel_args{p};

  const dispatcher::routing_result r = d.route(t);
  EXPECT_FALSE(r.decision.offload);
  EXPECT_EQ(r.where, backend_kind::host);
}

TEST(DispatcherTest, BulkOpsAreMemoryBoundAndRouteToAmbit) {
  dispatcher d(small_config().org);
  core::pim_system sys(small_config());
  auto vecs = sys.allocate(100'000, 3);
  pim_task t;
  bulk_bool_args args;
  args.op = dram::bulk_op::xor_op;
  args.a = vecs[0];
  args.b = vecs[1];
  args.d = vecs[2];
  t.payload = std::move(args);

  const dispatcher::routing_result r = d.route(t);
  EXPECT_TRUE(r.decision.offload);
  EXPECT_EQ(r.where, backend_kind::ambit);
  // The derived profile models the host loop: 3 bytes of traffic per
  // output byte for a binary op, streaming (no cache reuse).
  EXPECT_EQ(r.profile.memory_traffic, 3u * (100'000 / 8));
  EXPECT_EQ(r.profile.host_cache_hit, 0.0);
}

TEST(DispatcherTest, PolicyModesOverrideDecision) {
  pim_task t;
  core::kernel_profile p;
  p.instructions = 500'000'000;
  p.memory_traffic = 64 * kib;
  p.host_cache_hit = 0.9;  // would stay on host under adaptive
  t.payload = host_kernel_args{p};

  dispatch_policy force_pim;
  force_pim.routing = dispatch_policy::mode::force_pim;
  EXPECT_EQ(dispatcher(small_config().org, force_pim).route(t).where,
            backend_kind::ndp_logic);

  dispatch_policy force_host;
  force_host.routing = dispatch_policy::mode::force_host;
  t.payload = host_kernel_args{p};
  EXPECT_EQ(dispatcher(small_config().org, force_host).route(t).where,
            backend_kind::host);

  // A per-task forced backend beats every policy.
  t.forced_backend = backend_kind::ndp_logic;
  EXPECT_EQ(dispatcher(small_config().org, force_host).route(t).where,
            backend_kind::ndp_logic);
}

TEST(DispatcherTest, UtilizationAccountsCompletedTasks) {
  core::pim_system sys(small_config());
  auto vecs = sys.allocate(1'000, 3);
  sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
  core::kernel_profile p;
  p.name = "scan";
  p.instructions = 1'000;
  p.memory_traffic = 1 * mib;
  sys.runtime().submit_kernel(p);
  sys.wait_all();

  const auto util = sys.runtime().stats().backends;
  ASSERT_TRUE(util.count(backend_kind::ambit));
  EXPECT_EQ(util.at(backend_kind::ambit).tasks, 1u);
  EXPECT_EQ(util.at(backend_kind::ambit).output_bytes, 1'000u / 8);
  ASSERT_TRUE(util.count(backend_kind::ndp_logic));
  EXPECT_EQ(util.at(backend_kind::ndp_logic).tasks, 1u);
}

TEST(DispatcherTest, HostFallbackComputesCorrectResult) {
  core::pim_system sys(small_config());
  const bits size = 2'000;
  auto vecs = sys.allocate(size, 3);
  rng gen(11);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  sys.write(vecs[0], a);
  sys.write(vecs[1], b);

  pim_task t;
  bulk_bool_args args;
  args.op = dram::bulk_op::nand_op;
  args.a = vecs[0];
  args.b = vecs[1];
  args.d = vecs[2];
  t.payload = std::move(args);
  t.forced_backend = backend_kind::host;  // bypass Ambit entirely
  task_future f = sys.submit(std::move(t));
  sys.wait(f);

  EXPECT_EQ(sys.read(vecs[2]), ~(a & b));
  EXPECT_EQ(f.report().where, backend_kind::host);
}

// ---------------------------------------------------------------------------
// Event-driven clock
// ---------------------------------------------------------------------------

// A bare scheduler over its own memory system and engines, so a test
// controls exactly how the clock advances.
struct clock_rig {
  explicit clock_rig(const dram::organization& org,
                     scheduler_config config = {})
      : mem(org, dram::ddr3_1600()),
        ambit(mem, true),
        rowclone(mem),
        sched(mem, ambit, rowclone, config) {}

  dram::memory_system mem;
  dram::ambit_engine ambit;
  dram::rowclone_engine rowclone;
  scheduler sched;
};

// What one run of the mix produced, compared field by field between
// one-cycle ticking and the event-driven path.
struct clock_trace {
  std::map<std::string, std::uint64_t> counters;
  std::vector<std::pair<int, picoseconds>> completions;  // (op, instant)
  cycles now = 0;
  std::uint64_t ticks = 0;
  std::uint64_t busy_bank_ticks = 0;
  int peak_busy_banks = 0;
  std::uint64_t digest = fnv1a_basis;
};

// A seeded mix of every kind of work the clock has to advance through —
// bursts of host reads/writes across the banks of a rank (so tFAW
// binds, and rows stay open for the bulk engines to close), Ambit ops, RowClone
// FPM/PSM copies and memsets, host and NDP executor runs — on 2
// channels x 2 ranks, over more than three refresh intervals, then an
// idle tail in which only refresh happens.
clock_trace run_clock_mix(bool event_driven) {
  dram::organization org;
  org.channels = 2;
  org.ranks = 2;
  org.banks = 8;
  org.subarrays = 4;
  org.rows = 256;
  org.columns = 8;
  clock_rig rig(org);
  dram::memory_system& mem = rig.mem;
  const dram::timing_params& timing = mem.timing();

  // Groups of three co-located two-row vectors: a, b and d.
  dram::ambit_allocator alloc(org);
  std::vector<dram::bulk_vector> vecs;
  for (int g = 0; g < 8; ++g) {
    for (dram::bulk_vector& v : alloc.allocate_group(2 * org.row_bits(), 3)) {
      vecs.push_back(std::move(v));
    }
  }
  rng gen(2024);
  for (const dram::bulk_vector& v : vecs) {
    rig.ambit.write_vector(v, bitvector::random(v.size, gen));
  }

  clock_trace out;
  auto advance_to = [&](cycles target) {
    if (event_driven) {
      rig.sched.advance_until([] { return false; }, target - mem.now_cycles());
    } else {
      while (mem.now_cycles() < target) rig.sched.tick();
    }
  };
  auto submit = [&](int op, pim_task task, backend_kind where,
                    core::offload_decision decision = {}) {
    task.on_complete = [&out, op](const task_report& r) {
      out.completions.emplace_back(op, r.complete_ps);
    };
    rig.sched.submit(std::move(task), where, decision);
  };
  auto any_row = [&] {
    const dram::bulk_vector& v = vecs[gen.next_below(vecs.size())];
    return v.rows[gen.next_below(v.rows.size())];
  };

  const cycles window = 3 * timing.trefi + 2'000;
  cycles at = 0;
  for (int op = 0; at < window; ++op) {
    at += static_cast<cycles>(gen.next_below(80));
    advance_to(at);
    const std::size_t g = 3 * gen.next_below(vecs.size() / 3);
    const std::size_t k = gen.next_below(2);
    switch (gen.next_below(6)) {
      case 0: {  // host reads/writes to 5-8 banks of one rank at once
        dram::address a;
        a.channel = static_cast<int>(gen.next_below(2));
        a.rank = static_cast<int>(gen.next_below(2));
        for (int n = 5 + static_cast<int>(gen.next_below(4)); n > 0; --n) {
          a.bank = n - 1;
          a.row = static_cast<int>(gen.next_below(org.rows));
          a.column = static_cast<int>(gen.next_below(org.columns));
          dram::request req;
          req.kind = gen.next_below(2) == 0 ? dram::request_kind::read
                                            : dram::request_kind::write;
          req.addr = mem.mapper().linearize(a);
          req.on_complete = [&out, op](picoseconds t) {
            out.completions.emplace_back(op, t);
          };
          if (!mem.enqueue(std::move(req))) {
            out.completions.emplace_back(op, -1);
          }
        }
        break;
      }
      case 1: {  // Ambit op
        const auto& ops = dram::all_bulk_ops();
        const dram::bulk_op bop = ops[gen.next_below(ops.size())];
        submit(op,
               make_bulk_task(bop, vecs[g],
                              dram::is_unary(bop) ? nullptr : &vecs[g + 1],
                              vecs[g + 2]),
               backend_kind::ambit);
        break;
      }
      case 2: {  // RowClone FPM within a subarray
        pim_task t;
        t.payload = row_copy_args{vecs[g].rows[k], vecs[g + 2].rows[k], true};
        submit(op, std::move(t), backend_kind::rowclone);
        break;
      }
      case 3: {  // RowClone PSM to another bank of the same channel
        const dram::address src = vecs[g].rows[k];
        dram::address dst = any_row();
        while (dst.channel != src.channel ||
               (dst.rank == src.rank && dst.bank == src.bank)) {
          dst = any_row();
        }
        pim_task t;
        t.payload = row_copy_args{src, dst, false};
        submit(op, std::move(t), backend_kind::rowclone);
        break;
      }
      case 4: {  // RowClone memset
        pim_task t;
        const bool ones = gen.next_below(2) == 0;
        t.payload = row_memset_args{vecs[g + 1].rows[k], ones};
        submit(op, std::move(t), backend_kind::rowclone);
        break;
      }
      case 5: {  // host / NDP executor run, off the tCK grid
        core::offload_decision d;
        d.host_time = gen.next_in(1'000, 150'000);
        d.pim_time = gen.next_in(1'000, 150'000);
        const backend_kind where = gen.next_below(2) == 0
                                       ? backend_kind::host
                                       : backend_kind::ndp_logic;
        if (gen.next_below(2) == 0) {
          submit(op,
                 make_bulk_task(dram::bulk_op::xor_op, vecs[g], &vecs[g + 1],
                                vecs[g + 2]),
                 where, d);
        } else {
          pim_task t;
          t.payload = host_kernel_args{};
          submit(op, std::move(t), where, d);
        }
        break;
      }
    }
  }
  if (event_driven) {
    rig.sched.wait_all();
  } else {
    while (!rig.sched.idle()) rig.sched.tick();
  }
  advance_to(mem.now_cycles() + 2 * timing.trefi);

  out.counters = mem.counters().all();
  out.now = mem.now_cycles();
  out.ticks = rig.sched.stats().ticks;
  out.busy_bank_ticks = rig.sched.stats().busy_bank_ticks;
  out.peak_busy_banks = rig.sched.stats().peak_busy_banks;
  for (const dram::bulk_vector& v : vecs) {
    out.digest = fnv1a(out.digest, rig.ambit.read_vector(v));
  }
  return out;
}

TEST(EventClockTest, MatchesOneCycleTicking) {
  const clock_trace stepped = run_clock_mix(false);
  const clock_trace evented = run_clock_mix(true);

  // The mix exercised what the next-event bound must account for.
  ASSERT_GE(stepped.counters.at("dram.ref"), 6u);  // 2 ranks x 3+ tREFI
  ASSERT_GT(stepped.counters.at("ctrl.refresh_pre"), 0u);
  ASSERT_GT(stepped.counters.at("dram.tra"), 0u);
  ASSERT_GT(stepped.counters.at("dram.bulk_rd"), 0u);  // PSM
  ASSERT_GT(stepped.counters.at("dram.act"), 0u);      // host ACTs (tFAW)
  ASSERT_GT(stepped.completions.size(), 300u);

  EXPECT_EQ(evented.counters, stepped.counters);
  EXPECT_EQ(evented.completions, stepped.completions);
  EXPECT_EQ(evented.now, stepped.now);
  EXPECT_EQ(evented.ticks, stepped.ticks);
  EXPECT_EQ(evented.busy_bank_ticks, stepped.busy_bank_ticks);
  EXPECT_EQ(evented.peak_busy_banks, stepped.peak_busy_banks);
  EXPECT_EQ(evented.digest, stepped.digest);
}

TEST(EventClockTest, WatchdogCountsSimulatedCycles) {
  // One host run of exactly `service` cycles, alone on the clock: the
  // skip over its idle middle still counts every cycle against
  // max_wait_cycles.
  const cycles service = 5'000;
  for (const cycles slack : {cycles{8}, cycles{-8}}) {
    scheduler_config config;
    config.max_wait_cycles = service + slack;
    clock_rig rig(small_config().org, config);
    core::offload_decision d;
    d.host_time = rig.mem.timing().cycles_to_ps(service);
    pim_task t;
    t.payload = host_kernel_args{};
    const task_future f =
        rig.sched.submit(std::move(t), backend_kind::host, d);
    if (slack > 0) {
      rig.sched.wait(f);
      EXPECT_EQ(rig.mem.now_cycles(), service);
      EXPECT_EQ(rig.sched.stats().ticks, static_cast<std::uint64_t>(service));
    } else {
      EXPECT_THROW(rig.sched.wait(f), std::runtime_error);
      EXPECT_EQ(rig.mem.now_cycles(), service + slack);
      EXPECT_FALSE(f.ready());
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-tenant workload driver
// ---------------------------------------------------------------------------

std::vector<stream_config> test_streams(int tasks) {
  std::vector<stream_config> streams(3);
  streams[0].kind = stream_kind::db_bitmap_scan;
  streams[1].kind = stream_kind::graph_frontier;
  streams[2].kind = stream_kind::consumer_bulk;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    streams[i].tasks = tasks;
    streams[i].seed = 50 + i;
  }
  return streams;
}

TEST(WorkloadDriverTest, BatchedMatchesSynchronousDigest) {
  core::pim_system sync_sys(small_config());
  workload_driver sync_driver(sync_sys);
  const drive_result sync_r = sync_driver.run(test_streams(8), true);

  core::pim_system batched_sys(small_config());
  workload_driver batched_driver(batched_sys);
  const drive_result batched_r = batched_driver.run(test_streams(8), false);

  EXPECT_EQ(sync_r.digest, batched_r.digest);
  EXPECT_EQ(sync_r.output_bytes, batched_r.output_bytes);
  EXPECT_LE(batched_r.makespan_ps, sync_r.makespan_ps);
}

TEST(WorkloadDriverTest, AllTasksCompletePerStream) {
  core::pim_system sys(small_config());
  workload_driver driver(sys);
  const drive_result r = driver.run(test_streams(12), false);

  ASSERT_EQ(r.streams.size(), 3u);
  for (const stream_result& s : r.streams) {
    EXPECT_EQ(s.tasks, 12);
    EXPECT_GT(s.last_complete_ps, s.first_submit_ps);
    EXPECT_GT(s.output_bytes, 0u);
  }
  EXPECT_EQ(r.stats.sched.submitted, 36u);
  EXPECT_EQ(r.stats.sched.completed, 36u);
  EXPECT_TRUE(sys.runtime().idle());
}

TEST(WorkloadDriverTest, StressManyConcurrentStreams) {
  core::pim_system_config cfg = small_config();
  cfg.org.banks = 8;
  cfg.org.rows = 512;
  core::pim_system sys(cfg);
  workload_driver driver(sys);

  std::vector<stream_config> streams;
  for (int i = 0; i < 12; ++i) {
    stream_config s;
    s.kind = static_cast<stream_kind>(i % 3);
    s.tasks = 20;
    s.seed = static_cast<std::uint64_t>(i + 1);
    streams.push_back(s);
  }
  const drive_result r = driver.run(streams, false);

  EXPECT_EQ(r.stats.sched.submitted, 240u);
  EXPECT_EQ(r.stats.sched.completed, 240u);
  EXPECT_GT(r.stats.sched.peak_busy_banks, 1);
  EXPECT_TRUE(sys.runtime().idle());
  // Re-running on the same system must also drain cleanly.
  const drive_result r2 = driver.run(test_streams(4), false);
  EXPECT_EQ(r2.stats.sched.completed, 252u);  // cumulative counters
}

}  // namespace
}  // namespace pim::runtime
