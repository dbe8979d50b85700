// Tests for the sharded PIM service front-end: session routing, the
// client request API, admission control (bounded queues +
// backpressure), fair-share popping, shutdown semantics, and
// bit-for-bit equivalence across shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/digest.h"
#include "service/synthetic.h"

namespace pim::service {
namespace {

core::pim_system_config small_system() {
  core::pim_system_config cfg;
  cfg.org.channels = 1;
  cfg.org.ranks = 1;
  cfg.org.banks = 4;
  cfg.org.subarrays = 4;
  cfg.org.rows = 256;
  cfg.org.columns = 8;
  return cfg;
}

service_config small_service(int shards) {
  service_config cfg;
  cfg.shards = shards;
  cfg.system = small_system();
  return cfg;
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, RangeRoutingMakesContiguousBlocks) {
  shard_router router(4, shard_routing::range, /*keys_per_shard=*/2);
  EXPECT_EQ(router.route(0), 0);
  EXPECT_EQ(router.route(1), 0);
  EXPECT_EQ(router.route(2), 1);
  EXPECT_EQ(router.route(5), 2);
  EXPECT_EQ(router.route(7), 3);
}

TEST(ShardRouterTest, RangeOverflowWrapsRoundRobin) {
  // Keys past shards * keys_per_shard used to clamp onto the last
  // shard, silently hot-spotting it as the population grew; they must
  // wrap round-robin across all shards instead.
  shard_router router(4, shard_routing::range, /*keys_per_shard=*/2);
  // Boundary: the last in-range key vs the first overflow key.
  EXPECT_EQ(router.route(7), 3);
  EXPECT_EQ(router.route(8), 0);
  EXPECT_EQ(router.route(9), 1);
  EXPECT_EQ(router.route(10), 2);
  EXPECT_EQ(router.route(11), 3);
  EXPECT_EQ(router.route(12), 0);  // second wrap
  EXPECT_EQ(router.route(1000), 0);  // (1000 - 8) % 4
  EXPECT_EQ(router.route(1001), 1);

  // A growing population stays balanced: over any large key range the
  // spread between the fullest and emptiest shard is bounded by one
  // block, not linear in the overflow.
  std::vector<int> hits(4, 0);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    ++hits[static_cast<std::size_t>(router.route(key))];
  }
  const auto [lo, hi] = std::minmax_element(hits.begin(), hits.end());
  EXPECT_LE(*hi - *lo, 2);

  // Single-shard degenerate case: everything routes to shard 0.
  shard_router one(1, shard_routing::range, /*keys_per_shard=*/4);
  EXPECT_EQ(one.route(3), 0);
  EXPECT_EQ(one.route(4), 0);
  EXPECT_EQ(one.route(12345), 0);
}

TEST(ShardRouterTest, HashRoutingCoversAllShards) {
  shard_router router(4, shard_routing::hash);
  std::vector<int> hits(4, 0);
  for (std::uint64_t key = 0; key < 64; ++key) {
    const int s = router.route(key);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++hits[static_cast<std::size_t>(s)];
  }
  for (int h : hits) EXPECT_GT(h, 0);  // no empty shard over 64 keys
}

TEST(ShardRouterTest, RejectsInvalidConfig) {
  EXPECT_THROW(shard_router(0), std::invalid_argument);
  EXPECT_THROW(shard_router(2, shard_routing::range, 0),
               std::invalid_argument);
}

TEST(ServiceConfigTest, RejectsOrganizationThatCannotPriceTransfers) {
  // Every cross-shard byte is priced as a RowClone PSM copy, whose wire
  // partner must sit in another (rank, bank) of the same channel: one
  // rank of one bank leaves no partner.
  service_config cfg = small_service(2);
  cfg.system.org.ranks = 1;
  cfg.system.org.banks = 1;
  EXPECT_THROW(pim_service svc(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Client API basics
// ---------------------------------------------------------------------------

TEST(ServiceClientTest, ExecutesBulkOpsCorrectly) {
  pim_service svc(small_service(1));
  svc.start();
  service_client client(svc);

  const bits size = 2'000;
  auto v = client.allocate(size, 3);
  ASSERT_EQ(v.size(), 3u);
  rng gen(7);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  client.write(v[0], a);
  client.write(v[1], b);

  request_future f = client.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1],
                                        v[2]);
  const request_result& r = f.get();
  EXPECT_EQ(r.report.kind, runtime::task_kind::bulk_bool);
  EXPECT_GT(r.report.complete_ps, r.report.submit_ps);
  EXPECT_EQ(client.read(v[2]), a ^ b);

  svc.stop();
}

TEST(ServiceClientTest, ChainedOpsPreserveProgramOrder) {
  pim_service svc(small_service(1));
  svc.start();
  service_client client(svc);

  const bits size = 1'500;
  auto v = client.allocate(size, 4);
  rng gen(11);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  client.write(v[0], a);
  client.write(v[1], b);

  client.submit_bulk(dram::bulk_op::and_op, v[0], &v[1], v[2]);
  client.submit_bulk(dram::bulk_op::or_op, v[2], &v[0], v[3]);
  client.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1], v[2]);  // WAR
  client.wait_all();

  EXPECT_EQ(client.read(v[2]), a ^ b);
  EXPECT_EQ(client.read(v[3]), (a & b) | a);
  svc.stop();
}

TEST(ServiceClientTest, InvalidTaskFailsItsFutureOnly) {
  pim_service svc(small_service(1));
  svc.start();
  service_client client(svc);

  const bits size = 1'000;
  auto v = client.allocate(size, 3);
  // Forced misroute: a row copy on the Ambit backend is invalid and
  // must fail the request's future, not wedge the shard.
  runtime::pim_task bad;
  bad.payload = runtime::row_copy_args{v[0].rows[0], v[1].rows[0], true};
  bad.forced_backend = runtime::backend_kind::ambit;
  request_future f = client.submit(std::move(bad));
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_THROW(client.wait_all(), std::runtime_error);

  // The shard is still serviceable afterwards.
  rng gen(3);
  const bitvector a = bitvector::random(size, gen);
  client.write(v[0], a);
  client.submit_bulk(dram::bulk_op::not_op, v[0], nullptr, v[2]);
  client.wait_all();
  EXPECT_EQ(client.read(v[2]), ~a);
  svc.stop();
}

// ---------------------------------------------------------------------------
// Admission control and backpressure
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionTest, TrySubmitRejectsWhenQueueFull) {
  service_config cfg = small_service(1);
  cfg.shard.session_queue_capacity = 2;
  pim_service svc(cfg);
  svc.start();
  service_client client(svc);
  const bits size = 1'000;
  auto v = client.allocate(size, 3);

  svc.pause();  // freeze the worker so the queue cannot drain
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    auto f = client.try_submit(
        runtime::make_bulk_task(dram::bulk_op::and_op, v[0], &v[1], v[2]));
    f ? ++accepted : ++rejected;
  }
  EXPECT_EQ(accepted, 2);  // exactly the queue capacity
  EXPECT_EQ(rejected, 4);
  EXPECT_EQ(svc.stats().requests_rejected, 4u);

  svc.resume();
  client.wait_all();  // the admitted requests still complete
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.tasks_submitted, 2u);
  svc.stop();
}

TEST(ServiceAdmissionTest, QueuesAreBoundedPerSession) {
  service_config cfg = small_service(1);
  cfg.shard.session_queue_capacity = 4;
  pim_service svc(cfg);
  svc.start();
  service_client heavy(svc);
  service_client light(svc);
  const bits size = 1'000;
  auto hv = heavy.allocate(size, 3);
  auto lv = light.allocate(size, 3);

  svc.pause();
  // The heavy tenant fills its own queue; the light tenant's separate
  // bound means it is not locked out.
  for (int i = 0; i < 8; ++i) {
    heavy.try_submit(
        runtime::make_bulk_task(dram::bulk_op::or_op, hv[0], &hv[1], hv[2]));
  }
  auto admitted = light.try_submit(
      runtime::make_bulk_task(dram::bulk_op::or_op, lv[0], &lv[1], lv[2]));
  EXPECT_TRUE(admitted.has_value());
  svc.resume();
  heavy.wait_all();
  light.wait_all();
  svc.stop();
}

TEST(ServiceAdmissionTest, StopFailsQueuedRequests) {
  service_config cfg = small_service(1);
  cfg.shard.session_queue_capacity = 8;
  pim_service svc(cfg);
  svc.start();
  service_client client(svc);
  const bits size = 1'000;
  auto v = client.allocate(size, 3);

  svc.pause();
  request_future f = client.submit(
      runtime::make_bulk_task(dram::bulk_op::and_op, v[0], &v[1], v[2]));
  svc.stop();  // never resumed: the queued request must fail, not hang
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_GE(svc.stats().requests_failed, 1u);
}

// ---------------------------------------------------------------------------
// Fair share
// ---------------------------------------------------------------------------

TEST(ServiceFairShareTest, LightTenantIsNotStarvedByHeavyBacklog) {
  service_config cfg = small_service(1);
  cfg.shard.session_queue_capacity = 64;
  pim_service svc(cfg);
  svc.start();
  service_client heavy(svc, /*weight=*/1.0);
  service_client light(svc, /*weight=*/1.0);
  const bits size = 1'000;
  auto hv = heavy.allocate(size, 3);
  auto lv = light.allocate(size, 3);
  rng gen(5);
  heavy.write(hv[0], bitvector::random(size, gen));
  heavy.write(hv[1], bitvector::random(size, gen));
  light.write(lv[0], bitvector::random(size, gen));
  light.write(lv[1], bitvector::random(size, gen));

  // Heavy queues 32 tasks first; light queues 4 afterwards. Strict
  // FIFO would finish all 32 before light's first; stride scheduling
  // must interleave them.
  svc.pause();
  std::vector<request_future> heavy_f;
  for (int i = 0; i < 32; ++i) {
    heavy_f.push_back(heavy.submit(
        runtime::make_bulk_task(dram::bulk_op::xor_op, hv[0], &hv[1], hv[2])));
  }
  std::vector<request_future> light_f;
  for (int i = 0; i < 4; ++i) {
    light_f.push_back(light.submit(
        runtime::make_bulk_task(dram::bulk_op::xor_op, lv[0], &lv[1], lv[2])));
  }
  svc.resume();
  heavy.wait_all();
  light.wait_all();

  const picoseconds light_last = light_f.back().get().report.complete_ps;
  int heavy_done_before_light = 0;
  for (const request_future& f : heavy_f) {
    if (f.get().report.complete_ps <= light_last) ++heavy_done_before_light;
  }
  // Equal weights => light's 4 tasks finish within roughly the first 8
  // completions; far fewer than half of heavy's backlog may precede
  // them.
  EXPECT_LE(heavy_done_before_light, 16);
  svc.stop();
}

// ---------------------------------------------------------------------------
// Sharded equivalence and telemetry
// ---------------------------------------------------------------------------

std::vector<synthetic_config> small_population(int clients) {
  std::vector<synthetic_config> population;
  for (int i = 0; i < clients; ++i) {
    synthetic_config c;
    c.ops = 12;
    c.groups = 2;
    c.vector_bits = 1'000;
    c.seed = static_cast<std::uint64_t>(40 + i);
    population.push_back(c);
  }
  return population;
}

TEST(ServiceEquivalenceTest, DigestsMatchAcrossShardCountsAndReference) {
  const auto population = small_population(6);

  // Reference: each client straight on its own pim_system, synchronous.
  std::vector<std::uint64_t> expected;
  for (const synthetic_config& c : population) {
    core::pim_system sys(small_system());
    expected.push_back(run_synthetic_reference(sys, c).digest);
  }

  for (int shards : {1, 3}) {
    service_config cfg = small_service(shards);
    cfg.routing = shard_routing::range;
    cfg.sessions_per_shard = 2;
    pim_service svc(cfg);
    svc.start();
    // Sequential clients: shard assignment is then deterministic.
    std::vector<std::uint64_t> digests;
    for (const synthetic_config& c : population) {
      digests.push_back(run_synthetic_client(svc, c).digest);
    }
    svc.stop();
    EXPECT_EQ(digests, expected) << "shards=" << shards;
  }
}

TEST(ServiceStatsTest, AggregatesAcrossShards) {
  service_config cfg = small_service(2);
  cfg.routing = shard_routing::range;
  cfg.sessions_per_shard = 1;
  pim_service svc(cfg);
  svc.start();
  const auto population = small_population(2);
  for (const synthetic_config& c : population) {
    run_synthetic_client(svc, c);
  }
  svc.stop();

  const service_stats stats = svc.stats();
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.sessions, 2);
  // One client per shard: both shards saw work.
  EXPECT_GT(stats.shards[0].tasks_submitted, 0u);
  EXPECT_GT(stats.shards[1].tasks_submitted, 0u);
  EXPECT_EQ(stats.tasks_submitted, 24u);  // 2 clients x 12 ops
  EXPECT_EQ(stats.sched_submitted, 24u);
  EXPECT_EQ(stats.sched_completed, 24u);
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_GT(stats.output_bytes, 0u);
  EXPECT_GT(stats.makespan_ps, 0);
  EXPECT_GT(stats.aggregate_gbps(), 0.0);

  // The JSON emission covers the whole tree without throwing.
  json_writer json;
  json.begin_object();
  stats.to_json(json);
  json.end_object();
  EXPECT_NE(json.str().find("\"shards\""), std::string::npos);
  EXPECT_NE(json.str().find("\"aggregate_gbps\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Row-granular hazard drains (the old code drained the whole runtime on
// every allocate/write/read, serializing all sessions' compute behind
// any one session's metadata ops)
// ---------------------------------------------------------------------------

TEST(ServiceHazardTest, IndependentSessionsDoNotSerializeOnMetadataOps) {
  service_config cfg = small_service(1);
  pim_service svc(cfg);
  svc.start();
  service_client compute(svc);
  service_client meta(svc);

  const bits size = 1'000;
  // Independent groups stripe across banks, so hazard-free tasks can
  // genuinely overlap.
  std::vector<std::vector<dram::bulk_vector>> groups;
  for (int g = 0; g < 4; ++g) groups.push_back(compute.allocate(size, 3));
  auto mv = meta.allocate(size, 1);
  rng gen(9);
  std::vector<bitvector> a, b;
  for (auto& g : groups) {
    a.push_back(bitvector::random(size, gen));
    b.push_back(bitvector::random(size, gen));
    compute.write(g[0], a.back());
    compute.write(g[1], b.back());
  }
  const bitvector md = bitvector::random(size, gen);

  // Queue everything while paused so the pop order is deterministic:
  // stride popping interleaves meta's writes between compute's tasks.
  svc.pause();
  std::vector<request_future> fs;
  for (int g = 0; g < 4; ++g) {
    fs.push_back(compute.submit_bulk(dram::bulk_op::xor_op, groups[g][0],
                                     &groups[g][1], groups[g][2]));
  }
  std::vector<request_future> ws;
  for (int i = 0; i < 4; ++i) {
    request r;
    r.session = meta.id();
    r.payload = write_args{mv[0], md};
    ws.push_back(svc.submit(std::move(r)));
  }
  svc.resume();
  compute.wait_all();
  for (const request_future& w : ws) w.get();

  // With the old always-drain behavior the interleaved writes forced
  // every compute task to finish alone before the next was submitted:
  // no two tasks' [start, complete) windows could ever overlap. With
  // hazard-scoped drains the writes touch unrelated rows and all four
  // tasks run concurrently.
  int overlapping = 0;
  for (std::size_t i = 0; i < fs.size(); ++i) {
    for (std::size_t j = i + 1; j < fs.size(); ++j) {
      const runtime::task_report& x = fs[i].get().report;
      const runtime::task_report& y = fs[j].get().report;
      if (x.start_ps < y.complete_ps && y.start_ps < x.complete_ps) {
        ++overlapping;
      }
    }
  }
  EXPECT_GT(overlapping, 0);
  for (int g = 0; g < 4; ++g) {
    EXPECT_EQ(compute.read(groups[g][2]),
              a[static_cast<std::size_t>(g)] ^ b[static_cast<std::size_t>(g)]);
  }
  EXPECT_EQ(meta.read(mv[0]), md);
  svc.stop();
  // The unrelated metadata ops never drained...
  EXPECT_EQ(svc.stats().shards[0].hazard_drains, 0u);
}

TEST(ServiceHazardTest, ReadOfPendingResultStillDrains) {
  service_config cfg = small_service(1);
  pim_service svc(cfg);
  svc.start();
  service_client client(svc);
  const bits size = 1'000;
  auto v = client.allocate(size, 3);
  rng gen(21);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  client.write(v[0], a);
  client.write(v[1], b);
  // Queue the op and the read back-to-back while paused: the worker
  // then provably executes the read while the task is still in flight,
  // and the hazard drain must make it observe the completed result.
  svc.pause();
  client.submit_bulk(dram::bulk_op::nand_op, v[0], &v[1], v[2]);
  request r;
  r.session = client.id();
  r.payload = read_args{v[2]};
  request_future rf = svc.submit(std::move(r));
  svc.resume();
  EXPECT_EQ(rf.get().data, ~(a & b));
  client.wait_all();
  svc.stop();
  EXPECT_GE(svc.stats().hazard_drains, 1u);
}

// ---------------------------------------------------------------------------
// Cross-shard plans
// ---------------------------------------------------------------------------

service_config two_shard_range() {
  service_config cfg = small_service(2);
  cfg.routing = shard_routing::range;
  cfg.sessions_per_shard = 1;
  return cfg;
}

TEST(ServiceCrossShardTest, CrossShardOpsMatchFunctionalReference) {
  pim_service svc(two_shard_range());
  svc.start();
  service_client c0(svc);
  service_client c1(svc);
  ASSERT_EQ(c0.shard_index(), 0);
  ASSERT_EQ(c1.shard_index(), 1);

  const bits size = 1'500;
  auto v0 = c0.allocate(size, 2);  // a, and a destination for the unary op
  auto v1 = c1.allocate(size, 2);  // b, d
  rng gen(31);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c0.write(v0[0], a);
  c1.write(v1[0], b);

  // Binary op across shards: a lives on shard 0, b and d on shard 1.
  const shared_vector sb{c1.id(), v1[0]};
  const shared_vector sd{c1.id(), v1[1]};
  request_future f =
      c0.submit_shared(dram::bulk_op::xor_op, c0.share(v0[0]), &sb, sd);
  f.get();
  EXPECT_EQ(c1.read(v1[1]), a ^ b);

  // Unary op across shards: source on shard 1, destination on shard 0.
  request_future g =
      c0.submit_shared(dram::bulk_op::not_op, sb, nullptr, c0.share(v0[1]));
  g.get();
  EXPECT_EQ(c0.read(v0[1]), ~b);

  // Chained: a cross-shard result feeds a local op (hazard ordering
  // across the plan's write-back).
  c1.submit_bulk(dram::bulk_op::and_op, v1[1], &v1[0], v1[1]);
  c1.wait_all();
  EXPECT_EQ(c1.read(v1[1]), (a ^ b) & b);

  svc.stop();
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.cross_plans, 2u);
  EXPECT_GT(stats.staged_bytes, 0u);
  EXPECT_GT(stats.exported_bytes, 0u);
  EXPECT_EQ(stats.requests_failed, 0u);
}

TEST(ServiceCrossShardTest, PlannerPicksShardMinimizingBytesMoved) {
  pim_service svc(two_shard_range());
  svc.start();
  service_client c0(svc);
  service_client c1(svc);
  const bits size = 4'000;
  auto v0 = c0.allocate(size, 2);  // a, b on shard 0
  auto v1 = c1.allocate(size, 1);  // d on shard 1
  rng gen(47);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c0.write(v0[0], a);
  c0.write(v0[1], b);

  // Two inputs on shard 0 vs one output on shard 1: moving d's bytes
  // (write-back) is cheaper than moving a+b, so the plan must execute
  // on shard 0.
  const shared_vector sa{c0.id(), v0[0]};
  const shared_vector sb{c0.id(), v0[1]};
  c1.submit_shared(dram::bulk_op::or_op, sa, &sb, c1.share(v1[0])).get();
  EXPECT_EQ(c1.read(v1[0]), a | b);

  svc.stop();
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.shards[0].cross_plans, 1u);
  EXPECT_EQ(stats.shards[1].cross_plans, 0u);
  // The write-back landed (and was priced) on d's shard.
  EXPECT_GE(stats.shards[1].staged_bytes, static_cast<bytes>(size / 8));
  // Nothing was exported from shard 1 — its only involvement is the
  // landing.
  EXPECT_EQ(stats.shards[1].exported_bytes, 0u);
}

TEST(ServiceCrossShardTest, SingleOwnerSharedSubmitTakesFastPath) {
  pim_service svc(two_shard_range());
  svc.start();
  service_client c0(svc);
  service_client c1(svc);
  const bits size = 1'000;
  auto v1 = c1.allocate(size, 3);
  rng gen(53);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c1.write(v1[0], a);
  c1.write(v1[1], b);
  // All operands owned by c1: no staging, direct run on shard 1 even
  // though the issuer lives on shard 0.
  const shared_vector sa{c1.id(), v1[0]};
  const shared_vector sb{c1.id(), v1[1]};
  const shared_vector sd{c1.id(), v1[2]};
  c0.submit_shared(dram::bulk_op::and_op, sa, &sb, sd).get();
  EXPECT_EQ(c1.read(v1[2]), a & b);
  svc.stop();
  EXPECT_EQ(svc.stats().cross_plans, 0u);
}

// ---------------------------------------------------------------------------
// Session migration and rebalancing
// ---------------------------------------------------------------------------

TEST(ServiceMigrationTest, MigrationPreservesDataOrderingAndHandles) {
  pim_service svc(two_shard_range());
  svc.start();
  service_client c(svc);
  ASSERT_EQ(c.shard_index(), 0);
  const bits size = 2'000;
  auto v = c.allocate(size, 3);
  rng gen(61);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c.write(v[0], a);
  c.write(v[1], b);

  // An op in flight (or queued) when the migration starts must land
  // before the post-migration op, on the new shard, same handles.
  c.submit_bulk(dram::bulk_op::and_op, v[0], &v[1], v[2]);
  svc.migrate_session(c.id(), 1);
  EXPECT_EQ(c.shard_index(), 1);
  c.submit_bulk(dram::bulk_op::xor_op, v[2], &v[0], v[2]);  // RAW chain
  c.wait_all();
  EXPECT_EQ(c.read(v[2]), (a & b) ^ a);

  // Allocation after migration lands on the new shard and coexists
  // with migrated vectors (one op per co-located group, as always).
  auto w = c.allocate(size, 3);
  c.write(w[0], b);
  c.write(w[1], a);
  c.submit_bulk(dram::bulk_op::or_op, w[0], &w[1], w[2]);
  c.wait_all();
  EXPECT_EQ(c.read(w[2]), b | a);

  // Migrate back: handles still valid.
  svc.migrate_session(c.id(), 0);
  EXPECT_EQ(c.shard_index(), 0);
  EXPECT_EQ(c.read(v[2]), (a & b) ^ a);
  EXPECT_EQ(c.read(w[2]), b | a);

  svc.stop();
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.migrations, 2u);
  EXPECT_EQ(stats.requests_failed, 0u);
}

TEST(ServiceMigrationTest, MigrationExportsRaggedVectorsBitExact) {
  pim_service svc(two_shard_range());
  svc.start();
  service_client c(svc);
  ASSERT_EQ(c.shard_index(), 0);
  // Neither a multiple of row_bits nor of 64: the priced export's
  // per-row gather ends mid-row and mid-word.
  const bits size = 2 * small_system().org.row_bits() + 37;
  auto v = c.allocate(size, 2);  // v[1] is never written
  rng gen(67);
  const bitvector a = bitvector::random(size, gen);
  c.write(v[0], a);
  const std::uint64_t digest = c.digest();

  svc.migrate_session(c.id(), 1);
  EXPECT_EQ(c.shard_index(), 1);
  EXPECT_EQ(c.read(v[0]), a);
  EXPECT_TRUE(c.read(v[1]).none());
  EXPECT_EQ(c.digest(), digest);
  svc.migrate_session(c.id(), 0);
  EXPECT_EQ(c.read(v[0]), a);
  EXPECT_EQ(c.digest(), digest);

  svc.stop();
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.migrations, 2u);
  // Both captures went through the RowClone-priced export.
  EXPECT_EQ(stats.exported_bytes, 2 * 2 * (size / 8));
  EXPECT_EQ(stats.requests_failed, 0u);
}

TEST(ServiceMigrationTest, MigratedSessionMatchesReferenceDigest) {
  synthetic_config sc;
  sc.ops = 10;
  sc.groups = 2;
  sc.vector_bits = 1'200;
  sc.seed = 77;

  core::pim_system reference(small_system());
  const std::uint64_t expected =
      run_synthetic_reference(reference, sc).digest;

  pim_service svc(two_shard_range());
  svc.start();
  service_client c(svc);
  // Interleave the chain with migrations: same digest as never moving.
  std::vector<dram::bulk_vector> v;
  for (int g = 0; g < sc.groups; ++g) {
    auto group = c.allocate(sc.vector_bits, synthetic_group_vectors);
    v.insert(v.end(), group.begin(), group.end());
  }
  rng data(sc.seed ^ 0xa5a5a5a5a5a5a5a5ull);
  for (const dram::bulk_vector& vec : v) {
    c.write(vec, bitvector::random(vec.size, data));
  }
  int i = 0;
  for (const synthetic_op& op : make_synthetic_ops(sc)) {
    const dram::bulk_vector* b =
        op.b < 0 ? nullptr : &v[static_cast<std::size_t>(op.b)];
    c.submit_bulk(op.op, v[static_cast<std::size_t>(op.a)], b,
                  v[static_cast<std::size_t>(op.d)]);
    if (++i % 3 == 0) svc.migrate_session(c.id(), i % 2);
  }
  EXPECT_EQ(c.digest(), expected);
  svc.stop();
}

TEST(ServiceRebalanceTest, DrainsHotSpottedShard) {
  // Route every session onto shard 0 (range routing with a huge block),
  // then let the rebalancer spread the backlogged ones. Migration
  // needs live workers (its captures flow through the shard queues),
  // so the backlog is built under pause but rebalance runs after
  // resume, polled while the hot shard chews through it.
  service_config cfg = small_service(3);
  cfg.routing = shard_routing::range;
  cfg.sessions_per_shard = 64;
  cfg.shard.session_queue_capacity = 64;
  pim_service svc(cfg);
  svc.start();
  std::vector<std::unique_ptr<service_client>> clients;
  // 16-row vectors x 64 ops x 5 tenants (more tenants than shards: the
  // oversubscription the policy acts on): a backlog whose simulated
  // drain takes long enough (tens of ms wall) that the skew is
  // reliably observable after resume.
  const int tenants = 5;
  const bits size = 64'000;
  rng gen(83);
  std::vector<std::vector<dram::bulk_vector>> vs;
  for (int i = 0; i < tenants; ++i) {
    clients.push_back(std::make_unique<service_client>(svc));
    ASSERT_EQ(clients.back()->shard_index(), 0);
    vs.push_back(clients.back()->allocate(size, 3));
    clients.back()->write(vs.back()[0], bitvector::random(size, gen));
    clients.back()->write(vs.back()[1], bitvector::random(size, gen));
  }
  svc.pause();
  for (int i = 0; i < tenants; ++i) {
    for (int k = 0; k < 64; ++k) {
      clients[static_cast<std::size_t>(i)]->submit_bulk(
          dram::bulk_op::xor_op, vs[static_cast<std::size_t>(i)][0],
          &vs[static_cast<std::size_t>(i)][1],
          vs[static_cast<std::size_t>(i)][2]);
    }
  }
  svc.resume();
  int moved = 0;
  for (int tries = 0; tries < 1000 && moved == 0; ++tries) {
    moved = svc.rebalance(/*threshold=*/1.2);
  }
  EXPECT_GE(moved, 1);
  // Rebalancing moved sessions (and their backlogs) off the hot shard.
  std::vector<int> homes(tenants);
  for (int i = 0; i < tenants; ++i) {
    homes[static_cast<std::size_t>(i)] =
        clients[static_cast<std::size_t>(i)]->shard_index();
  }
  EXPECT_TRUE(std::any_of(homes.begin(), homes.end(),
                          [](int h) { return h != 0; }));
  for (auto& c : clients) c->wait_all();
  svc.stop();
  EXPECT_EQ(svc.stats().requests_failed, 0u);
  EXPECT_GE(svc.stats().migrations, 1u);
}

TEST(ServiceMigrationTest, RepeatedMigrationDoesNotExhaustCapacity) {
  // Regression for the migrated-row capacity leak: before the Ambit
  // allocator grew a free list, every migrate-away left the source
  // shard's physical rows allocated forever, so ping-ponging one
  // session between two shards ran each shard out of subarray capacity
  // after a few dozen moves. The total rows cycled through each shard
  // here is several times its capacity — only reclaim-on-forget can
  // survive it.
  const core::pim_system_config sys_cfg = small_system();
  // Capacity per shard: channels*ranks*banks*subarrays stripe units x
  // data rows each. small_system: 16 units x 54 rows = 864 data rows.
  pim_service svc(two_shard_range());
  svc.start();
  service_client c(svc);
  ASSERT_EQ(c.shard_index(), 0);

  const bits size = 6 * sys_cfg.org.row_bits();  // 6 rows per vector
  auto v = c.allocate(size, 3);                  // one group: 18 rows
  rng gen(29);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c.write(v[0], a);
  c.write(v[1], b);
  c.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1], v[2]);
  c.wait_all();

  // 60 round trips x 18 rows = 1080 rows through each shard's
  // allocator — beyond the 864-row capacity unless freed rows are
  // recycled.
  for (int trip = 0; trip < 60; ++trip) {
    svc.migrate_session(c.id(), 1);
    svc.migrate_session(c.id(), 0);
  }
  // Contents and handles survived every move.
  EXPECT_EQ(c.read(v[2]), a ^ b);
  c.submit_bulk(dram::bulk_op::and_op, v[0], &v[1], v[2]);
  c.wait_all();
  EXPECT_EQ(c.read(v[2]), a & b);
  svc.stop();
  EXPECT_EQ(svc.stats().migrations, 120u);
  EXPECT_EQ(svc.stats().requests_failed, 0u);
}

TEST(ServiceMigrationTest, FailedInstallLeavesTheDestinationAsItWas) {
  // A migration whose install does not fit on the destination throws
  // and rolls the session back to its source. The destination keeps
  // nothing of it: neither the rows the install took for the groups
  // that did fit, nor its translation, nor the session registration.
  const bits row = small_system().org.row_bits();
  // Shard 1's free rows at start, counted on a twin service.
  int free_rows = 0;
  {
    pim_service twin(two_shard_range());
    twin.start();
    service_client a(twin);
    service_client b(twin);
    ASSERT_EQ(b.shard_index(), 1);
    try {
      for (;; ++free_rows) b.allocate(row, 1);
    } catch (const std::exception&) {
    }
  }
  ASSERT_GT(free_rows, 5);

  pim_service svc(two_shard_range());
  svc.start();
  service_client a(svc);
  service_client b(svc);
  ASSERT_EQ(a.shard_index(), 0);
  ASSERT_EQ(b.shard_index(), 1);
  b.allocate(row * static_cast<bits>(free_rows - 5), 1);  // 5 rows left
  rng gen(101);
  const auto small = a.allocate(row, 1);
  const auto big = a.allocate(row * 10, 1);  // cannot fit in 5 rows
  const bitvector small_bits = bitvector::random(row, gen);
  const bitvector big_bits = bitvector::random(row * 10, gen);
  a.write(small[0], small_bits);
  a.write(big[0], big_bits);
  const int sessions_before = svc.shard_at(1).stats().sessions;

  EXPECT_THROW(svc.migrate_session(a.id(), 1), std::runtime_error);

  EXPECT_EQ(svc.owner_shard(a.id()), 0);
  EXPECT_EQ(svc.shard_at(1).stats().sessions, sessions_before);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NO_THROW(b.allocate(row, 1)) << "row " << i;
  }
  EXPECT_THROW(b.allocate(row, 1), std::runtime_error);
  // The session carries on at its source, data intact.
  EXPECT_EQ(a.read(small[0]), small_bits);
  EXPECT_EQ(a.read(big[0]), big_bits);
  a.submit_bulk(dram::bulk_op::not_op, small[0], nullptr, small[0]);
  a.wait_all();
  EXPECT_EQ(a.read(small[0]), ~small_bits);
  svc.stop();
}

TEST(ServiceMigrationTest, ForwardedBacklogIsCountedOnce) {
  // A migrated session's unexecuted backlog is forwarded to its new
  // shard. The source shard counted those requests when it admitted
  // them, so service-wide every enqueued request completes or fails
  // exactly once. Each backlog is queued under pause and the shards
  // resume only once migration has detached it, so every trip forwards
  // the whole backlog.
  pim_service svc(two_shard_range());
  svc.start();
  service_client c(svc);
  ASSERT_EQ(c.shard_index(), 0);
  const bits size = 2'000;
  auto v = c.allocate(size, 3);
  rng gen(73);
  const bitvector a = bitvector::random(size, gen);
  const bitvector b = bitvector::random(size, gen);
  c.write(v[0], a);
  c.write(v[1], b);
  const int trips = 3;
  const std::size_t backlog = 6;
  for (int trip = 0; trip < trips; ++trip) {
    const int from = c.shard_index();
    svc.pause();
    for (std::size_t k = 0; k < backlog; ++k) {
      c.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1], v[2]);
    }
    std::vector<std::pair<session_id, std::size_t>> queued =
        svc.shard_at(from).session_backlogs();
    ASSERT_EQ(queued.size(), 1u);
    ASSERT_EQ(queued[0].second, backlog);
    std::thread mover([&] { svc.migrate_session(c.id(), 1 - from); });
    while (!svc.shard_at(from).session_backlogs().empty()) {
      std::this_thread::yield();
    }
    svc.resume();
    mover.join();
    EXPECT_EQ(c.shard_index(), 1 - from);
    c.wait_all();
  }
  EXPECT_EQ(c.read(v[2]), a ^ b);
  svc.stop();
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.migrations, static_cast<std::uint64_t>(trips));
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.requests_enqueued,
            stats.requests_completed + stats.requests_failed);
}

TEST(ServiceStatsTest, TracksPerSessionLatencyPercentiles) {
  pim_service svc(small_service(2));
  svc.start();
  service_client c1(svc);
  service_client c2(svc);
  const bits size = 2'000;
  rng gen(31);
  for (service_client* c : {&c1, &c2}) {
    auto v = c->allocate(size, 3);
    c->write(v[0], bitvector::random(size, gen));
    c->write(v[1], bitvector::random(size, gen));
    for (int i = 0; i < 8; ++i) {
      c->submit_bulk(dram::bulk_op::or_op, v[0], &v[1], v[2]);
    }
    c->wait_all();
  }
  svc.stop();

  const service_stats stats = svc.stats();
  // Every client-visible request (allocate + 2 writes + 8 submits +
  // reads from wait_all... at least 11 per session) charged a latency
  // sample to its session.
  ASSERT_EQ(stats.session_latency.size(), 2u);
  for (const session_id id : {c1.id(), c2.id()}) {
    auto it = stats.session_latency.find(id);
    ASSERT_NE(it, stats.session_latency.end());
    const latency_stats s = it->second.summary();
    EXPECT_GE(s.count, 11u);
    EXPECT_GT(s.p50_us, 0.0);
    EXPECT_LE(s.p50_us, s.p95_us);
    EXPECT_LE(s.p95_us, s.p99_us);
  }
  // The service-wide histogram folds both sessions together.
  EXPECT_EQ(stats.latency.count(),
            stats.session_latency.at(c1.id()).count() +
                stats.session_latency.at(c2.id()).count());

  // And the telemetry document carries the percentiles.
  json_writer json;
  json.begin_object();
  stats.to_json(json);
  json.end_object();
  EXPECT_NE(json.str().find("\"latency\""), std::string::npos);
  EXPECT_NE(json.str().find("\"session_latency\""), std::string::npos);
  EXPECT_NE(json.str().find("\"p99_us\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pushed-down programs (client_api::submit_program)
// ---------------------------------------------------------------------------

/// A seeded chain of `count` bulk ops over `v`, dense in RAW, WAR and
/// WAW hazards, applied to the host model `values` as it is built.
std::vector<bulk_step> random_program(const std::vector<dram::bulk_vector>& v,
                                      int count, std::uint64_t seed,
                                      std::vector<bitvector>& values) {
  rng gen(seed);
  const auto& ops = dram::all_bulk_ops();
  std::vector<bulk_step> steps;
  for (int i = 0; i < count; ++i) {
    bulk_step s;
    s.op = ops[gen.next_below(ops.size())];
    const std::size_t a = gen.next_below(v.size());
    const std::size_t b = gen.next_below(v.size());
    const std::size_t d = gen.next_below(v.size());
    s.a = v[a];
    if (!dram::is_unary(s.op)) s.b = v[b];
    s.d = v[d];
    values[d] = dram::ambit_engine::apply(
        s.op, values[a], dram::is_unary(s.op) ? values[a] : values[b]);
    steps.push_back(std::move(s));
  }
  return steps;
}

void expect_same_report(const runtime::task_report& x,
                        const runtime::task_report& y, std::size_t step) {
  EXPECT_EQ(x.id, y.id) << "step " << step;
  EXPECT_EQ(x.kind, y.kind) << "step " << step;
  EXPECT_EQ(x.where, y.where) << "step " << step;
  EXPECT_EQ(x.admit_ps, y.admit_ps) << "step " << step;
  EXPECT_EQ(x.submit_ps, y.submit_ps) << "step " << step;
  EXPECT_EQ(x.release_ps, y.release_ps) << "step " << step;
  EXPECT_EQ(x.start_ps, y.start_ps) << "step " << step;
  EXPECT_EQ(x.complete_ps, y.complete_ps) << "step " << step;
  EXPECT_EQ(x.output_bytes, y.output_bytes) << "step " << step;
  EXPECT_EQ(x.blocked_on, y.blocked_on) << "step " << step;
  EXPECT_EQ(x.blocked_row, y.blocked_row) << "step " << step;
  EXPECT_EQ(x.channel, y.channel) << "step " << step;
  EXPECT_EQ(x.bank, y.bank) << "step " << step;
  EXPECT_EQ(x.energy_fj, y.energy_fj) << "step " << step;
  EXPECT_EQ(x.insitu_bytes, y.insitu_bytes) << "step " << step;
  EXPECT_EQ(x.offchip_bytes, y.offchip_bytes) << "step " << step;
  EXPECT_EQ(x.wire_bytes, y.wire_bytes) << "step " << step;
}

/// What one run of the equivalence scenario observed.
struct program_observation {
  std::vector<runtime::task_report> reports;
  std::vector<bitvector> outputs;
  std::uint64_t digest = 0;
  service_stats stats;
  std::uint64_t program_requests = 0;  // requests_enqueued by the steps
};

/// Loads five 2-row vectors, then runs a 20-step program either as one
/// submit_program or as 20 submit_bulk calls plus output reads. The
/// worker is paused while the work is admitted, so both variants hand
/// the scheduler the same queue.
program_observation run_program_variant(bool pushed_down) {
  pim_service svc(small_service(1));
  svc.start();
  service_client client(svc);
  const bits size = 5'000;
  const auto v = client.allocate(size, 5);
  rng gen(29);
  std::vector<bitvector> values;
  for (const auto& vec : v) {
    values.push_back(bitvector::random(size, gen));
    client.write(vec, values.back());
  }
  std::vector<bitvector> expected = values;
  std::vector<bulk_step> steps = random_program(v, 20, 5, expected);
  const std::vector<dram::bulk_vector> outputs = {v[4], v[1], v[3]};
  // Every output must be some step's operand.
  EXPECT_NO_THROW(program_capture_steps(steps, outputs));

  program_observation out;
  const std::uint64_t enqueued_before = svc.stats().requests_enqueued;
  svc.pause();
  if (pushed_down) {
    request_future f = client.submit_program(steps, outputs);
    out.program_requests = svc.stats().requests_enqueued - enqueued_before;
    svc.resume();
    out.reports = f.get().reports;
    out.outputs = f.get().outputs;
  } else {
    std::vector<request_future> futures;
    for (const bulk_step& st : steps) {
      futures.push_back(client.submit_bulk(
          st.op, st.a, st.b ? &*st.b : nullptr, st.d));
    }
    out.program_requests = svc.stats().requests_enqueued - enqueued_before;
    svc.resume();
    for (const request_future& f : futures) {
      out.reports.push_back(f.get().report);
    }
    for (const auto& o : outputs) out.outputs.push_back(client.read(o));
  }
  client.wait_all();
  out.stats = svc.stats();
  out.digest = client.digest();
  EXPECT_EQ(out.outputs[0], expected[4]);
  EXPECT_EQ(out.outputs[1], expected[1]);
  EXPECT_EQ(out.outputs[2], expected[3]);
  svc.stop();
  return out;
}

TEST(ServiceProgramTest, ProgramMatchesTheSameStepsSubmittedOneByOne) {
  const program_observation pushed = run_program_variant(true);
  const program_observation stepped = run_program_variant(false);

  EXPECT_EQ(pushed.digest, stepped.digest);
  EXPECT_EQ(pushed.outputs, stepped.outputs);
  ASSERT_EQ(pushed.reports.size(), 20u);
  ASSERT_EQ(stepped.reports.size(), 20u);
  for (std::size_t s = 0; s < pushed.reports.size(); ++s) {
    expect_same_report(pushed.reports[s], stepped.reports[s], s);
  }
  // The simulated schedule is the same one.
  const service_stats& a = pushed.stats;
  const service_stats& b = stepped.stats;
  EXPECT_EQ(a.makespan_ps, b.makespan_ps);
  EXPECT_EQ(a.total_ticks, b.total_ticks);
  EXPECT_EQ(a.busy_bank_ticks, b.busy_bank_ticks);
  EXPECT_EQ(a.energy_fj, b.energy_fj);
  EXPECT_EQ(a.moved_insitu_bytes, b.moved_insitu_bytes);
  EXPECT_EQ(a.moved_offchip_bytes, b.moved_offchip_bytes);
  EXPECT_EQ(a.wait_admission_ps, b.wait_admission_ps);
  EXPECT_EQ(a.wait_hazard_ps, b.wait_hazard_ps);
  EXPECT_EQ(a.wait_bank_ps, b.wait_bank_ps);
  EXPECT_EQ(a.wait_exec_ps, b.wait_exec_ps);
  EXPECT_EQ(a.wait_lifetime_ps, b.wait_lifetime_ps);
  EXPECT_EQ(a.sched_submitted, b.sched_submitted);
  EXPECT_EQ(a.hazard_deferred, b.hazard_deferred);
  EXPECT_EQ(a.tasks_submitted, b.tasks_submitted);
  // ... as one request instead of one per step.
  EXPECT_EQ(pushed.program_requests, 1u);
  EXPECT_EQ(stepped.program_requests, 20u);
  EXPECT_EQ(a.requests_completed, a.requests_enqueued);
  EXPECT_EQ(b.requests_enqueued - a.requests_enqueued, 19u + 3u);
}

TEST(ServiceProgramTest, BaseImplementationMatchesThePushedDownProgram) {
  // client_api's own submit_program (one submit_bulk per step, then
  // reads) must answer exactly like service_client's override.
  struct stepwise final : client_api {
    explicit stepwise(service_client& c) : inner(&c) {}
    session_id id() const override { return inner->id(); }
    int shard_index() const override { return inner->shard_index(); }
    std::vector<dram::bulk_vector> allocate(bits size, int count) override {
      return inner->allocate(size, count);
    }
    void write(const dram::bulk_vector& v, const bitvector& d) override {
      inner->write(v, d);
    }
    bitvector read(const dram::bulk_vector& v) override {
      return inner->read(v);
    }
    request_future submit_bulk(dram::bulk_op op, const dram::bulk_vector& a,
                               const dram::bulk_vector* b,
                               const dram::bulk_vector& d) override {
      return inner->submit_bulk(op, a, b, d);
    }
    request_future submit_shared(dram::bulk_op op, const shared_vector& a,
                                 const shared_vector* b,
                                 const shared_vector& d) override {
      return inner->submit_shared(op, a, b, d);
    }
    void wait_all() override { inner->wait_all(); }
    std::uint64_t digest() override { return inner->digest(); }
    service_client* inner;
  };
  pim_service svc(small_service(1));
  svc.start();
  service_client direct(svc);
  service_client wrapped_inner(svc);
  stepwise wrapped(wrapped_inner);
  const bits size = 3'000;
  for (client_api* c : std::initializer_list<client_api*>{&direct, &wrapped}) {
    const auto v = c->allocate(size, 4);
    rng gen(41);
    std::vector<bitvector> values;
    for (const auto& vec : v) {
      values.push_back(bitvector::random(size, gen));
      c->write(vec, values.back());
    }
    std::vector<bitvector> expected = values;
    const request_future f =
        c->submit_program(random_program(v, 11, 8, expected), {v[2], v[0]});
    const request_result& r = f.get();
    ASSERT_EQ(r.reports.size(), 11u);
    ASSERT_EQ(r.outputs.size(), 2u);
    EXPECT_EQ(r.outputs[0], expected[2]);
    EXPECT_EQ(r.outputs[1], expected[0]);
    c->wait_all();
  }
  EXPECT_EQ(direct.digest(), wrapped.digest());
  // Malformed programs are refused up front by both.
  EXPECT_THROW(direct.submit_program({}, {}), std::invalid_argument);
  EXPECT_THROW(wrapped.submit_program({}, {}), std::invalid_argument);
  svc.stop();
}

TEST(ServiceProgramTest, RejectsOutputsNoStepTouches) {
  pim_service svc(small_service(1));
  svc.start();
  service_client client(svc);
  const auto v = client.allocate(1'000, 3);
  bulk_step s;
  s.op = dram::bulk_op::not_op;
  s.a = v[0];
  s.d = v[1];
  EXPECT_THROW(client.submit_program({s}, {v[2]}), std::invalid_argument);
  EXPECT_NO_THROW(client.submit_program({s}, {v[1], v[0]}).get());
  svc.stop();
}

/// Submits `args` for `session` with a completion hook that counts how
/// often the future resolves.
request_future submit_counted(pim_service& svc, session_id session,
                              program_args args, std::atomic<int>& resolved) {
  request r;
  r.session = session;
  r.completion = std::make_shared<request_state>();
  r.completion->on_done = [&resolved] { resolved.fetch_add(1); };
  r.payload = std::move(args);
  return svc.submit(std::move(r));
}

TEST(ServiceProgramTest, BadStepFailsTheProgramOnceAndTheSessionGoesOn) {
  pim_service svc(small_service(1));
  svc.start();
  service_client client(svc);
  const bits size = 1'000;
  const auto v = client.allocate(size, 3);
  rng gen(13);
  const bitvector a = bitvector::random(size, gen);
  client.write(v[0], a);
  client.write(v[2], a);

  // Step 1 names a vector this session never allocated.
  dram::bulk_vector foreign = v[1];
  for (dram::address& row : foreign.rows) row.row += 10'000;
  std::vector<bulk_step> steps(3);
  steps[0].op = dram::bulk_op::not_op;
  steps[0].a = v[0];
  steps[0].d = v[1];
  steps[1].op = dram::bulk_op::and_op;
  steps[1].a = v[1];
  steps[1].b = foreign;
  steps[1].d = v[1];
  steps[2].op = dram::bulk_op::not_op;  // dropped: the program failed
  steps[2].a = v[0];
  steps[2].d = v[2];

  const std::uint64_t failed_before = svc.stats().requests_failed;
  std::atomic<int> resolved{0};
  request_future f = submit_counted(svc, client.id(),
                                    make_program(steps, {v[1], v[2]}),
                                    resolved);
  try {
    f.get();
    ADD_FAILURE() << "program with a foreign vector completed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not resident"), std::string::npos)
        << e.what();
  }

  // The session's later requests still run.
  client.submit_bulk(dram::bulk_op::not_op, v[0], nullptr, v[1]).get();
  EXPECT_EQ(client.read(v[1]), ~a);
  EXPECT_EQ(client.read(v[2]), a);  // step 2 never ran
  EXPECT_EQ(resolved.load(), 1);
  EXPECT_EQ(svc.stats().requests_failed - failed_before, 1u);
  svc.stop();
  EXPECT_EQ(resolved.load(), 1);
}

TEST(ServiceProgramTest, ShardStopFailsAQueuedProgramOnce) {
  pim_service svc(small_service(1));
  svc.start();
  service_client client(svc);
  const auto v = client.allocate(1'000, 3);
  std::vector<bitvector> values(3, bitvector(1'000));
  std::vector<bulk_step> steps = random_program(v, 12, 3, values);
  const std::vector<dram::bulk_vector> outputs = {steps.back().d};

  svc.pause();
  std::atomic<int> resolved{0};
  request_future f = submit_counted(svc, client.id(),
                                    make_program(steps, outputs), resolved);
  svc.stop();  // never resumed: all 12 steps are still queued
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_EQ(resolved.load(), 1);
  EXPECT_EQ(svc.stats().requests_failed, 1u);
}

TEST(ServiceProgramTest, ProgramLongerThanTheQueueBoundCompletes) {
  service_config cfg = small_service(1);
  ASSERT_EQ(cfg.shard.session_queue_capacity, 64u);
  pim_service svc(cfg);
  svc.start();
  service_client client(svc);
  const bits size = 1'000;
  const auto v = client.allocate(size, 4);
  rng gen(17);
  std::vector<bitvector> values;
  for (const auto& vec : v) {
    values.push_back(bitvector::random(size, gen));
    client.write(vec, values.back());
  }
  // 150 steps into a 64-entry queue, twice back to back, then a plain
  // submit that must wait for queue space like any other.
  std::vector<bitvector> expected = values;
  std::vector<bulk_step> first = random_program(v, 150, 21, expected);
  std::vector<bulk_step> second = random_program(v, 150, 22, expected);
  request_future f1 = client.submit_program(first, {v[0], v[3]});
  request_future f2 = client.submit_program(second, {v[1], v[2]});
  request_future f3 =
      client.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1], v[3]);
  EXPECT_EQ(f1.get().reports.size(), 150u);
  EXPECT_EQ(f2.get().outputs[0], expected[1]);
  EXPECT_EQ(f2.get().outputs[1], expected[2]);
  f3.get();
  EXPECT_EQ(client.read(v[3]), expected[0] ^ expected[1]);
  svc.stop();
  EXPECT_EQ(svc.stats().requests_failed, 0u);
}

TEST(ServiceSessionTest, SessionsSpreadAndClientsSeeTheirShard) {
  service_config cfg = small_service(4);
  cfg.routing = shard_routing::range;
  cfg.sessions_per_shard = 2;
  pim_service svc(cfg);
  svc.start();
  std::vector<service_client> clients;
  clients.reserve(8);
  std::vector<int> per_shard(4, 0);
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back(svc);
    ++per_shard[static_cast<std::size_t>(clients.back().shard_index())];
  }
  for (int count : per_shard) EXPECT_EQ(count, 2);
  svc.stop();
}

}  // namespace
}  // namespace pim::service
