// Concurrency stress for the sharded PIM service: many client threads
// hammer a multi-shard service and every result must be bit-for-bit
// identical to a single-threaded reference execution. This binary is
// the ThreadSanitizer target in CI — it exercises the full
// client-thread / shard-worker handshake (admission, backpressure,
// cross-thread futures, pause/resume, stop) under real parallelism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "service/synthetic.h"

namespace pim::service {
namespace {

core::pim_system_config stress_system() {
  core::pim_system_config cfg;
  cfg.org.channels = 2;
  cfg.org.ranks = 1;
  cfg.org.banks = 8;
  cfg.org.subarrays = 8;
  cfg.org.rows = 512;
  cfg.org.columns = 16;
  return cfg;
}

std::vector<synthetic_config> stress_population(int clients, int ops) {
  std::vector<synthetic_config> population;
  for (int i = 0; i < clients; ++i) {
    synthetic_config c;
    c.ops = ops;
    c.groups = 2;
    c.vector_bits = 3'000;
    c.seed = static_cast<std::uint64_t>(900 + i);
    c.dependent_fraction = 0.3;
    population.push_back(c);
  }
  return population;
}

std::vector<std::uint64_t> reference_digests(
    const std::vector<synthetic_config>& population) {
  std::vector<std::uint64_t> digests;
  for (const synthetic_config& c : population) {
    core::pim_system sys(stress_system());
    digests.push_back(run_synthetic_reference(sys, c).digest);
  }
  return digests;
}

std::vector<std::uint64_t> outcome_digests(
    const std::vector<client_outcome>& outcomes) {
  std::vector<std::uint64_t> digests;
  for (const client_outcome& o : outcomes) digests.push_back(o.digest);
  return digests;
}

TEST(ServiceStressTest, ManyThreadedClientsMatchReferenceDigests) {
  const auto population = stress_population(16, 24);
  const auto expected = reference_digests(population);

  service_config cfg;
  cfg.shards = 4;
  cfg.system = stress_system();
  cfg.shard.session_queue_capacity = 24;
  pim_service svc(cfg);
  svc.start();
  const auto outcomes =
      run_synthetic_fleet(svc, population, /*burst=*/true);
  svc.stop();

  EXPECT_EQ(outcome_digests(outcomes), expected);
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.tasks_submitted, 16u * 24u);
  EXPECT_EQ(stats.sched_completed, stats.sched_submitted);
  EXPECT_EQ(stats.requests_completed, stats.requests_enqueued);
}

TEST(ServiceStressTest, FreeRunningClientsAlsoMatch) {
  // No burst choreography: clients race the workers' free-running tick
  // loops, the nastiest interleaving for the queue handshake.
  const auto population = stress_population(12, 16);
  const auto expected = reference_digests(population);

  service_config cfg;
  cfg.shards = 3;
  cfg.system = stress_system();
  cfg.shard.session_queue_capacity = 4;  // small: force blocking admission
  pim_service svc(cfg);
  svc.start();
  const auto outcomes =
      run_synthetic_fleet(svc, population, /*burst=*/false);
  svc.stop();

  EXPECT_EQ(outcome_digests(outcomes), expected);
  EXPECT_EQ(svc.stats().requests_failed, 0u);
}

TEST(ServiceStressTest, MigrationUnderInflightTrafficKeepsDigests) {
  // Sessions are yanked between shards while their client threads are
  // mid-storm: backlogs are forwarded, vector contents staged across,
  // and every digest must still match the single-threaded reference.
  const auto population = stress_population(12, 16);
  const auto expected = reference_digests(population);

  service_config cfg;
  cfg.shards = 4;
  cfg.system = stress_system();
  cfg.shard.session_queue_capacity = 16;
  pim_service svc(cfg);
  svc.start();

  std::atomic<bool> done{false};
  std::thread migrator([&svc, &done] {
    rng gen(4242);
    while (!done.load()) {
      const session_id victim = gen.next_below(12);
      const int target = static_cast<int>(gen.next_below(4));
      try {
        svc.migrate_session(victim, target);
      } catch (const std::invalid_argument&) {
        // The victim session may not have opened yet; harmless.
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const auto outcomes = run_synthetic_fleet(svc, population, /*burst=*/false);
  done.store(true);
  migrator.join();

  // Deterministic tail: force a couple of migrations after the storm
  // and re-verify the data survived them.
  svc.migrate_session(0, 1);
  svc.migrate_session(0, 2);
  svc.stop();

  EXPECT_EQ(outcome_digests(outcomes), expected);
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_GE(stats.migrations, 2u);
}

TEST(ServiceStressTest, CrossShardTrafficMatchesReference) {
  // A quarter of every client's binary ops read the neighbor's
  // published vector — across shards, through the two-phase planner —
  // under full thread contention. Digests must match the functional
  // reference (which regenerates the neighbors' published contents).
  auto population = stress_population(12, 16);
  for (auto& c : population) c.cross_fraction = 0.25;

  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < population.size(); ++i) {
    core::pim_system sys(stress_system());
    const synthetic_config& neighbor =
        population[(i + 1) % population.size()];
    expected.push_back(
        run_synthetic_reference(sys, population[i], &neighbor).digest);
  }

  service_config cfg;
  cfg.shards = 3;
  cfg.system = stress_system();
  cfg.shard.session_queue_capacity = 24;
  pim_service svc(cfg);
  svc.start();
  const auto outcomes = run_synthetic_fleet(svc, population, /*burst=*/false);
  svc.stop();

  EXPECT_EQ(outcome_digests(outcomes), expected);
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_GT(stats.cross_plans, 0u);
  EXPECT_GT(stats.staged_bytes, 0u);
}

TEST(ServiceStressTest, CrossShardTrafficSurvivesConcurrentMigration) {
  // The full gauntlet: cross-shard plans racing session migrations.
  // Plans pin their sessions, migrations wait them out, and the
  // results must still be bit-exact.
  auto population = stress_population(8, 12);
  for (auto& c : population) c.cross_fraction = 0.2;

  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < population.size(); ++i) {
    core::pim_system sys(stress_system());
    const synthetic_config& neighbor =
        population[(i + 1) % population.size()];
    expected.push_back(
        run_synthetic_reference(sys, population[i], &neighbor).digest);
  }

  service_config cfg;
  cfg.shards = 3;
  cfg.system = stress_system();
  cfg.shard.session_queue_capacity = 16;
  pim_service svc(cfg);
  svc.start();
  std::atomic<bool> done{false};
  std::thread migrator([&svc, &done] {
    rng gen(777);
    while (!done.load()) {
      try {
        svc.migrate_session(gen.next_below(8),
                            static_cast<int>(gen.next_below(3)));
      } catch (const std::invalid_argument&) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  const auto outcomes = run_synthetic_fleet(svc, population, /*burst=*/false);
  done.store(true);
  migrator.join();
  svc.stop();

  EXPECT_EQ(outcome_digests(outcomes), expected);
  EXPECT_EQ(svc.stats().requests_failed, 0u);
}

TEST(ServiceStressTest, ProgramsSurviveMigrationMidProgram) {
  // Pushed-down programs racing session migrations. A migration can
  // split a program: steps already released complete on the old
  // shard's worker, the forwarded rest on the new one, so the
  // program's fan-in is updated from two threads. Every program must
  // still resolve exactly once, with the bits a host model predicts.
  constexpr int kClients = 6;
  constexpr int kRounds = 10;
  constexpr int kSteps = 24;
  constexpr bits kSize = 3'000;
  service_config cfg;
  cfg.shards = 3;
  cfg.system = stress_system();
  cfg.shard.session_queue_capacity = 16;
  pim_service svc(cfg);
  svc.start();
  std::vector<std::unique_ptr<service_client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<service_client>(svc));
  }

  std::atomic<bool> done{false};
  std::thread migrator([&] {
    rng gen(31337);
    while (!done.load()) {
      const session_id victim = clients[gen.next_below(kClients)]->id();
      svc.migrate_session(victim, static_cast<int>(gen.next_below(3)));
      std::this_thread::sleep_for(std::chrono::microseconds(150));
    }
  });

  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> drivers;
  for (int c = 0; c < kClients; ++c) {
    drivers.emplace_back([&, c] {
      service_client& client = *clients[static_cast<std::size_t>(c)];
      const auto v = client.allocate(kSize, 4);
      rng gen(500 + static_cast<std::uint64_t>(c));
      std::vector<bitvector> model;
      for (const auto& vec : v) {
        model.push_back(bitvector::random(kSize, gen));
        client.write(vec, model.back());
      }
      const auto& ops = dram::all_bulk_ops();
      // Two programs in flight at once, so a migration finds steps of
      // both queued and released.
      auto build = [&](std::vector<bitvector>& values) {
        std::vector<bulk_step> steps;
        for (int i = 0; i < kSteps; ++i) {
          bulk_step st;
          st.op = ops[gen.next_below(ops.size())];
          const std::size_t a = gen.next_below(v.size());
          const std::size_t b = gen.next_below(v.size());
          const std::size_t d = gen.next_below(v.size());
          st.a = v[a];
          if (!dram::is_unary(st.op)) st.b = v[b];
          st.d = v[d];
          values[d] = dram::ambit_engine::apply(
              st.op, values[a], dram::is_unary(st.op) ? values[a] : values[b]);
          steps.push_back(std::move(st));
        }
        return steps;
      };
      for (int round = 0; round < kRounds; ++round) {
        std::vector<bitvector> after_first = model;
        std::vector<bulk_step> first = build(after_first);
        std::vector<bitvector> after_second = after_first;
        std::vector<bulk_step> second = build(after_second);
        try {
          request_future f1 = client.submit_program(first, {v[0], v[1]});
          request_future f2 = client.submit_program(second, {v[2], v[3]});
          const request_result& r1 = f1.get();
          const request_result& r2 = f2.get();
          if (r1.outputs[0] != after_first[0] ||
              r1.outputs[1] != after_first[1] ||
              r2.outputs[0] != after_second[2] ||
              r2.outputs[1] != after_second[3] ||
              r1.reports.size() != kSteps || r2.reports.size() != kSteps) {
            mismatches.fetch_add(1);
          }
          client.wait_all();
        } catch (const std::exception&) {
          errors.fetch_add(1);
        }
        model = std::move(after_second);
      }
      for (std::size_t k = 0; k < v.size(); ++k) {
        if (client.read(v[k]) != model[k]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  done.store(true);
  migrator.join();
  svc.stop();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(errors.load(), 0);
  const service_stats stats = svc.stats();
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_EQ(stats.sched_completed, stats.sched_submitted);
}

TEST(ServiceStressTest, RepeatedStartStopCyclesAreClean) {
  const auto population = stress_population(6, 8);
  const auto expected = reference_digests(population);
  for (int cycle = 0; cycle < 3; ++cycle) {
    service_config cfg;
    cfg.shards = 2;
    cfg.system = stress_system();
    pim_service svc(cfg);
    svc.start();
    const auto outcomes =
        run_synthetic_fleet(svc, population, /*burst=*/false);
    EXPECT_EQ(outcome_digests(outcomes), expected) << "cycle " << cycle;
    svc.stop();
    // stop() is idempotent and stats survive it.
    svc.stop();
    EXPECT_EQ(svc.stats().requests_failed, 0u);
  }
}

}  // namespace
}  // namespace pim::service
