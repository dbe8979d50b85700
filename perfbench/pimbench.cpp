// pimbench: the repository benchmark driver.
//
//   pimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload against the library's public surfaces
// (service::client_api, net::pim_server/remote_client, query::plan_query/
// execute, core::pim_system) and prints human-readable lines followed by
// one JSON result line. --trace 0 reports the end-to-end metrics of an
// untraced timed phase; --trace 1 reports per-layer metrics from a traced
// phase, a bare core::pim_system replay of the same op stream, and (for
// the socket workload) an in-process replay and codec timing. Every
// timing is taken here, around calls into a layer; nothing inside the
// library is instrumented. README.md in this directory documents the
// workloads and which end-to-end metric each layer metric should move.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/digest.h"
#include "core/pim_system.h"
#include "db/bitweaving.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "query/exec.h"
#include "service/client.h"

namespace {

using namespace pim;
using steady = std::chrono::steady_clock;

// --- shapes shared by every workload -------------------------------------

constexpr int kShards = 2;
/// Sim metrics and the sim-identity check cover this many epochs at the
/// start of a segment: a fixed amount of work, so they do not depend on how
/// many epochs the host managed in the timed window.
constexpr int kSimEpochs = 4;
/// A timed phase is split into this many segments, each on a freshly
/// set up stack: one run then samples several placements of its threads
/// on the host's cores instead of betting the whole run on one.
constexpr int kSegments = 5;

double us_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double seconds_since(steady::time_point a) {
  return std::chrono::duration<double>(steady::now() - a).count();
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Jiffies summed over all CPUs since boot: {stolen, total}, from the
/// first line of /proc/stat. Steal is time the host ran something else
/// while one of this machine's vCPUs wanted to run. {0, 0} when the file
/// is unreadable.
std::pair<std::uint64_t, std::uint64_t> cpu_jiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  std::uint64_t v[8] = {};
  const int n = std::fscanf(f, "cpu %lu %lu %lu %lu %lu %lu %lu %lu", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  std::uint64_t total = 0;
  for (std::uint64_t x : v) total += x;
  return {v[7], total};
}

/// One shard's simulated stack: 8 banks x 8 subarrays of 8 KiB rows.
core::pim_system_config shard_system() {
  core::pim_system_config cfg;
  cfg.org.channels = 1;
  cfg.org.ranks = 1;
  cfg.org.banks = 8;
  cfg.org.subarrays = 8;
  cfg.org.rows = 1024;
  cfg.org.columns = 128;
  return cfg;
}

/// 128 columns of 64-byte bursts: 8 KiB rows.
constexpr bits kRowBits = 128 * 64 * 8;

/// Two shards, one session per shard: session i lands on shard i, so
/// each shard serves one closed-loop stream and its simulated clock is
/// independent of host thread timing.
service::service_config service_cfg() {
  service::service_config cfg;
  cfg.shards = kShards;
  cfg.system = shard_system();
  cfg.routing = service::shard_routing::range;
  cfg.sessions_per_shard = 1;
  return cfg;
}

void require_distinct_shards(const std::vector<service::client_api*>& cs) {
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (cs[i]->shard_index() != static_cast<int>(i)) {
      throw std::runtime_error("session " + std::to_string(i) +
                               " did not land on shard " + std::to_string(i));
    }
  }
}

// --- recording -------------------------------------------------------------

enum kind : int { k_write, k_read, k_op, k_query, k_kinds };
constexpr std::array<const char*, k_kinds> kind_names = {"write", "read", "op",
                                                         "query"};

/// What one driver thread observed: per-request latency by request
/// type, failures, and (traced runs) durations of calls into layers.
struct recorder {
  std::array<std::vector<double>, k_kinds> lat_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // threw, or returned a wrong result
  std::string first_error;
  /// Traced runs: named samples of calls into a layer (durations in us)
  /// or of per-call counts.
  std::map<std::string, std::vector<double>> samples;

  void ok(kind k, double us) {
    ++attempted;
    lat_us[k].push_back(us);
  }
  void error(const std::string& what) {
    ++attempted;
    ++failed;
    if (first_error.empty()) first_error = what;
  }
  /// A request that completed but returned the wrong result.
  void wrong(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
  void sample(const std::string& name, double value) {
    samples[name].push_back(value);
  }

  std::vector<double> pooled() const {
    std::vector<double> all;
    for (const auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
  std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (const auto& v : lat_us) n += v.size();
    return n;
  }
  /// Adds `o`'s request counts and first error, not its samples.
  void count(const recorder& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (first_error.empty()) first_error = o.first_error;
  }
  void merge(const recorder& o) {
    for (int k = 0; k < k_kinds; ++k) {
      lat_us[k].insert(lat_us[k].end(), o.lat_us[k].begin(), o.lat_us[k].end());
    }
    count(o);
    for (const auto& [name, v] : o.samples) {
      auto& dst = samples[name];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }
};

/// Runs `f` as one timed client request of type `k`.
template <class F>
void timed_request(recorder& rec, kind k, F&& f) {
  const auto t0 = steady::now();
  try {
    f();
  } catch (const std::exception& e) {
    rec.error(e.what());
    return;
  }
  rec.ok(k, us_between(t0, steady::now()));
}

/// Clears a client's future bookkeeping at the end of an epoch. Every
/// future was already read, and a failure counted, in the driver loop.
void drop_futures(service::client_api& c) {
  try {
    c.wait_all();
  } catch (const std::exception&) {
  }
}

/// Forwards every call to a client and times the ones a query makes, so
/// the executor's own submit/read calls are measured from outside.
class timed_client final : public service::client_api {
 public:
  explicit timed_client(service::client_api& inner) : inner_(&inner) {}

  service::session_id id() const override { return inner_->id(); }
  int shard_index() const override { return inner_->shard_index(); }
  std::vector<dram::bulk_vector> allocate(bits size, int count) override {
    return inner_->allocate(size, count);
  }
  void write(const dram::bulk_vector& v, const bitvector& data) override {
    const auto t0 = steady::now();
    inner_->write(v, data);
    rec_.sample("service.write", us_between(t0, steady::now()));
  }
  bitvector read(const dram::bulk_vector& v) override {
    const auto t0 = steady::now();
    bitvector out = inner_->read(v);
    rec_.sample("service.read", us_between(t0, steady::now()));
    return out;
  }
  service::request_future submit_bulk(dram::bulk_op op,
                                      const dram::bulk_vector& a,
                                      const dram::bulk_vector* b,
                                      const dram::bulk_vector& d) override {
    const auto t0 = steady::now();
    service::request_future f = inner_->submit_bulk(op, a, b, d);
    rec_.sample("service.submit", us_between(t0, steady::now()));
    return f;
  }
  service::request_future submit_shared(
      dram::bulk_op op, const service::shared_vector& a,
      const service::shared_vector* b,
      const service::shared_vector& d) override {
    return inner_->submit_shared(op, a, b, d);
  }
  void wait_all() override { inner_->wait_all(); }
  std::uint64_t digest() override { return inner_->digest(); }

  /// Driven by one thread at a time (client_api contract), so the
  /// recorder needs no lock; read it only between queries.
  const recorder& samples() const { return rec_; }

 private:
  service::client_api* inner_;
  recorder rec_;
};

// --- simulated-clock counters ----------------------------------------------

/// Service counters a pass differences per epoch.
struct sim_counters {
  std::uint64_t makespan_ps = 0;
  std::uint64_t ticks = 0;
  std::uint64_t busy_bank_ticks = 0;
  std::uint64_t energy_fj = 0;
  std::uint64_t insitu = 0, offchip = 0, wire = 0;
  std::uint64_t wait_admission = 0, wait_hazard = 0, wait_bank = 0;
  std::uint64_t wait_exec = 0, wait_wire = 0, wait_lifetime = 0;
  std::uint64_t submitted = 0, hazard_deferred = 0;

  static sim_counters of(const service::service_stats& s) {
    return {static_cast<std::uint64_t>(s.makespan_ps),
            s.total_ticks,
            s.busy_bank_ticks,
            s.energy_fj,
            static_cast<std::uint64_t>(s.moved_insitu_bytes),
            static_cast<std::uint64_t>(s.moved_offchip_bytes),
            static_cast<std::uint64_t>(s.moved_wire_bytes),
            s.wait_admission_ps,
            s.wait_hazard_ps,
            s.wait_bank_ps,
            s.wait_exec_ps,
            s.wait_wire_ps,
            s.wait_lifetime_ps,
            s.sched_submitted,
            s.hazard_deferred};
  }

  static constexpr std::array fields = {
      &sim_counters::makespan_ps,    &sim_counters::ticks,
      &sim_counters::busy_bank_ticks, &sim_counters::energy_fj,
      &sim_counters::insitu,         &sim_counters::offchip,
      &sim_counters::wire,           &sim_counters::wait_admission,
      &sim_counters::wait_hazard,    &sim_counters::wait_bank,
      &sim_counters::wait_exec,      &sim_counters::wait_wire,
      &sim_counters::wait_lifetime,  &sim_counters::submitted,
      &sim_counters::hazard_deferred};

  sim_counters operator-(const sim_counters& o) const {
    sim_counters d;
    for (auto f : fields) d.*f = this->*f - o.*f;
    return d;
  }
  sim_counters& operator+=(const sim_counters& o) {
    for (auto f : fields) this->*f += o.*f;
    return *this;
  }
};

// --- workloads ---------------------------------------------------------------

/// What a replay of a workload's op stream on bare core::pim_system
/// instances measured: the layers under the service with the service
/// taken away.
struct bare_result {
  std::array<std::vector<double>, k_kinds> lat_us;  // same request types
  double runtime_s = 0;  // host time inside submit_bulk + wait
  std::uint64_t ticks = 0;
  double write_s = 0, write_kib = 0;
  double read_s = 0, read_kib = 0;
  std::uint64_t mismatches = 0;

  void merge(const bare_result& o) {
    for (int k = 0; k < k_kinds; ++k) {
      lat_us[k].insert(lat_us[k].end(), o.lat_us[k].begin(), o.lat_us[k].end());
    }
    runtime_s += o.runtime_s;
    ticks += o.ticks;
    write_s += o.write_s;
    write_kib += o.write_kib;
    read_s += o.read_s;
    read_kib += o.read_kib;
    mismatches += o.mismatches;
  }
};

/// Times pim_system calls for a bare replay.
class bare_meter {
 public:
  explicit bare_meter(core::pim_system& sys) : sys_(&sys) {}

  void write(const dram::bulk_vector& v, const bitvector& data) {
    const auto t0 = steady::now();
    sys_->write(v, data);
    const double us = us_between(t0, steady::now());
    r.lat_us[k_write].push_back(us);
    r.write_s += us / 1e6;
    r.write_kib += static_cast<double>(data.size()) / 8192.0;
  }
  bitvector read(const dram::bulk_vector& v) {
    const auto t0 = steady::now();
    bitvector out = sys_->read(v);
    const double us = us_between(t0, steady::now());
    r.lat_us[k_read].push_back(us);
    r.read_s += us / 1e6;
    r.read_kib += static_cast<double>(out.size()) / 8192.0;
    return out;
  }
  /// Times `submit` plus the wait for everything it submitted: the
  /// runtime's host time and the ticks it advanced.
  template <class Submit>
  double run(Submit&& submit) {
    const std::uint64_t ticks0 = sys_->runtime().stats().sched.ticks;
    const auto t0 = steady::now();
    submit(*sys_);
    sys_->wait_all();
    const double us = us_between(t0, steady::now());
    r.runtime_s += us / 1e6;
    r.ticks += sys_->runtime().stats().sched.ticks - ticks0;
    return us;
  }

  bare_result r;

 private:
  core::pim_system* sys_;
};

class workload {
 public:
  virtual ~workload() = default;
  virtual const char* name() const = 0;
  /// Closed-loop driver threads the timed phase runs.
  virtual int driver_threads() const = 0;
  /// Starts the stack, opens sessions, allocates and loads data.
  /// `traced` wraps sessions in timed_client where the workload's calls
  /// are made by library code rather than by the driver loop.
  virtual void setup(bool traced) = 0;
  /// One epoch of the op stream on driver thread `t`: a fixed request
  /// sequence, the same every epoch.
  virtual void run_epoch(int t, recorder& rec, bool traced) = 0;
  virtual service::pim_service& service() = 0;
  /// End-of-pass checks (digests); records mismatches in `rec`.
  virtual void verify(recorder&) {}
  /// Samples gathered by timed_client wrappers during the pass.
  virtual void collect_samples(recorder&) {}
  /// The op stream replayed on bare core::pim_system instances for
  /// about `seconds`.
  virtual bare_result replay_bare(double seconds) = 0;
  virtual void teardown() = 0;
};

// ingest_readback: write a, write b, d = a XOR b, read d — row I/O heavy.
class ingest_readback final : public workload {
 public:
  static constexpr bits kVectorBits = 4 * kRowBits;  // 32 KiB, 4 rows
  static constexpr int kPool = 8;       // seeded input vectors per thread
  static constexpr int kIterations = 16;  // per thread per epoch

  explicit ingest_readback(std::uint64_t seed) {
    rng gen(seed);
    for (int t = 0; t < kShards; ++t) {
      for (int i = 0; i < kPool; ++i) {
        pool_[t].push_back(bitvector::random(kVectorBits, gen));
      }
      for (int p = 0; p < kPool / 2; ++p) {
        expected_[t].push_back(pool_[t][2 * p] ^ pool_[t][2 * p + 1]);
      }
    }
  }

  const char* name() const override { return "ingest_readback"; }
  int driver_threads() const override { return kShards; }

  void setup(bool) override {
    svc_ = std::make_unique<service::pim_service>(service_cfg());
    svc_->start();
    std::vector<service::client_api*> raw;
    for (int t = 0; t < kShards; ++t) {
      clients_[t] = std::make_unique<service::service_client>(*svc_);
      raw.push_back(clients_[t].get());
    }
    require_distinct_shards(raw);
    for (int t = 0; t < kShards; ++t) {
      vecs_[t] = clients_[t]->allocate(kVectorBits, 3);
    }
  }

  void run_epoch(int t, recorder& rec, bool) override {
    service::service_client& c = *clients_[t];
    const auto& v = vecs_[t];
    for (int i = 0; i < kIterations; ++i) {
      const int pair = i % (kPool / 2);
      timed_request(rec, k_write, [&] { c.write(v[0], pool_[t][2 * pair]); });
      timed_request(rec, k_write,
                    [&] { c.write(v[1], pool_[t][2 * pair + 1]); });
      timed_request(rec, k_op, [&] {
        c.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1], v[2]).get();
      });
      bitvector got;
      timed_request(rec, k_read, [&] { got = c.read(v[2]); });
      if (got != expected_[t][static_cast<std::size_t>(pair)]) {
        rec.wrong("ingest_readback: read-back differs from host XOR");
      }
    }
    drop_futures(c);
  }

  service::pim_service& service() override { return *svc_; }

  bare_result replay_bare(double seconds) override {
    core::pim_system sys(shard_system());
    bare_meter m(sys);
    const auto v = sys.allocate(kVectorBits, 3);
    const auto start = steady::now();
    for (int i = 0; seconds_since(start) < seconds; ++i) {
      const int pair = i % (kPool / 2);
      m.write(v[0], pool_[0][2 * pair]);
      m.write(v[1], pool_[0][2 * pair + 1]);
      m.r.lat_us[k_op].push_back(m.run([&](core::pim_system& s) {
        s.submit_bulk(dram::bulk_op::xor_op, v[0], &v[1], v[2]);
      }));
      if (m.read(v[2]) != expected_[0][static_cast<std::size_t>(pair)]) {
        ++m.r.mismatches;
      }
    }
    return m.r;
  }

  void teardown() override {
    for (auto& c : clients_) c.reset();
    if (svc_) svc_->stop();
    svc_.reset();
  }

 private:
  std::array<std::vector<bitvector>, kShards> pool_;
  std::array<std::vector<bitvector>, kShards> expected_;
  std::unique_ptr<service::pim_service> svc_;
  std::array<std::unique_ptr<service::service_client>, kShards> clients_;
  std::array<std::vector<dram::bulk_vector>, kShards> vecs_;
};

// scan_query: bench_query's six-query BitWeaving scan mix over a
// 65,536-row table in two partitions — cycle-loop heavy, no row writes.
class scan_query final : public workload {
 public:
  static constexpr std::size_t kRows = 65536;
  static constexpr int kXBits = 8, kYBits = 6;
  static constexpr int kSlices = kXBits + kYBits;
  static constexpr int kScratch = 16;

  explicit scan_query(std::uint64_t seed) {
    rng gen(seed);
    x_ = db::random_column(kRows, kXBits, gen);
    y_ = db::random_column(kRows, kYBits, gen);
    specs_ = scan_mix();
    const db::bitslice_storage sx(x_);
    const db::bitslice_storage sy(y_);
    for (const query::query_spec& spec : specs_) {
      plans_.push_back(query::plan_query(schema_, spec));
      const bitvector sel = reference(spec, sx, sy);
      expected_.push_back(fnv1a(fnv1a_basis, sel));
    }
  }

  const char* name() const override { return "scan_query"; }
  int driver_threads() const override { return 1; }

  void setup(bool traced) override {
    svc_ = std::make_unique<service::pim_service>(service_cfg());
    svc_->start();
    std::vector<service::client_api*> raw;
    for (int p = 0; p < kShards; ++p) {
      clients_.push_back(std::make_unique<service::service_client>(*svc_));
      raw.push_back(clients_.back().get());
    }
    require_distinct_shards(raw);
    if (traced) {
      for (auto* c : raw) wrappers_.push_back(std::make_unique<timed_client>(*c));
      raw.clear();
      for (const auto& w : wrappers_) raw.push_back(w.get());
    }
    table_ = std::make_unique<query::pim_table>(schema_, kRows, raw, kScratch);
    table_->load("x", x_);
    table_->load("y", y_);
  }

  void run_epoch(int, recorder& rec, bool traced) override {
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      query::query_result result;
      const auto t0 = steady::now();
      try {
        if (traced) {
          const query::query_plan plan =
              query::plan_query(schema_, specs_[i]);
          const auto t1 = steady::now();
          result = query::execute(*table_, plan);
          const auto t2 = steady::now();
          rec.sample("query.plan", us_between(t0, t1));
          rec.sample("query.exec", us_between(t1, t2));
          rec.sample("query.ops", static_cast<double>(result.ops_submitted));
        } else {
          result = query::run_query(*table_, specs_[i]);
        }
      } catch (const std::exception& e) {
        rec.error(e.what());
        continue;
      }
      rec.ok(k_query, us_between(t0, steady::now()));
      if (result.digest != expected_[i]) {
        rec.wrong("scan_query: selection differs from db::evaluate");
      }
    }
  }

  service::pim_service& service() override { return *svc_; }

  void collect_samples(recorder& rec) override {
    for (const auto& w : wrappers_) rec.merge(w->samples());
  }

  bare_result replay_bare(double seconds) override {
    // One bare system per partition, each on its own thread, like the
    // service's two shards. Group layout as in pim_table: x slices, y
    // slices, scratch.
    const std::size_t part_rows = kRows / kShards;
    std::vector<bitvector> selections(kShards);
    std::vector<std::unique_ptr<core::pim_system>> systems;
    std::vector<std::unique_ptr<bare_meter>> meters;
    std::vector<std::vector<dram::bulk_vector>> groups;
    for (int p = 0; p < kShards; ++p) {
      systems.push_back(std::make_unique<core::pim_system>(shard_system()));
      meters.push_back(std::make_unique<bare_meter>(*systems.back()));
      groups.push_back(
          systems.back()->allocate(part_rows, kSlices + kScratch));
      int slot = 0;
      for (const db::column* col : {&x_, &y_}) {
        db::column part{col->bit_width,
                        {col->values.begin() + p * part_rows,
                         col->values.begin() + (p + 1) * part_rows}};
        const db::bitslice_storage st(part);
        for (int b = 0; b < st.width(); ++b) {
          meters.back()->write(groups.back()[slot++], st.slice(b));
        }
      }
    }
    bare_result out;
    const auto start = steady::now();
    for (std::size_t q = 0; seconds_since(start) < seconds; ++q) {
      const std::size_t i = q % plans_.size();
      const query::query_plan& plan = plans_[i];
      const auto t0 = steady::now();
      std::vector<std::thread> workers;
      for (int p = 0; p < kShards; ++p) {
        workers.emplace_back([&, p] {
          const auto& g = groups[static_cast<std::size_t>(p)];
          auto reg = [&](int r) -> const dram::bulk_vector& {
            if (r < plan.input_count()) {
              const query::slice_ref& in =
                  plan.inputs[static_cast<std::size_t>(r)];
              return g[static_cast<std::size_t>(in.column * kXBits + in.bit)];
            }
            return g[static_cast<std::size_t>(kSlices + r - plan.input_count())];
          };
          bare_meter& m = *meters[static_cast<std::size_t>(p)];
          m.run([&](core::pim_system& s) {
            for (const query::plan_step& st : plan.steps) {
              s.submit_bulk(st.op, reg(st.a),
                            st.b < 0 ? nullptr : &reg(st.b), reg(st.d));
            }
          });
          selections[static_cast<std::size_t>(p)] = m.read(reg(plan.selection));
        });
      }
      for (std::thread& w : workers) w.join();
      out.lat_us[k_query].push_back(us_between(t0, steady::now()));
      bitvector whole(kRows);
      for (int p = 0; p < kShards; ++p) {
        const bitvector& s = selections[static_cast<std::size_t>(p)];
        for (std::size_t r = 0; r < s.size(); ++r) {
          whole.set(p * part_rows + r, s.get(r));
        }
      }
      if (fnv1a(fnv1a_basis, whole) != expected_[i]) ++out.mismatches;
    }
    for (const auto& m : meters) out.merge(m->r);
    return out;
  }

  void teardown() override {
    table_.reset();
    wrappers_.clear();
    clients_.clear();
    if (svc_) svc_->stop();
    svc_.reset();
  }

 private:
  /// bench_query's scan mix: selective and unselective single-column
  /// scans plus two-column trees.
  static std::vector<query::query_spec> scan_mix() {
    using query::predicate_node;
    auto leaf = [](const char* col, db::cmp_op op, std::uint32_t v,
                   std::uint32_t v2 = 0) {
      return predicate_node::leaf(col, {op, v, v2});
    };
    std::vector<query::query_spec> specs(6);
    specs[0].where = leaf("x", db::cmp_op::lt, 32);
    specs[1].where = leaf("x", db::cmp_op::lt, 128);
    specs[2].where = leaf("x", db::cmp_op::between, 40, 200);
    specs[3].where = predicate_node::land(leaf("x", db::cmp_op::lt, 100),
                                          leaf("y", db::cmp_op::ge, 16));
    specs[4].where = predicate_node::lor(leaf("x", db::cmp_op::eq, 7),
                                         leaf("y", db::cmp_op::lt, 8));
    specs[5].where = leaf("x", db::cmp_op::ne, 55);
    return specs;
  }

  /// The synchronous host evaluation (db::evaluate) of a one- or
  /// two-leaf predicate tree.
  static bitvector reference(const query::query_spec& spec,
                             const db::bitslice_storage& sx,
                             const db::bitslice_storage& sy) {
    using nk = query::predicate_node::node_kind;
    auto leaf = [&](const query::predicate_node& n) {
      return db::evaluate(n.column == "x" ? sx : sy, n.pred).selection;
    };
    if (spec.where.kind == nk::leaf) return leaf(spec.where);
    const bitvector a = leaf(spec.where.children[0]);
    const bitvector b = leaf(spec.where.children[1]);
    return spec.where.kind == nk::logic_and ? (a & b) : (a | b);
  }

  query::table_schema schema_{{{"x", kXBits}, {"y", kYBits}}};
  db::column x_, y_;
  std::vector<query::query_spec> specs_;
  std::vector<query::query_plan> plans_;
  std::vector<std::uint64_t> expected_;
  std::unique_ptr<service::pim_service> svc_;
  std::vector<std::unique_ptr<service::service_client>> clients_;
  std::vector<std::unique_ptr<timed_client>> wrappers_;
  std::unique_ptr<query::pim_table> table_;
};

// remote_small_ops: one-row AND ops over loopback, one request
// outstanding per connection — wire heavy, no row I/O when timed.
class remote_small_ops final : public workload {
 public:
  static constexpr int kGroups = 4;     // bank-striped a/b/d groups
  static constexpr int kOps = 256;      // per session per epoch

  remote_small_ops(std::uint64_t seed, bool loopback) : loopback_(loopback) {
    rng gen(seed);
    for (auto& session : data_) {
      for (auto& group : session) {
        for (auto& v : group) v = bitvector::random(kRowBits, gen);
      }
    }
  }

  const char* name() const override { return "remote_small_ops"; }
  int driver_threads() const override { return 1; }

  void setup(bool) override {
    if (loopback_) {
      net::server_config cfg;
      cfg.service = service_cfg();
      server_ = std::make_unique<net::pim_server>(cfg);
      server_->start();
      for (auto& c : clients_) {
        c = std::make_unique<net::remote_client>("127.0.0.1", server_->port());
      }
    } else {
      svc_ = std::make_unique<service::pim_service>(service_cfg());
      svc_->start();
      for (auto& c : clients_) {
        c = std::make_unique<service::service_client>(*svc_);
      }
    }
    std::vector<service::client_api*> raw;
    for (auto& c : clients_) raw.push_back(c.get());
    require_distinct_shards(raw);
    for (int s = 0; s < kShards; ++s) {
      ids_[s] = clients_[s]->id();
      for (int g = 0; g < kGroups; ++g) {
        vecs_[s][g] = clients_[s]->allocate(kRowBits, 3);
        for (int i = 0; i < 3; ++i) clients_[s]->write(vecs_[s][g][i], data_[s][g][i]);
      }
    }
  }

  void run_epoch(int, recorder& rec, bool) override {
    std::array<service::request_future, kShards> futures;
    std::array<steady::time_point, kShards> sent;
    std::array<int, kShards> issued{};
    std::deque<int> fifo;  // sessions with a request outstanding, oldest first
    auto issue = [&](int s) {
      const auto& g = vecs_[s][issued[s]++ % kGroups];
      sent[s] = steady::now();
      try {
        futures[s] = clients_[s]->submit_bulk(dram::bulk_op::and_op, g[0],
                                              &g[1], g[2]);
        fifo.push_back(s);
      } catch (const std::exception& e) {
        rec.error(e.what());
      }
    };
    for (int s = 0; s < kShards; ++s) issue(s);
    while (!fifo.empty()) {
      const int s = fifo.front();
      fifo.pop_front();
      try {
        futures[s].get();
        rec.ok(k_op, us_between(sent[s], steady::now()));
      } catch (const std::exception& e) {
        rec.error(e.what());
      }
      if (issued[s] < kOps) issue(s);
    }
    for (auto& c : clients_) drop_futures(*c);
  }

  service::pim_service& service() override {
    return loopback_ ? server_->service() : *svc_;
  }

  /// Each session's digest must equal a bare core::pim_system that ran
  /// the same stream. d = a AND b with fixed a and b is idempotent, so
  /// one epoch of the stream leaves the same state as any number.
  void verify(recorder& rec) override {
    for (int s = 0; s < kShards; ++s) {
      core::pim_system sys(shard_system());
      std::array<std::vector<dram::bulk_vector>, kGroups> v;
      for (int g = 0; g < kGroups; ++g) {
        v[g] = sys.allocate(kRowBits, 3);
        for (int i = 0; i < 3; ++i) sys.write(v[g][i], data_[s][g][i]);
      }
      for (int op = 0; op < kOps; ++op) {
        auto& g = v[op % kGroups];
        sys.submit_bulk(dram::bulk_op::and_op, g[0], &g[1], g[2]);
      }
      sys.wait_all();
      std::uint64_t expected = fnv1a_basis;
      for (const auto& g : v) {
        for (const auto& vec : g) expected = sys.digest(expected, vec);
      }
      if (clients_[s]->digest() != expected) {
        rec.wrong("remote_small_ops: session " + std::to_string(s) +
                  " digest differs from the bare replay");
      }
    }
  }

  bare_result replay_bare(double seconds) override {
    core::pim_system sys(shard_system());
    bare_meter m(sys);
    std::array<std::vector<dram::bulk_vector>, kGroups> v;
    for (int g = 0; g < kGroups; ++g) {
      v[g] = sys.allocate(kRowBits, 3);
      for (int i = 0; i < 3; ++i) m.write(v[g][i], data_[0][g][i]);
    }
    const auto start = steady::now();
    for (int op = 0; seconds_since(start) < seconds; ++op) {
      auto& g = v[op % kGroups];
      m.r.lat_us[k_op].push_back(m.run([&](core::pim_system& s) {
        s.submit_bulk(dram::bulk_op::and_op, g[0], &g[1], g[2]);
      }));
    }
    for (int g = 0; g < kGroups; ++g) {
      if (m.read(v[g][2]) != (data_[0][g][0] & data_[0][g][1])) ++m.r.mismatches;
    }
    return m.r;
  }

  /// ns to encode and split one request frame plus its response frame,
  /// over the epoch's actual submit/done messages.
  double codec_ns_per_req(double seconds) const {
    std::vector<net::net_message> msgs;
    runtime::task_report report;
    report.output_bytes = kRowBits / 8;
    for (int s = 0; s < kShards; ++s) {
      for (int op = 0; op < kOps; ++op) {
        const auto& g = vecs_[s][op % kGroups];
        net::submit_req req;
        req.session = ids_[s];
        req.op = dram::bulk_op::and_op;
        req.a = g[0];
        req.b = g[1];
        req.d = g[2];
        msgs.emplace_back(req);
        msgs.emplace_back(net::done_resp{report});
      }
    }
    net::frame_splitter splitter;
    std::uint64_t pairs = 0;
    std::uint64_t id = 0;
    const auto start = steady::now();
    while (seconds_since(start) < seconds) {
      for (const net::net_message& msg : msgs) {
        const std::vector<std::uint8_t> frame = net::encode_frame(++id, msg);
        splitter.feed(frame.data(), frame.size());
        if (!splitter.next()) throw std::runtime_error("codec: frame lost");
      }
      pairs += msgs.size() / 2;
    }
    return seconds_since(start) * 1e9 / static_cast<double>(pairs);
  }

  void teardown() override {
    for (auto& c : clients_) c.reset();
    if (server_) server_->stop();
    server_.reset();
    if (svc_) svc_->stop();
    svc_.reset();
  }

 private:
  bool loopback_;
  std::array<std::array<std::array<bitvector, 3>, kGroups>, kShards> data_;
  std::unique_ptr<net::pim_server> server_;
  std::unique_ptr<service::pim_service> svc_;
  std::array<std::unique_ptr<service::client_api>, kShards> clients_;
  std::array<service::session_id, kShards> ids_{};
  std::array<std::array<std::vector<dram::bulk_vector>, kGroups>, kShards>
      vecs_;
};

// --- timed passes ------------------------------------------------------------

/// Host-clock statistics of one window: the epochs that completed in
/// about kWindowSeconds, with the share of CPU time the host stole from
/// this machine meanwhile.
struct window_stats {
  double rps = 0;
  double p50_us = 0;
  double ticks_per_s = 0;
  double steal = 0;
  std::vector<double> lat_us;  // the window's request latencies
};

constexpr double kWindowSeconds = 0.1;
constexpr double kCalmSteal = 0.02;
constexpr std::size_t kMinCalmWindows = 3;

struct pass_result {
  recorder rec;
  int epochs = 0;
  std::vector<sim_counters> epoch_sim;  // per-epoch deltas
  std::vector<window_stats> windows;
  service::service_stats end_stats;
  /// Phases only: host seconds of each segment's set-up, and each
  /// segment's first kSimEpochs per-epoch sim deltas.
  std::vector<double> setup_s;
  std::vector<std::vector<sim_counters>> segment_sims;

  /// Folds one segment into a phase.
  void absorb(pass_result seg, double setup) {
    rec.merge(seg.rec);
    epochs += seg.epochs;
    if (epoch_sim.empty()) epoch_sim = seg.epoch_sim;
    std::move(seg.windows.begin(), seg.windows.end(),
              std::back_inserter(windows));
    end_stats = std::move(seg.end_stats);
    setup_s.push_back(setup);
    seg.epoch_sim.resize(std::min<std::size_t>(seg.epoch_sim.size(), kSimEpochs));
    segment_sims.push_back(std::move(seg.epoch_sim));
  }

  /// The windows in which the host stole at most kCalmSteal of the CPU
  /// time, or the kMinCalmWindows that saw the least steal when fewer
  /// qualify. Other tenants of a shared host stall this machine's vCPUs
  /// for seconds to minutes at a time; the host-clock figures are taken
  /// over these windows so that they measure the program rather than its
  /// neighbours.
  std::vector<const window_stats*> calm_windows() const {
    std::vector<const window_stats*> v;
    for (const window_stats& w : windows) v.push_back(&w);
    std::stable_sort(v.begin(), v.end(), [](auto* a, auto* b) {
      return a->steal < b->steal;
    });
    std::size_t keep = 0;
    while (keep < v.size() && v[keep]->steal <= kCalmSteal) ++keep;
    v.resize(std::min(v.size(), std::max(keep, kMinCalmWindows)));
    return v;
  }
  /// Windows with at most kCalmSteal steal.
  std::size_t calm_count() const {
    return static_cast<std::size_t>(
        std::count_if(windows.begin(), windows.end(), [](const auto& w) {
          return w.steal <= kCalmSteal;
        }));
  }
  /// Median of one window statistic over the calm windows.
  double median(double window_stats::*field) const {
    std::vector<double> v;
    for (const window_stats* w : calm_windows()) v.push_back(w->*field);
    return quantile(v, 0.5);
  }
  /// Latency quantile over every request of the calm windows.
  double calm_latency(double q) const {
    std::vector<double> all;
    for (const window_stats* w : calm_windows()) {
      all.insert(all.end(), w->lat_us.begin(), w->lat_us.end());
    }
    return quantile(all, q);
  }
  std::size_t calm_requests() const {
    std::size_t n = 0;
    for (const window_stats* w : calm_windows()) n += w->lat_us.size();
    return n;
  }
  /// Sum over the first kSimEpochs epochs (of the first segment).
  sim_counters sim_window() const {
    sim_counters sum;
    const std::size_t n = std::min<std::size_t>(epoch_sim.size(), kSimEpochs);
    for (std::size_t e = 0; e < n; ++e) sum += epoch_sim[e];
    return sum;
  }
};

/// Runs epochs on the workload's driver threads until `seconds` have
/// passed, a window has just closed and at least `min_epochs` epochs are
/// done, or until `max_epochs` are done. All threads finish an epoch before the next
/// starts; at each boundary the service counters are sampled and the
/// epoch's latencies join the current window.
pass_result run_pass(workload& w, bool traced, double seconds, int min_epochs,
                     int max_epochs) {
  const int threads = w.driver_threads();
  std::vector<recorder> recs(static_cast<std::size_t>(threads));
  pass_result out;
  std::exception_ptr boundary_error;
  std::atomic<bool> stop{false};
  sim_counters last = sim_counters::of(w.service().stats());
  const auto start = steady::now();
  auto window_start = start;
  auto window_jiffies = cpu_jiffies();
  std::vector<double> window_lat;
  std::uint64_t window_ticks = 0;
  // Runs on one thread while every driver thread waits at the barrier.
  auto on_boundary = [&]() noexcept {
    try {
      const sim_counters sampled = sim_counters::of(w.service().stats());
      out.epoch_sim.push_back(sampled - last);
      window_ticks += sampled.ticks - last.ticks;
      last = sampled;
    } catch (...) {
      boundary_error = std::current_exception();
      stop = true;
    }
    ++out.epochs;
    for (recorder& r : recs) {
      const std::vector<double> lat = r.pooled();
      window_lat.insert(window_lat.end(), lat.begin(), lat.end());
      out.rec.merge(r);
      r = recorder{};
    }
    const bool window_done = seconds_since(window_start) >= kWindowSeconds;
    if (window_done) {
      const auto now = steady::now();
      const double wall =
          std::chrono::duration<double>(now - window_start).count();
      const auto jiffies = cpu_jiffies();
      window_stats win;
      win.rps = static_cast<double>(window_lat.size()) / wall;
      win.p50_us = quantile(window_lat, 0.5);
      win.ticks_per_s = static_cast<double>(window_ticks) / wall;
      win.steal =
          ratio(static_cast<double>(jiffies.first - window_jiffies.first),
                static_cast<double>(jiffies.second - window_jiffies.second));
      win.lat_us = std::move(window_lat);
      out.windows.push_back(std::move(win));
      window_jiffies = jiffies;
      window_lat.clear();
      window_ticks = 0;
      window_start = now;
    }
    if ((window_done && out.epochs >= min_epochs &&
         seconds_since(start) >= seconds) ||
        out.epochs >= max_epochs) {
      stop = true;
    }
  };
  std::barrier sync(threads, on_boundary);
  std::mutex error_mu;
  std::exception_ptr driver_error;  // guarded by error_mu
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        while (!stop) {
          w.run_epoch(t, recs[static_cast<std::size_t>(t)], traced);
          sync.arrive_and_wait();
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!driver_error) driver_error = std::current_exception();
        }
        stop = true;
        sync.arrive_and_drop();  // let the other drivers finish the epoch
      }
    });
  }
  for (std::thread& th : workers) th.join();
  if (driver_error) std::rethrow_exception(driver_error);
  if (boundary_error) std::rethrow_exception(boundary_error);
  w.verify(out.rec);
  w.collect_samples(out.rec);
  out.end_stats = w.service().stats();
  return out;
}

/// Set-up plus one untimed warm-up epoch, whose requests are checked
/// and counted in `warm`; returns its host seconds.
double timed_setup(workload& w, bool traced, recorder& warm) {
  const auto t0 = steady::now();
  w.setup(traced);
  for (int t = 0; t < w.driver_threads(); ++t) {
    // Warm-up epochs run one thread at a time: they only need to touch
    // every code path and allocation once.
    w.run_epoch(t, warm, traced);
  }
  return seconds_since(t0);
}

constexpr int kNoEpochCap = 1 << 30;

/// Runs a timed phase of `seconds` as kSegments segments (or one, for a
/// phase capped at `max_epochs`), each set up, warmed up, timed and torn
/// down on its own. While fewer than kMinCalmWindows windows were calm,
/// further segments run, up to twice the planned time: a burst of host
/// steal that covers the whole phase would otherwise leave nothing but
/// the neighbours' load to report.
pass_result run_phase(workload& w, bool traced, double seconds,
                      int max_epochs = kNoEpochCap) {
  const int segments = max_epochs == kNoEpochCap ? kSegments : 1;
  pass_result phase;
  auto more = [&](int i) {
    return i < segments || (max_epochs == kNoEpochCap && i < 2 * segments &&
                            phase.calm_count() < kMinCalmWindows);
  };
  for (int i = 0; more(i); ++i) {
    recorder warm;
    const double setup = timed_setup(w, traced, warm);
    pass_result seg =
        run_pass(w, traced, seconds / segments, kSimEpochs, max_epochs);
    w.teardown();
    phase.absorb(std::move(seg), setup);
    phase.rec.count(warm);
  }
  return phase;
}

/// True when every segment of both phases advanced the simulated clock,
/// the tick count and the energy meter identically over its first
/// kSimEpochs epochs: each segment starts from a fresh stack, so
/// untraced and traced, first and last, must agree exactly.
bool sim_identical(const pass_result& a, const pass_result& b) {
  const std::vector<sim_counters>& ref = a.segment_sims.front();
  if (ref.size() != static_cast<std::size_t>(kSimEpochs)) return false;
  for (const pass_result* p : {&a, &b}) {
    for (const std::vector<sim_counters>& seg : p->segment_sims) {
      if (seg.size() != ref.size()) return false;
      for (std::size_t e = 0; e < ref.size(); ++e) {
        if (seg[e].ticks != ref[e].ticks ||
            seg[e].energy_fj != ref[e].energy_fj ||
            seg[e].makespan_ps != ref[e].makespan_ps) {
          return false;
        }
      }
    }
  }
  return true;
}

// --- output ------------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& metrics) {
  for (const metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) js << ", ";
    js << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Busy-spins every core for kHostWarmupSeconds. A virtual machine's
/// host runs vCPUs that were idle at about half their speed for a second
/// or so after they wake; without this the first segment of a run would
/// measure that ramp instead of the program.
constexpr double kHostWarmupSeconds = 2.0;

void host_warmup() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const auto start = steady::now();
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < cores; ++i) {
    spinners.emplace_back([start] {
      volatile std::uint64_t x = 1;
      while (seconds_since(start) < kHostWarmupSeconds) {
        for (int k = 0; k < 100'000; ++k) x = x * 6364136223846793005ull + 1;
      }
    });
  }
  for (std::thread& t : spinners) t.join();
}

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "ingest_readback") return std::make_unique<ingest_readback>(seed);
  if (name == "scan_query") return std::make_unique<scan_query>(seed);
  if (name == "remote_small_ops") {
    return std::make_unique<remote_small_ops>(seed, /*loopback=*/true);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.workload.empty() || o.seconds <= 0) {
    throw std::invalid_argument(
        "usage: pimbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return o;
}

/// One summary line per phase. latency_p99_us is printed here with its
/// sample count but not reported in the result line: on a shared host
/// its run-to-run spread is wider than any bound the benchmark may set.
void print_phase(const char* label, const pass_result& pass) {
  const recorder& rec = pass.rec;
  const auto calm = pass.calm_windows();
  std::vector<double> steal;
  for (const window_stats& w : pass.windows) steal.push_back(w.steal);
  std::cout << label << ": " << rec.completed() << " requests in "
            << pass.epochs << " epochs; " << calm.size() << " of "
            << pass.windows.size() << " windows kept (host steal <= "
            << json_number(calm.empty() ? 0 : calm.back()->steal)
            << ", max over all " << json_number(quantile(steal, 1))
            << "); median window "
            << json_number(pass.median(&window_stats::rps)) << " req/s, p50 "
            << json_number(pass.median(&window_stats::p50_us))
            << " us; latency_p99_us " << json_number(pass.calm_latency(0.99))
            << " us (n=" << pass.calm_requests() << ")";
  for (int k = 0; k < k_kinds; ++k) {
    if (rec.lat_us[k].empty()) continue;
    std::cout << "; " << kind_names[k] << " p50 "
              << json_number(quantile(rec.lat_us[k], 0.5)) << " us (n="
              << rec.lat_us[k].size() << ")";
  }
  std::cout << "\n";
}

int run(const options& opt) {
  std::unique_ptr<workload> w = make_workload(opt.workload, opt.seed);
  std::cout << "workload " << w->name() << " seed " << opt.seed << " seconds "
            << opt.seconds << " trace " << opt.trace << "\n";
  host_warmup();

  // A per-layer run times its untraced phase only as the base of
  // trace.overhead, so it gets half the time.
  const pass_result base =
      run_phase(*w, false, opt.trace ? opt.seconds / 2 : opt.seconds);
  print_phase("untraced phase", base);
  // In an end-to-end run the traced phase only covers the sim-identity
  // window.
  const pass_result traced = opt.trace
                                 ? run_phase(*w, true, opt.seconds)
                                 : run_phase(*w, true, 0, kSimEpochs);
  if (opt.trace) print_phase("traced phase", traced);
  const bool identical = sim_identical(base, traced);
  const sim_counters bw = base.sim_window();
  const sim_counters tw = traced.sim_window();
  std::cout << "sim identity (first " << kSimEpochs
            << " epochs, untraced vs traced): "
            << (identical ? "equal" : "DIFFER") << " ticks " << bw.ticks
            << "/" << tw.ticks << " energy_fj " << bw.energy_fj << "/"
            << tw.energy_fj << " makespan_ps " << bw.makespan_ps << "/"
            << tw.makespan_ps << "\n";

  recorder checks;  // failures outside the timed passes
  std::vector<metric> metrics;
  const double epochs_per_window = static_cast<double>(kSimEpochs);
  if (!opt.trace) {
    std::vector<double> setups = base.setup_s;
    setups.insert(setups.end(), traced.setup_s.begin(), traced.setup_s.end());
    metrics = {
        {"throughput_rps", base.median(&window_stats::rps), "req/s"},
        {"latency_p50_us", base.median(&window_stats::p50_us), "us"},
        {"setup_s", quantile(setups, 0.5), "s"},
        {"sim_makespan_us",
         static_cast<double>(bw.makespan_ps) / 1e6 / epochs_per_window,
         "sim_us"},
        {"sim_cycles_per_host_s", base.median(&window_stats::ticks_per_s),
         "cycles/s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
  } else {
    const service::service_stats& st = traced.end_stats;
    const recorder& tr = traced.rec;
    const double replay_s = std::max(0.5, opt.seconds / 8);
    double codec_ns = 0, wire_us = 0, wire_tax = 0, svc_op_p50 = 0;
    double overhead_us = 0;
    auto p50 = [](const std::vector<double>& v) { return quantile(v, 0.5); };
    if (auto* remote = dynamic_cast<remote_small_ops*>(w.get())) {
      codec_ns = remote->codec_ns_per_req(replay_s);
      // The same op stream in process: the loopback p50 minus this is
      // what the wire costs.
      remote_small_ops inproc(opt.seed, /*loopback=*/false);
      const pass_result local = run_phase(inproc, false, replay_s);
      checks.merge(local.rec);
      print_phase("in-process replay", local);
      const double loop_p50 = p50(tr.lat_us[k_op]);
      svc_op_p50 = p50(local.rec.lat_us[k_op]);
      wire_us = loop_p50 - svc_op_p50;
      wire_tax = ratio(loop_p50, svc_op_p50);
      std::cout << "net.wire_tax base: loopback op p50 "
                << json_number(loop_p50) << " us / in-process op p50 "
                << json_number(svc_op_p50) << " us\n";
    }
    const bare_result bare = w->replay_bare(replay_s);
    checks.failed += bare.mismatches;
    if (bare.mismatches > 0) {
      checks.first_error = "bare replay returned a wrong result";
    }

    const auto samples_of = [&](const char* name) -> const std::vector<double>& {
      static const std::vector<double> none;
      auto it = tr.samples.find(name);
      return it == tr.samples.end() ? none : it->second;
    };
    double write_p50 = 0, read_p50 = 0, op_p50 = 0;
    if (dynamic_cast<scan_query*>(w.get()) != nullptr) {
      write_p50 = p50(samples_of("service.write"));
      read_p50 = p50(samples_of("service.read"));
      op_p50 = p50(samples_of("service.submit"));
      overhead_us = p50(tr.lat_us[k_query]) - p50(bare.lat_us[k_query]);
    } else if (dynamic_cast<ingest_readback*>(w.get()) != nullptr) {
      write_p50 = p50(tr.lat_us[k_write]);
      read_p50 = p50(tr.lat_us[k_read]);
      op_p50 = p50(tr.lat_us[k_op]);
      // Per iteration: two writes, one op, one read.
      overhead_us = (2 * (write_p50 - p50(bare.lat_us[k_write])) +
                     (op_p50 - p50(bare.lat_us[k_op])) +
                     (read_p50 - p50(bare.lat_us[k_read]))) /
                    4;
    } else {
      op_p50 = svc_op_p50;
      overhead_us = svc_op_p50 - p50(bare.lat_us[k_op]);
    }
    const double traced_rps = traced.median(&window_stats::rps);
    const double base_rps = base.median(&window_stats::rps);
    const double trace_overhead = ratio(traced_rps, base_rps);
    std::cout << "trace.overhead base: traced " << json_number(traced_rps)
              << " req/s / untraced " << json_number(base_rps)
              << " req/s\n";
    const auto& ops = samples_of("query.ops");
    const double ops_per_query =
        ratio(std::accumulate(ops.begin(), ops.end(), 0.0),
              static_cast<double>(ops.size()));
    const double life = static_cast<double>(tw.wait_lifetime);
    const double k = epochs_per_window;
    metrics = {
        {"net.codec_ns_per_req", codec_ns, "ns"},
        {"net.wire_us_per_req", wire_us, "us"},
        {"net.wire_tax", wire_tax, "ratio"},
        {"service.write_p50_us", write_p50, "us"},
        {"service.read_p50_us", read_p50, "us"},
        {"service.op_p50_us", op_p50, "us"},
        {"service.overhead_us_per_req", overhead_us, "us"},
        {"service.shard_latency_p99_us", st.latency.percentile_us(0.99), "us"},
        {"service.enqueue_waits", static_cast<double>(st.enqueue_waits),
         "count"},
        {"service.requests_failed", static_cast<double>(st.requests_failed),
         "count"},
        {"service.requests_rejected",
         static_cast<double>(st.requests_rejected), "count"},
        {"query.plan_us", p50(samples_of("query.plan")), "us"},
        {"query.exec_us", p50(samples_of("query.exec")), "us"},
        {"query.ops_per_query", ops_per_query, "count"},
        {"runtime.host_ns_per_tick",
         ratio(bare.runtime_s * 1e9, static_cast<double>(bare.ticks)), "ns"},
        {"runtime.ticks", static_cast<double>(tw.ticks) / k, "count"},
        {"runtime.busy_bank_ticks", static_cast<double>(tw.busy_bank_ticks) / k,
         "count"},
        {"runtime.avg_busy_banks",
         ratio(static_cast<double>(tw.busy_bank_ticks),
               static_cast<double>(tw.ticks)),
         "banks"},
        {"runtime.hazard_deferred_ratio",
         ratio(static_cast<double>(tw.hazard_deferred),
               static_cast<double>(tw.submitted)),
         "ratio"},
        {"runtime.wait_admission_share",
         ratio(static_cast<double>(tw.wait_admission), life), "ratio"},
        {"runtime.wait_hazard_share",
         ratio(static_cast<double>(tw.wait_hazard), life), "ratio"},
        {"runtime.wait_bank_share",
         ratio(static_cast<double>(tw.wait_bank), life), "ratio"},
        {"runtime.exec_share",
         ratio(static_cast<double>(tw.wait_exec + tw.wait_wire), life),
         "ratio"},
        {"dram.write_ns_per_kib", ratio(bare.write_s * 1e9, bare.write_kib),
         "ns/KiB"},
        {"dram.read_ns_per_kib", ratio(bare.read_s * 1e9, bare.read_kib),
         "ns/KiB"},
        {"obs.energy_fj", static_cast<double>(tw.energy_fj) / k, "fJ"},
        {"obs.moved_insitu_bytes", static_cast<double>(tw.insitu) / k, "B"},
        {"obs.moved_offchip_bytes", static_cast<double>(tw.offchip) / k, "B"},
        {"obs.moved_wire_bytes", static_cast<double>(tw.wire) / k, "B"},
        {"trace.overhead", trace_overhead, "ratio"},
        {"sim.identity", identical ? 1.0 : 0.0, "bool"},
    };
  }

  const std::uint64_t attempted =
      base.rec.attempted + traced.rec.attempted + checks.attempted;
  const std::uint64_t failed =
      base.rec.failed + traced.rec.failed + checks.failed;
  for (const recorder* r :
       std::initializer_list<const recorder*>{&base.rec, &traced.rec,
                                               &checks}) {
    if (!r->first_error.empty()) std::cout << "error: " << r->first_error << "\n";
  }
  const bool correct = failed == 0 && identical;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "pimbench: " << e.what() << "\n";
    return 2;
  }
}
