// Micro-benchmarks of pimlib's own primitives (google-benchmark):
// bitvector algebra and range copies, cache simulation, DRAM controller
// throughput, Ambit command compilation and row I/O, the simulated
// clock behind one runtime op, the wire codec, and graph generation.
// These guard the simulator's performance, not the paper's results.
#include <benchmark/benchmark.h>

#include "common/bitvector.h"
#include "core/pim_system.h"
#include "cpu/cache.h"
#include "dram/ambit.h"
#include "dram/memory_system.h"
#include "graph/graph.h"
#include "net/protocol.h"

namespace {

using namespace pim;

void bm_bitvector_and(benchmark::State& state) {
  rng gen(1);
  const auto bits = static_cast<std::size_t>(state.range(0));
  bitvector a = bitvector::random(bits, gen);
  const bitvector b = bitvector::random(bits, gen);
  for (auto _ : state) {
    a &= b;
    benchmark::DoNotOptimize(a);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(bm_bitvector_and)->Range(1 << 12, 1 << 22);

void bm_bitvector_majority(benchmark::State& state) {
  rng gen(2);
  const auto bits = static_cast<std::size_t>(state.range(0));
  const bitvector a = bitvector::random(bits, gen);
  const bitvector b = bitvector::random(bits, gen);
  const bitvector c = bitvector::random(bits, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitvector::majority(a, b, c));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(bm_bitvector_majority)->Range(1 << 12, 1 << 20);

void bm_bitvector_popcount(benchmark::State& state) {
  rng gen(3);
  const bitvector a = bitvector::random(1 << 20, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.popcount());
  }
}
BENCHMARK(bm_bitvector_popcount);

// copy_bits over a whole vector: Arg(1) puts both ranges on a word
// boundary (plain word copy), Arg(0) offsets them by 3 and 17 bits
// (shift-and-merge path). Byte sizes run 4 KiB to 4 MiB.
void bm_copy_bits(benchmark::State& state) {
  rng gen(7);
  const auto bits = static_cast<std::size_t>(state.range(0)) * 8;
  const bool aligned = state.range(1) != 0;
  const std::size_t src_pos = aligned ? 0 : 3;
  const std::size_t dst_pos = aligned ? 0 : 17;
  const bitvector src = bitvector::random(bits + src_pos, gen);
  bitvector dst(bits + dst_pos);
  for (auto _ : state) {
    dst.copy_bits(dst_pos, src, src_pos, bits);
    benchmark::DoNotOptimize(dst);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(bm_copy_bits)->ArgsProduct({{4 << 10, 64 << 10, 4 << 20}, {1, 0}});

// ambit_engine::read_vector of one 4-row vector from the functional row
// store — the per-request row I/O of a service read.
void bm_read_vector(benchmark::State& state) {
  dram::organization org;
  dram::memory_system mem(org, dram::ddr3_1600());
  dram::ambit_engine engine(mem, true);
  dram::ambit_allocator alloc(org);
  const dram::bulk_vector v = alloc.allocate_group(4 * org.row_bits(), 1)[0];
  rng gen(8);
  engine.write_vector(v, bitvector::random(v.size, gen));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.read_vector(v));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(v.size / 8));
}
BENCHMARK(bm_read_vector);

// The wire codec on the remote request path: encode one frame and split
// it back out of a frame_splitter. Arg(0) is a submit_req over one-row
// operands, Arg(1) a done_resp at the current version (v4 report tail).
void bm_wire_codec(benchmark::State& state) {
  auto one_row = [](int row) {
    dram::bulk_vector v;
    v.size = 8192;
    v.rows = {dram::address{0, 0, row % 8, row, 0}};
    return v;
  };
  net::net_message msg;
  if (state.range(0) == 0) {
    net::submit_req req;
    req.session = 1;
    req.op = dram::bulk_op::and_op;
    req.a = one_row(1);
    req.b = one_row(2);
    req.d = one_row(3);
    msg = req;
  } else {
    net::done_resp resp;
    resp.report.output_bytes = 1024;
    resp.report.complete_ps = 123456;
    msg = resp;
  }
  net::frame_splitter splitter;
  std::uint64_t id = 0;
  for (auto _ : state) {
    const std::vector<std::uint8_t> frame = net::encode_frame(++id, msg);
    splitter.feed(frame.data(), frame.size());
    benchmark::DoNotOptimize(splitter.next());
  }
  state.SetLabel(state.range(0) == 0 ? "submit_req" : "done_resp v4");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_wire_codec)->Arg(0)->Arg(1);

void bm_cache_stream(benchmark::State& state) {
  cpu::cache c(cpu::cache_config{"L2", 1 * mib, 16, 64});
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(addr, false));
    addr += 64;
  }
}
BENCHMARK(bm_cache_stream);

void bm_cache_random(benchmark::State& state) {
  cpu::cache c(cpu::cache_config{"L2", 1 * mib, 16, 64});
  rng gen(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(gen.next_below(1 << 28) * 64, false));
  }
}
BENCHMARK(bm_cache_random);

void bm_controller_random_reads(benchmark::State& state) {
  dram::organization org = dram::ddr3_dimm(1);
  dram::memory_system mem(org, dram::ddr3_1600());
  rng gen(5);
  std::uint64_t served = 0;
  for (auto _ : state) {
    dram::request req;
    req.kind = dram::request_kind::read;
    req.addr = gen.next_below(org.total_bytes() / 64) * 64;
    req.on_complete = [&served](picoseconds) { ++served; };
    while (!mem.enqueue(req)) mem.tick();
    mem.tick();
  }
  mem.drain();
  benchmark::DoNotOptimize(served);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_controller_random_reads);

// One-row Ambit AND, submitted and waited on through the runtime: the
// per-op cost of the simulated clock. A one-row AND spans ~160 DRAM
// cycles but issues only 12 commands; "s_per_cycle" is host time per
// simulated cycle, which advancing event by event keeps low.
void bm_bulk_and_advance(benchmark::State& state) {
  core::pim_system sys;
  const auto vecs = sys.allocate(sys.org().row_bits(), 3);
  rng gen(9);
  sys.write(vecs[0], bitvector::random(vecs[0].size, gen));
  sys.write(vecs[1], bitvector::random(vecs[1].size, gen));
  const cycles start = sys.memory().now_cycles();
  for (auto _ : state) {
    const runtime::task_future f =
        sys.submit_bulk(dram::bulk_op::and_op, vecs[0], &vecs[1], vecs[2]);
    sys.wait(f);
    benchmark::DoNotOptimize(f.report().complete_ps);
  }
  const auto simulated =
      static_cast<double>(sys.memory().now_cycles() - start);
  state.counters["sim_cycles"] = simulated;
  state.counters["s_per_cycle"] = benchmark::Counter(
      simulated, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_bulk_and_advance);

void bm_ambit_compile(benchmark::State& state) {
  dram::organization org;
  const dram::ambit_compiler compiler(org, true);
  const dram::subarray_layout layout(org);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler.compile(
        dram::bulk_op::xor_op, 0, layout.data_row(0, 0),
        layout.data_row(0, 1), layout.data_row(0, 2)));
  }
}
BENCHMARK(bm_ambit_compile);

void bm_rmat_generation(benchmark::State& state) {
  for (auto _ : state) {
    rng gen(6);
    benchmark::DoNotOptimize(graph::rmat(12, 8, gen));
  }
}
BENCHMARK(bm_rmat_generation);

// Row-buffer policy ablation: open vs closed rows under a streaming
// access pattern. The controllers default to open rows; this measures
// what that default buys on a stream that keeps hitting the open row.
void bm_row_policy(benchmark::State& state) {
  const auto policy = state.range(0) == 0 ? dram::row_policy::open
                                          : dram::row_policy::closed;
  for (auto _ : state) {
    dram::organization org = dram::ddr3_dimm(1);
    dram::memory_system mem(org, dram::ddr3_1600(), policy);
    for (std::uint64_t i = 0; i < 512; ++i) {
      dram::request req;
      req.kind = dram::request_kind::read;
      req.addr = i * 64;
      while (!mem.enqueue(req)) mem.tick();
    }
    mem.drain();
    benchmark::DoNotOptimize(mem.now_cycles());
  }
}
BENCHMARK(bm_row_policy)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
