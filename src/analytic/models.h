// Closed-form throughput and energy models for the bulk-bitwise
// comparison points of the paper (Ambit MICRO'17 methodology).
//
// The commercial baselines (Intel Skylake, NVIDIA GTX 745) cannot be
// run here; bulk bitwise operations on vectors far larger than the
// last-level cache are memory-interface-bound on both, so the published
// numbers are reproducible from the interface bandwidth and per-op
// traffic. Ambit's throughput follows from its command schedule: each
// macro step is one AAP (tRAS + tRP), `step_count(op)` steps per row,
// all banks operating concurrently. The cycle-level simulator
// (dram::ambit_engine) cross-validates the DDR3 Ambit numbers in the
// tests and in bench_ambit_throughput.
#ifndef PIM_ANALYTIC_MODELS_H
#define PIM_ANALYTIC_MODELS_H

#include <string>
#include <vector>

#include "dram/ambit.h"
#include "dram/timing.h"

namespace pim::analytic {

/// A processor whose bulk-bitwise throughput is bound by its memory
/// interface (CPU, GPU, or PIM logic layer).
struct streaming_device {
  std::string name;
  double peak_bw_gbps = 0;   // memory interface peak bandwidth
  double efficiency = 0.8;   // sustained fraction on streaming
  bool write_allocate = true;  // stores fetch the destination line first

  double effective_bw_gbps() const { return peak_bw_gbps * efficiency; }

  /// Bytes moved on the interface per byte of output for an op.
  double traffic_factor(dram::bulk_op op) const;

  /// Output throughput in GB/s for one bulk op.
  double throughput_gbps(dram::bulk_op op) const;

  /// Energy per output byte (DRAM core + channel I/O), in pJ/B, when
  /// the device's memory is DDR3-like with the given organization.
  double energy_pj_per_byte(dram::bulk_op op, const dram::organization& org,
                            double io_pj_per_bit) const;
};

/// An Ambit substrate: banks operating in lockstep, one row per
/// schedule execution per bank.
struct ambit_device {
  std::string name;
  int banks = 8;               // concurrently operating banks
  bytes row_bytes = 8192;
  dram::timing_params timing = dram::ddr3_1600();
  bool rich_decoder = true;

  picoseconds aap_ps() const {
    return (timing.tras + timing.trp) * timing.tck_ps;
  }
  int step_count(dram::bulk_op op) const;
  int tra_count(dram::bulk_op op) const;

  double throughput_gbps(dram::bulk_op op) const;

  /// Energy per output byte in pJ/B (activations dominate; no channel
  /// I/O is paid at all).
  double energy_pj_per_byte(dram::bulk_op op) const;
};

// --- presets: the comparison points of the paper's Ambit results ---
// (PAPER.md); each preset's comment states its parameters.

/// Skylake-class desktop CPU: dual-channel DDR4-2133 (34.1 GB/s peak),
/// ~80% streaming efficiency, write-allocate caches.
streaming_device skylake_cpu();

/// GTX-745-class GPU: 128-bit GDDR interface (28.8 GB/s peak), ~90%
/// streaming efficiency, no write-allocate (sectored write-through L2).
streaming_device gtx745_gpu();

/// Processing in the HMC 2.0 logic layer: sees the full internal TSV
/// bandwidth (~480 GB/s aggregate), accelerator-style (no RFO).
streaming_device hmc_logic_layer();

/// A DDR3 interface device used for the energy baseline (the paper's
/// "DDR3 DRAM" energy comparison point).
streaming_device ddr3_interface();

/// Ambit in a commodity DDR3-1600 module, 8 banks.
ambit_device ambit_ddr3(int banks = 8, bool rich_decoder = true);

/// Ambit integrated into HMC 2.0: 256 banks with 1 KiB rows.
ambit_device ambit_hmc();

/// Average of Ambit-vs-device throughput ratios across the 7 ops
/// (arithmetic mean, as the paper aggregates).
double mean_speedup(const ambit_device& ambit, const streaming_device& dev);

/// Average of DDR3-vs-Ambit energy ratios across the 7 ops.
double mean_energy_reduction(const ambit_device& ambit,
                             const streaming_device& ddr3,
                             const dram::organization& org,
                             double io_pj_per_bit);

}  // namespace pim::analytic

#endif  // PIM_ANALYTIC_MODELS_H
