// Shared energy-model constants.
//
// Every experiment in pimlib computes energy as
//     (counted events) x (per-event cost from this header),
// the same methodology as the paper's source works (Ambit MICRO'17,
// Tesseract ISCA'15, Google-workloads ASPLOS'18). The constants are
// order-of-magnitude figures from the public literature (DRAM datasheet
// IDD-derived activation/precharge energies, Horowitz ISSCC'14 logic and
// cache energies, published off-chip vs. TSV I/O pJ/bit). Reproduction
// targets the *ratios* between configurations, which are robust to the
// absolute calibration.
#ifndef PIM_COMMON_ENERGY_CONSTANTS_H
#define PIM_COMMON_ENERGY_CONSTANTS_H

#include "common/types.h"

namespace pim::energy {

// ---------------------------------------------------------------------------
// DRAM core (per-command) energies, one DDR3-class rank.
// ---------------------------------------------------------------------------

/// Activating one 8 KiB row (charge restoration of the full row).
inline constexpr picojoules dram_activate_pj = 3000.0;

/// Precharging a bank (equalizing bitlines).
inline constexpr picojoules dram_precharge_pj = 1500.0;

/// Internal column read/write of one 64 B burst (array to peripherals).
inline constexpr picojoules dram_column_pj = 500.0;

/// Refresh of one row (comparable to an activate+precharge pair).
inline constexpr picojoules dram_refresh_row_pj = 3500.0;

/// DRAM background power (per rank), used for static-energy accounting.
inline constexpr double dram_background_mw = 80.0;

// ---------------------------------------------------------------------------
// Data movement (per bit moved across an interface).
// ---------------------------------------------------------------------------

/// Off-chip DDR3/DDR4 channel (pin drivers + trace + ODT).
inline constexpr double offchip_io_pj_per_bit = 4.5;

/// Mobile LPDDR channel (shorter trace, lower voltage swing).
inline constexpr double lpddr_io_pj_per_bit = 4.0;

/// Through-silicon via inside a 3D stack (what PIM logic pays).
inline constexpr double tsv_io_pj_per_bit = 1.0;

/// High-speed SerDes link between stacked cubes (HMC-style).
inline constexpr double serdes_pj_per_bit = 3.0;

/// On-chip interconnect between LLC and the memory controller.
inline constexpr double noc_pj_per_bit = 0.8;

// ---------------------------------------------------------------------------
// Processor-side energies (mobile-class core, ~28 nm).
// ---------------------------------------------------------------------------

/// Executing one simple ALU instruction (datapath + register file).
inline constexpr picojoules cpu_alu_op_pj = 0.8;

/// Front-end overhead per instruction (fetch/decode/rename/commit).
inline constexpr picojoules cpu_instruction_overhead_pj = 2.2;

/// Cache access energies, per access of one 8 B word.
inline constexpr picojoules l1_access_pj = 1.2;
inline constexpr picojoules l2_access_pj = 6.0;
inline constexpr picojoules llc_access_pj = 18.0;

/// Leakage/static power per out-of-order host core and per simple
/// in-order PIM core (order: big OoO core ~10x a small in-order core).
inline constexpr double host_core_static_mw = 150.0;
inline constexpr double pim_core_static_mw = 15.0;

/// Fixed-function PIM accelerator: per-byte processing energy and the
/// factor by which it beats a general core on its target function.
inline constexpr picojoules pim_accel_byte_pj = 0.15;

// ---------------------------------------------------------------------------
// Logic-layer area model (HMC-like stack), from the public HMC floorplan
// discussion in the Google-workloads paper: ~4.4 mm^2 of usable logic
// area per vault slice available for custom PIM logic.
// ---------------------------------------------------------------------------

/// Usable PIM logic area per vault in mm^2.
inline constexpr double logic_layer_area_per_vault_mm2 = 4.4;

/// Area of a small in-order 64-bit core (Cortex-A35-class, 28 nm).
inline constexpr double pim_core_area_mm2 = 0.41;

/// Area of the largest fixed-function accelerator set evaluated by the
/// consumer-workloads study (all four workloads' accelerators).
inline constexpr double pim_accel_area_mm2 = 1.56;

}  // namespace pim::energy

#endif  // PIM_COMMON_ENERGY_CONSTANTS_H
