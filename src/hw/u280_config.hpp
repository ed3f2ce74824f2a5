// SpeedLLM -- Xilinx Alveo U280 platform description.
//
// Capacities and rates follow the public U280 data sheet; the power
// coefficients are activity-based estimates calibrated so that relative
// energy between accelerator variants matches published FPGA experience
// (see docs/ARCHITECTURE.md "Substitutions").
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>

namespace speedllm::hw {

/// On-device storage format of paged KV-cache blocks. The serving stack
/// derives bytes-per-token (and hence pool residency) from this; every
/// card of an engine uses SchedulerConfig::kv_cache_dtype.
enum class KvCacheDtype : std::uint8_t {
  kFp16 = 0,  ///< half-precision KV entries (2 bytes/element), the default
  kInt8 = 1,  ///< int8 KV entries (1 byte/element) + per-block group scales
};

/// HBM2 stack: 8 GiB in 32 pseudo-channels, ~460 GB/s aggregate.
struct HbmConfig {
  int num_channels = 32;
  /// Payload bytes one pseudo-channel delivers per kernel-clock cycle.
  /// 460.8 GB/s / 32 channels = 14.4 GB/s; at 300 MHz that is 48 B/cycle.
  std::uint32_t bytes_per_cycle_per_channel = 48;
  /// Round-trip latency of a transfer start (row activation + AXI), cycles.
  std::uint32_t latency_cycles = 64;
  /// Per-transfer DMA descriptor setup cost on the issuing engine, cycles.
  std::uint32_t dma_setup_cycles = 24;
  std::uint64_t capacity_bytes = 8ull << 30;

  /// Bytes left for the paged KV-cache pool after `reserved_bytes`
  /// (resident weights, activation scratch, DMA staging) are carved out
  /// of the stack. Zero when the reservation already exceeds capacity.
  std::uint64_t kv_budget_bytes(std::uint64_t reserved_bytes) const {
    return reserved_bytes >= capacity_bytes ? 0
                                            : capacity_bytes - reserved_bytes;
  }
};

/// Programmable-logic resource capacities (XCU280 die totals).
struct FabricConfig {
  std::uint64_t luts = 1'304'000;
  std::uint64_t ffs = 2'607'000;
  std::uint64_t dsps = 9'024;
  std::uint64_t bram_blocks = 2'016;  // 36 Kib each
  std::uint64_t uram_blocks = 960;    // 288 Kib each

  std::uint64_t bram_bytes() const { return bram_blocks * (36 * 1024 / 8); }
  std::uint64_t uram_bytes() const { return uram_blocks * (288 * 1024 / 8); }
  /// Total on-chip buffer budget the compiler may allocate from.
  std::uint64_t onchip_bytes() const { return bram_bytes() + uram_bytes(); }
};

/// Activity-based power/energy coefficients.
///
/// Two classes of terms:
///  * data/compute energy per event (pJ/byte, pJ/MAC) -- variant-invariant
///    work costs the same joules no matter how it is scheduled;
///  * per-unit active/idle power -- a unit that sits idle waiting on a
///    serialized schedule still burns clock-tree and leakage power, which
///    is what makes a faster schedule more energy-efficient.
struct PowerConfig {
  // Event energies (picojoules).
  double pj_per_hbm_byte = 60.0;    // HBM2 ~7 pJ/bit incl. PHY
  double pj_per_bram_byte = 1.2;    // on-chip SRAM access
  double pj_per_mac_fp32 = 6.0;     // DSP48 cascade + routing, fp32
  double pj_per_mac_int8 = 1.2;     // packed int8 MACs
  double pj_per_sfu_op = 14.0;      // exp/div/rsqrt element op
  double pj_per_kernel_launch = 250'000.0;  // control, pipeline fill/flush

  // Unit power (watts). "Active" applies while a unit is busy; "idle" is
  // the residual clock-tree/control power of a clock-gated unit. The idle
  // coefficients are calibrated (see docs/ARCHITECTURE.md "Substitutions")
  // so the relative *dynamic* energy between variants lands on published
  // FPGA experience; board static power is tracked separately and
  // reported alongside.
  double mpe_active_w = 18.0;
  double mpe_idle_w = 0.7;
  double sfu_active_w = 3.5;
  double sfu_idle_w = 0.07;
  double dma_active_w = 0.25;  // per engine (in and out engines)
  double dma_idle_w = 0.12;
  double hbm_ctrl_active_w = 9.0;
  double hbm_ctrl_idle_w = 0.5;
  double static_w = 11.0;      // board static: shell, leakage, fans
};

/// Complete platform model parameters.
struct U280Config {
  double clock_mhz = 300.0;
  HbmConfig hbm;
  FabricConfig fabric;
  PowerConfig power;

  double seconds_per_cycle() const { return 1.0 / (clock_mhz * 1e6); }
  /// The one cycles-to-seconds formula: every simulated time the serving
  /// stack reports goes through it, so equal cycles give equal seconds.
  double cycles_to_seconds(std::uint64_t cycles) const {
    return static_cast<double>(cycles) * seconds_per_cycle();
  }
  /// The cycle nearest `seconds`; nullopt when `seconds` is NaN,
  /// negative, or past the cycle range.
  std::optional<std::uint64_t> seconds_to_cycles(double seconds) const {
    const double cycles = seconds * clock_mhz * 1e6;
    // llround is defined below 2^63 only; NaN fails both comparisons.
    if (!(cycles >= 0.0 && cycles < 0x1p63)) return std::nullopt;
    return static_cast<std::uint64_t>(std::llround(cycles));
  }

  static U280Config Default() { return U280Config{}; }
};

}  // namespace speedllm::hw
