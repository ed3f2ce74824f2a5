// SpeedLLM -- compiler configuration and the paper's variant presets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace speedllm::compiler {

/// Knobs controlling how the decode graph is lowered. The five presets are
/// the paper's accelerator variants: PaperVariants() is the comparison set
/// of Fig. 2 and NoReuse() the memory-reuse ablation (see
/// docs/ARCHITECTURE.md "Substitutions").
struct CompilerOptions {
  /// Contribution 1 -- customized data pipeline. On: independent DMA-in /
  /// DMA-out engines, wide HBM channel striping, double-buffered tiles so
  /// read/compute/write overlap. Off: a single AXI master with narrow
  /// striping and a fully serialized read -> compute -> write iteration.
  bool enable_pipeline = true;

  /// Contribution 3 -- Llama2 operator fusion. On: composite kernels keep
  /// intermediates on-chip. Off: one kernel launch per operator, every
  /// intermediate round-trips through HBM.
  bool enable_fusion = true;

  /// Contribution 2 -- memory allocation reuse. On: liveness-driven
  /// cyclic reuse of on-chip buffer segments. Off: every buffer is a
  /// distinct static array (the naive HLS style), which inflates the
  /// footprint and forces smaller tiles / single buffering.
  bool enable_memory_reuse = true;

  // --- HBM channel striping (channels per logical stream) ---
  int weight_channels = 22;  // weight streaming group
  int act_channels = 4;      // activation spill/fill group
  int kv_channels = 6;       // KV-cache streaming group
  /// Striping width when enable_pipeline is false (single AXI master).
  int serial_channels = 4;

  // --- Compute geometry ---
  std::int64_t mpe_macs_per_cycle = 512;  // 32x16 fp32 systolic array
  std::uint32_t mpe_fill_cycles = 32;     // array fill/drain per tile
  std::int64_t sfu_lanes = 16;
  std::uint32_t sfu_fill_cycles = 16;
  std::uint32_t kernel_launch_cycles = 600;  // per composite-kernel start

  // --- On-chip buffer sizing ---
  /// Target weight-tile payload; the compiler shrinks tiles from here
  /// until the buffer allocation fits the budget.
  std::uint64_t max_tile_bytes = 128 * 1024;
  /// Fraction of BRAM+URAM available to data buffers (the rest is
  /// consumed by FIFOs, the shell and kernel plumbing).
  double onchip_budget_fraction = 0.18;

  /// Use int8 weights (quantized datapath) instead of fp32.
  bool int8_weights = false;

  std::string name = "custom";

  /// Full SpeedLLM: all three contributions enabled.
  static CompilerOptions SpeedLLM();
  /// Baseline accelerator: serialized, unfused, no reuse, narrow stream.
  static CompilerOptions Unoptimized();
  /// "None fused one": pipeline + reuse, fusion disabled.
  static CompilerOptions NoFuse();
  /// "None parallel tech. one": fusion + reuse, pipeline disabled.
  static CompilerOptions NoPipeline();
  /// Reuse disabled, everything else on (memory-reuse ablation).
  static CompilerOptions NoReuse();

  /// The comparison set of Fig. 2 in evaluation order: Unoptimized,
  /// NoPipeline, NoFuse, SpeedLLM.
  static std::vector<CompilerOptions> PaperVariants();
};

}  // namespace speedllm::compiler
