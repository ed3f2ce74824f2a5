// SpeedLLM -- host-side device handle and generation loop.
//
// Mirrors the paper's host program: compile a variant, upload the model,
// run prefill over the prompt then autoregressive decode, timing the
// stages with the (simulated) device clock.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/executor.hpp"
#include "common/status.hpp"
#include "compiler/compiler.hpp"
#include "llama/sampler.hpp"
#include "llama/tokenizer.hpp"
#include "llama/weights.hpp"
#include "runtime/metrics.hpp"

namespace speedllm::runtime {

struct GenerationResult {
  std::vector<std::int32_t> prompt_tokens;
  std::vector<std::int32_t> generated_tokens;
  InferenceMetrics metrics;
};

/// A compiled accelerator instance bound to one set of weights.
class AcceleratorDevice {
 public:
  /// Compiles `options` for the weights' model config on `u280`.
  static StatusOr<AcceleratorDevice> Create(const llama::Weights& weights,
                                            const compiler::CompilerOptions& options,
                                            const hw::U280Config& u280);

  /// Runs prefill over `prompt_tokens` then decodes up to `max_new_tokens`
  /// with `sampler` (stops early at EOS when `stop_at_eos`).
  StatusOr<GenerationResult> Generate(
      const std::vector<std::int32_t>& prompt_tokens,
      std::int32_t max_new_tokens, llama::Sampler& sampler,
      bool stop_at_eos = false);

  /// Single forward step (benchmark/serve_bench.cpp's probes call it).
  StatusOr<std::span<const float>> Forward(std::int32_t token,
                                           std::int32_t pos) {
    return executor_->Forward(token, pos);
  }

  const accel::Program& program() const { return *program_; }
  const hw::ResourceLedger& ledger() const { return *ledger_; }
  accel::Executor& executor() { return *executor_; }

 private:
  AcceleratorDevice() = default;

  // unique_ptrs keep the addresses stable across moves (the executor
  // holds a pointer to the program).
  std::unique_ptr<accel::Program> program_;
  std::unique_ptr<hw::ResourceLedger> ledger_;
  std::unique_ptr<accel::Executor> executor_;
};

}  // namespace speedllm::runtime
