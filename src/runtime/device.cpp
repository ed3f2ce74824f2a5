#include "runtime/device.hpp"

namespace speedllm::runtime {

StatusOr<AcceleratorDevice> AcceleratorDevice::Create(
    const llama::Weights& weights, const compiler::CompilerOptions& options,
    const hw::U280Config& u280) {
  SPEEDLLM_ASSIGN_OR_RETURN(compiler::CompileResult cr,
                            compiler::Compile(weights.config, options, u280));
  AcceleratorDevice dev;
  dev.program_ = std::make_unique<accel::Program>(std::move(cr.program));
  dev.ledger_ = std::make_unique<hw::ResourceLedger>(std::move(cr.ledger));
  dev.executor_ =
      std::make_unique<accel::Executor>(*dev.program_, weights, u280);
  return dev;
}

StatusOr<GenerationResult> AcceleratorDevice::Generate(
    const std::vector<std::int32_t>& prompt_tokens,
    std::int32_t max_new_tokens, llama::Sampler& sampler, bool stop_at_eos) {
  if (prompt_tokens.empty()) {
    return InvalidArgument("prompt must contain at least one token (BOS)");
  }
  const auto& cfg = program_->model;
  if (static_cast<std::int64_t>(prompt_tokens.size()) + max_new_tokens >
      cfg.seq_len) {
    return OutOfRange("prompt + generation exceeds seq_len " +
                      std::to_string(cfg.seq_len));
  }

  executor_->ResetSequence();
  executor_->ResetStats();

  GenerationResult result;
  result.prompt_tokens = prompt_tokens;
  InferenceMetrics& m = result.metrics;
  m.prompt_tokens = static_cast<std::int64_t>(prompt_tokens.size());

  // Prefill: one run over the prompt; only the last row's logits are read.
  SPEEDLLM_ASSIGN_OR_RETURN(std::span<const float> logits,
                            executor_->Forward(prompt_tokens, 0));
  auto pos = static_cast<std::int32_t>(prompt_tokens.size());
  const accel::TokenRunStats prefill = executor_->total_stats();
  m.prefill_seconds = prefill.seconds;
  m.prefill_joules = prefill.joules;

  // Decode.
  std::vector<float> logits_copy(logits.begin(), logits.end());
  for (std::int32_t i = 0; i < max_new_tokens; ++i) {
    std::int32_t next = sampler.Sample(logits_copy);
    if (stop_at_eos && (next == llama::kEosToken || next == llama::kBosToken)) {
      break;
    }
    result.generated_tokens.push_back(next);
    if (pos >= cfg.seq_len) break;
    // The last step's logits would sample nothing.
    SPEEDLLM_ASSIGN_OR_RETURN(
        logits, executor_->Forward(next, pos,
                                   /*want_logits=*/i + 1 < max_new_tokens));
    logits_copy.assign(logits.begin(), logits.end());
    ++pos;
  }

  const accel::TokenRunStats total = executor_->total_stats();
  m.generated_tokens = static_cast<std::int64_t>(result.generated_tokens.size());
  m.decode_seconds = total.seconds - m.prefill_seconds;
  m.decode_joules = total.joules - m.prefill_joules;
  m.total_cycles = total.cycles;
  m.hbm_bytes = total.hbm_bytes;
  m.kernel_launches = total.launches;
  m.energy = total.energy;
  return result;
}

}  // namespace speedllm::runtime
