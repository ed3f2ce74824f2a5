#include "runtime/eval.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "llama/kernels.hpp"
#include "llama/reference.hpp"
#include "llama/tokenizer.hpp"

namespace speedllm::runtime {

namespace {

/// log(softmax(logits)[target]) computed stably.
double LogProbOf(std::span<const float> logits, std::int32_t target) {
  float max_val = logits[0];
  for (float v : logits) max_val = std::max(max_val, v);
  double sum = 0.0;
  for (float v : logits) sum += std::exp(static_cast<double>(v - max_val));
  return static_cast<double>(logits[target] - max_val) - std::log(sum);
}

}  // namespace

double QualityReport::ref_perplexity() const { return std::exp(ref_avg_nll); }
double QualityReport::test_perplexity() const {
  return std::exp(test_avg_nll);
}

StatusOr<QualityReport> EvaluateAgainstReference(
    const llama::Weights& weights, AcceleratorDevice& device,
    const std::vector<std::int32_t>& tokens) {
  if (tokens.size() < 2) {
    return InvalidArgument("need at least 2 tokens to score predictions");
  }
  if (tokens.size() > static_cast<std::size_t>(weights.config.seq_len)) {
    return OutOfRange("stream longer than seq_len");
  }
  llama::ReferenceModel ref(weights, &ThreadPool::Global());
  accel::Executor& exec = device.executor();
  exec.ResetSequence();

  QualityReport report;
  double ref_nll = 0.0, test_nll = 0.0;
  std::int64_t agree = 0;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    const std::int32_t pos = static_cast<std::int32_t>(i);
    const std::int32_t target = tokens[i + 1];
    SPEEDLLM_ASSIGN_OR_RETURN(std::span<const float> ref_logits,
                              ref.Forward(tokens[i], pos));
    SPEEDLLM_ASSIGN_OR_RETURN(std::span<const float> test_logits,
                              exec.Forward(tokens[i], pos));
    ref_nll -= LogProbOf(ref_logits, target);
    test_nll -= LogProbOf(test_logits, target);
    if (llama::Sampler::ArgMax(ref_logits) ==
        llama::Sampler::ArgMax(test_logits)) {
      ++agree;
    }
    report.max_logit_err =
        std::max(report.max_logit_err, MaxAbsDiff(test_logits, ref_logits));
    ++report.positions;
  }
  report.ref_avg_nll = ref_nll / static_cast<double>(report.positions);
  report.test_avg_nll = test_nll / static_cast<double>(report.positions);
  report.top1_agreement =
      static_cast<double>(agree) / static_cast<double>(report.positions);
  return report;
}

std::vector<std::int32_t> SyntheticEvalStream(const llama::ModelConfig& config,
                                              std::int32_t length,
                                              std::uint64_t seed) {
  std::vector<std::int32_t> tokens;
  tokens.reserve(length);
  tokens.push_back(llama::kBosToken);
  Rng rng(seed);
  for (std::int32_t i = 1; i < length; ++i) {
    tokens.push_back(static_cast<std::int32_t>(
        rng.NextBounded(static_cast<std::uint64_t>(config.vocab_size))));
  }
  return tokens;
}

}  // namespace speedllm::runtime
