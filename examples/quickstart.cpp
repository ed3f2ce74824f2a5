// SpeedLLM quickstart: compile the accelerator, generate text, read the
// performance counters. Everything is synthetic and in-memory -- no files
// or hardware needed.
//
//   ./examples/quickstart
#include <cstdio>

#include "common/table.hpp"
#include "llama/tokenizer.hpp"
#include "runtime/device.hpp"

int main() {
  using namespace speedllm;

  // 1. A stories15M-shaped model with deterministic synthetic weights
  //    (stands in for the TinyStories-trained checkpoint; see
  //    docs/ARCHITECTURE.md "Substitutions").
  llama::ModelConfig config = llama::ModelConfig::Stories15M();
  std::printf("model: %s\n", config.ToString().c_str());
  llama::Weights weights = llama::GenerateSyntheticWeights(config, /*seed=*/42);
  llama::Tokenizer tokenizer = llama::SyntheticTokenizer(config.vocab_size, 42);

  // 2. Compile the full SpeedLLM variant for the U280 model.
  auto device = runtime::AcceleratorDevice::Create(
      weights, compiler::CompilerOptions::SpeedLLM(),
      hw::U280Config::Default());
  if (!device.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 device.status().ToString().c_str());
    return 1;
  }
  std::printf("compiled %zu instructions in %llu fused groups\n",
              device->program().instrs.size(),
              static_cast<unsigned long long>(
                  device->program().stats.num_groups));

  // 3. Encode a prompt and generate.
  auto prompt = tokenizer.Encode("once upon a time", /*bos=*/true,
                                 /*eos=*/false);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;
  sc.top_p = 0.9f;
  sc.seed = 1234;
  llama::Sampler sampler(sc);
  auto gen = device->Generate(prompt, /*max_new_tokens=*/32, sampler);
  if (!gen.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 gen.status().ToString().c_str());
    return 1;
  }

  // 4. Decode and report. (Synthetic weights produce synthetic prose.)
  std::printf("\nprompt + continuation:\n  once upon a time%s\n\n",
              tokenizer.DecodeAll(gen->generated_tokens).c_str());

  const auto& m = gen->metrics;
  std::printf("simulated U280 performance:\n");
  std::printf("  prefill: %3lld tokens in %s\n",
              static_cast<long long>(m.prompt_tokens),
              FormatSeconds(m.prefill_seconds).c_str());
  std::printf("  decode:  %3lld tokens in %s  (%.1f tok/s)\n",
              static_cast<long long>(m.generated_tokens),
              FormatSeconds(m.decode_seconds).c_str(),
              m.decode_tokens_per_second());
  std::printf("  energy:  %.1f tokens/J dynamic (%.1f tokens/J with board "
              "static), avg power %.1f W\n",
              m.tokens_per_joule(), m.tokens_per_joule_total(),
              m.average_power_w());
  std::printf("  HBM traffic: %s, kernel launches: %llu\n",
              FormatBytes(m.hbm_bytes).c_str(),
              static_cast<unsigned long long>(m.kernel_launches));
  return 0;
}
