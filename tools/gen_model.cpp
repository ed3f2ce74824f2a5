// SpeedLLM -- synthetic model generator.
//
// Writes a llama2.c-format checkpoint with deterministic random weights
// plus a matching tokenizer.bin, standing in for the stories15M model
// trained on TinyStories (see docs/ARCHITECTURE.md "Substitutions").
//
// Usage:
//   gen_model --out model.bin --tokenizer tokenizer.bin
//             [--preset stories15m|stories110m|tiny] [--seed 42]
#include <cstdio>

#include "common/cli.hpp"
#include "llama/checkpoint.hpp"
#include "llama/config.hpp"
#include "llama/tokenizer.hpp"
#include "llama/weights.hpp"

int main(int argc, char** argv) {
  using namespace speedllm;
  auto cl_or = CommandLine::Parse(
      argc, argv, {"out", "tokenizer", "preset", "seed"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  const std::string out = cl.GetString("out", "model.bin");
  const std::string tok_path = cl.GetString("tokenizer", "tokenizer.bin");
  const StatusOr<std::int64_t> seed_flag = cl.GetInt("seed", 42);
  if (!seed_flag.ok()) {
    std::fprintf(stderr, "%s\n", seed_flag.status().ToString().c_str());
    return 1;
  }
  const auto seed = static_cast<std::uint64_t>(*seed_flag);

  auto preset =
      llama::ModelConfig::FromName(cl.GetString("preset", "stories15m"));
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 1;
  }
  llama::ModelConfig config = *preset;

  std::printf("generating %s\n", config.ToString().c_str());
  llama::Weights w = llama::GenerateSyntheticWeights(config, seed);
  Status s = llama::WriteCheckpoint(out, w);
  if (!s.ok()) {
    std::fprintf(stderr, "checkpoint: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%llu bytes of parameters)\n", out.c_str(),
              static_cast<unsigned long long>(w.param_bytes()));

  llama::Tokenizer tok = llama::SyntheticTokenizer(config.vocab_size, seed);
  s = tok.Save(tok_path);
  if (!s.ok()) {
    std::fprintf(stderr, "tokenizer: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (vocab %d)\n", tok_path.c_str(), tok.vocab_size());
  return 0;
}
