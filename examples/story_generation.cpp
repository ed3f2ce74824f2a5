// SpeedLLM example: the paper's edge workload -- batch story generation.
//
// Writes a llama2.c-format checkpoint + tokenizer.bin to disk (the
// gen_model tool path), loads them back like a downstream user would
// and deletes them, then generates a batch of stories on the simulated
// accelerator and on the CPU reference, comparing throughput and
// verifying the accelerator reproduces the reference exactly under
// greedy decoding.
//
//   ./examples/story_generation [--stories 3] [--length 24] [--preset tiny]
//                               [--dir /tmp]
//
// The two files carry the process id in their names, so concurrent runs
// may share one --dir.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "llama/checkpoint.hpp"
#include "llama/reference.hpp"
#include "llama/tokenizer.hpp"
#include "runtime/device.hpp"

using namespace speedllm;

int main(int argc, char** argv) {
  auto cl_or =
      CommandLine::Parse(argc, argv, {"stories", "length", "preset", "dir"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  const StatusOr<std::int64_t> stories_flag = cl.GetInt("stories", 3);
  const StatusOr<std::int64_t> length_flag = cl.GetInt("length", 24);
  for (const Status& st : {stories_flag.status(), length_flag.status()}) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  const int n_stories = static_cast<int>(*stories_flag);
  const int length = static_cast<int>(*length_flag);
  const std::string dir =
      cl.GetString("dir", std::filesystem::temp_directory_path().string());

  auto preset =
      llama::ModelConfig::FromName(cl.GetString("preset", "stories15m"));
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 1;
  }
  llama::ModelConfig config = *preset;

  // --- Produce model files (what tools/gen_model does) ---
  const std::string stem =
      dir + "/speedllm_story_" + std::to_string(getpid());
  const std::string ckpt = stem + "_model.bin";
  const std::string tokp = stem + "_tok.bin";
  {
    llama::Weights w = llama::GenerateSyntheticWeights(config, 7);
    if (auto s = llama::WriteCheckpoint(ckpt, w); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    llama::Tokenizer t = llama::SyntheticTokenizer(config.vocab_size, 7);
    if (auto s = t.Save(tokp); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      std::remove(ckpt.c_str());
      return 1;
    }
  }

  // --- Load like a user ---
  auto weights = llama::ReadCheckpoint(ckpt);
  auto tokenizer = llama::Tokenizer::Load(tokp, config.vocab_size);
  std::remove(ckpt.c_str());
  std::remove(tokp.c_str());
  if (!weights.ok() || !tokenizer.ok()) {
    std::fprintf(stderr, "load failed: checkpoint %s, tokenizer %s\n",
                 weights.status().ToString().c_str(),
                 tokenizer.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded checkpoint and tokenizer from %s (%s params)\n",
              dir.c_str(), FormatBytes(weights->param_bytes()).c_str());

  auto device = runtime::AcceleratorDevice::Create(
      *weights, compiler::CompilerOptions::SpeedLLM(),
      hw::U280Config::Default());
  if (!device.ok()) {
    std::fprintf(stderr, "%s\n", device.status().ToString().c_str());
    return 1;
  }

  const char* openings[] = {"once upon a time", "the little dog",
                            "one day a girl", "in the big forest",
                            "there lived a happy cat"};

  double sim_seconds = 0.0, sim_joules = 0.0;
  std::int64_t tokens = 0;
  auto wall_start = std::chrono::steady_clock::now();
  for (int s = 0; s < n_stories; ++s) {
    const char* opening = openings[s % std::size(openings)];
    auto prompt = tokenizer->Encode(opening, true, false);
    llama::SamplerConfig sc;
    sc.temperature = 0.0f;  // greedy so we can verify below
    llama::Sampler sampler(sc);
    auto gen = device->Generate(prompt, length, sampler);
    if (!gen.ok()) {
      std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
      return 1;
    }
    std::printf("\nstory %d: %s%s\n", s + 1, opening,
                tokenizer->DecodeAll(gen->generated_tokens).c_str());
    sim_seconds += gen->metrics.total_seconds();
    sim_joules += gen->metrics.energy.dynamic_j();
    tokens += gen->metrics.prompt_tokens + gen->metrics.generated_tokens;

    // Verify against the CPU reference (bit-exact greedy decoding).
    llama::ReferenceModel ref(*weights, &ThreadPool::Global());
    std::span<const float> logits;
    std::int32_t pos = 0;
    for (auto t : gen->prompt_tokens) {
      logits = *ref.Forward(t, pos++);
    }
    for (auto expected : gen->generated_tokens) {
      std::int32_t got = llama::Sampler::ArgMax(logits);
      if (got != expected) {
        std::fprintf(stderr, "MISMATCH vs reference at pos %d\n", pos);
        return 1;
      }
      logits = *ref.Forward(got, pos++);
    }
  }
  auto wall_end = std::chrono::steady_clock::now();
  double host_s =
      std::chrono::duration<double>(wall_end - wall_start).count();

  std::printf("\n=== batch summary ===\n");
  std::printf("stories: %d, tokens: %lld (all verified vs CPU reference)\n",
              n_stories, static_cast<long long>(tokens));
  std::printf("simulated U280 time: %s (%.1f tok/s), dynamic energy %.1f mJ "
              "(%.1f tok/J)\n",
              FormatSeconds(sim_seconds).c_str(), tokens / sim_seconds,
              sim_joules * 1e3, tokens / sim_joules);
  std::printf("host simulation wall time: %s\n", FormatSeconds(host_s).c_str());
  return 0;
}
