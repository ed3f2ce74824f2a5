// SpeedLLM example: design-space exploration.
//
// The point of an FPGA co-design is that the hardware is a parameter.
// This example sweeps the three main axes of the SpeedLLM design -- MPE
// width, HBM channel striping, and weight tile size -- and reports the
// simulated latency, utilization, and resource cost of each point, the
// loop an architect would run before committing to a bitstream.
//
//   ./examples/design_space_explorer [--preset stories15m] [--decode 8]
#include <cstdio>

#include "accel/executor.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "compiler/compiler.hpp"
#include "llama/weights.hpp"

using namespace speedllm;

namespace {

struct Point {
  std::int64_t mpe;
  int channels;
  std::uint64_t tile_kib;
};

double MeasureMsPerToken(const accel::Program& prog,
                         const llama::Weights& weights,
                         const hw::U280Config& u280, int tokens) {
  accel::Executor exec(prog, weights, u280);
  for (int pos = 0; pos < tokens; ++pos) {
    auto r = exec.Forward(7, pos);
    if (!r.ok()) return -1.0;
  }
  return exec.total_stats().seconds * 1e3 / tokens;
}

}  // namespace

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(argc, argv, {"preset", "decode"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  auto preset =
      llama::ModelConfig::FromName(cl_or->GetString("preset", "stories15m"));
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 1;
  }
  llama::ModelConfig config = *preset;
  const StatusOr<std::int64_t> decode = cl_or->GetInt("decode", 8);
  if (!decode.ok()) {
    std::fprintf(stderr, "%s\n", decode.status().ToString().c_str());
    return 1;
  }
  const int tokens = static_cast<int>(*decode);
  auto u280 = hw::U280Config::Default();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 42);

  std::printf("== design space exploration (model %s, %d tokens/point) ==\n",
              config.ToString().c_str(), tokens);

  Table table({"mpe_macs", "weight_ch", "tile_KiB", "ms_per_tok", "DSP%",
               "onchip_peak", "verdict"});
  double best_ms = 1e30;
  std::string best;
  for (const Point& p : {Point{128, 8, 64},  Point{128, 22, 128},
                         Point{256, 16, 128}, Point{512, 8, 64},
                         Point{512, 22, 128}, Point{512, 22, 256},
                         Point{1024, 22, 128}, Point{1024, 28, 256},
                         Point{2048, 22, 256}}) {
    compiler::CompilerOptions opt = compiler::CompilerOptions::SpeedLLM();
    opt.mpe_macs_per_cycle = p.mpe;
    opt.weight_channels = p.channels;
    opt.kv_channels = std::max(1, std::min(6, 32 - p.channels - 4));
    opt.max_tile_bytes = p.tile_kib * 1024;
    auto cr = compiler::Compile(config, opt, u280);
    table.AddRow();
    table.Cell(p.mpe);
    table.Cell(static_cast<std::int64_t>(p.channels));
    table.Cell(static_cast<std::int64_t>(p.tile_kib));
    if (!cr.ok()) {
      table.Cell("-");
      table.Cell("-");
      table.Cell("-");
      table.Cell(cr.status().code() == StatusCode::kResourceExhausted
                     ? "does not fit"
                     : "error");
      continue;
    }
    double ms = MeasureMsPerToken(cr->program, weights, u280, tokens);
    char dsp[32];
    std::snprintf(dsp, sizeof(dsp), "%.1f",
                  100.0 * cr->ledger.utilization(hw::Resource::kDsp));
    table.Cell(ms, 3);
    table.Cell(dsp);
    table.Cell(FormatBytes(cr->program.stats.onchip_peak_bytes));
    std::string verdict = "ok";
    if (ms > 0 && ms < best_ms) {
      best_ms = ms;
      best = std::to_string(p.mpe) + " MACs / " + std::to_string(p.channels) +
             " ch / " + std::to_string(p.tile_kib) + " KiB";
      verdict = "best so far";
    }
    table.Cell(verdict);
  }
  table.Print();
  std::printf("\nbest point: %s at %.3f ms/token\n", best.c_str(), best_ms);
  std::printf(
      "Note how latency saturates once the weight stream, not the MPE, is "
      "the bottleneck -- the regime the paper's pipeline optimizations "
      "target.\n");
  return 0;
}
