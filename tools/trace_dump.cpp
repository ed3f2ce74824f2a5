// SpeedLLM -- program disassembly + Chrome trace dump.
//
// Compiles a variant, prints the instruction listing, executes one token
// and writes the schedule as a Chrome trace (open in about://tracing or
// ui.perfetto.dev) so the pipeline overlap can be inspected visually.
//
//   trace_dump --variant speedllm --pos 5 --trace /tmp/speedllm.json
#include <cstdio>

#include "accel/disasm.hpp"
#include "accel/executor.hpp"
#include "accel/profile.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "compiler/compiler.hpp"
#include "llama/weights.hpp"
#include "obs/export.hpp"

using namespace speedllm;
using compiler::CompilerOptions;

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv, {"variant", "preset", "pos", "trace", "max_instrs"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  const std::string variant_name = cl.GetString("variant", "speedllm");
  const StatusOr<std::int64_t> pos_flag = cl.GetInt("pos", 0);
  const StatusOr<std::int64_t> max_instrs_flag = cl.GetInt("max_instrs", 120);
  for (const Status& st : {pos_flag.status(), max_instrs_flag.status()}) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  const auto pos = static_cast<std::int32_t>(*pos_flag);
  const std::string trace_path = cl.GetString("trace", "");
  const auto max_instrs = static_cast<std::size_t>(*max_instrs_flag);

  CompilerOptions opt = CompilerOptions::SpeedLLM();
  if (variant_name == "unoptimized") opt = CompilerOptions::Unoptimized();
  else if (variant_name == "nofuse") opt = CompilerOptions::NoFuse();
  else if (variant_name == "nopipeline") opt = CompilerOptions::NoPipeline();
  else if (variant_name == "noreuse") opt = CompilerOptions::NoReuse();
  else if (variant_name != "speedllm") {
    std::fprintf(stderr, "unknown variant '%s'\n", variant_name.c_str());
    return 1;
  }

  auto preset = llama::ModelConfig::FromName(cl.GetString("preset", "tiny"));
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 1;
  }
  llama::ModelConfig config = *preset;
  auto u280 = hw::U280Config::Default();
  auto cr = compiler::Compile(config, opt, u280);
  if (!cr.ok()) {
    std::fprintf(stderr, "%s\n", cr.status().ToString().c_str());
    return 1;
  }
  std::fputs(accel::Disassemble(cr->program, max_instrs).c_str(), stdout);

  llama::Weights weights = llama::GenerateSyntheticWeights(config, 42);
  accel::Executor exec(cr->program, weights, u280);
  exec.EnableTrace(true);
  for (std::int32_t p = 0; p <= pos; ++p) {
    auto r = exec.Forward(5, p);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
  }
  const auto& st = exec.last_stats();
  std::printf("\ntoken at pos %d: %llu cycles, %s, overlap %llu cycles\n", pos,
              static_cast<unsigned long long>(st.cycles),
              FormatSeconds(st.seconds).c_str(),
              static_cast<unsigned long long>(
                  exec.trace().OverlappedCycles()));

  std::printf("\nper-station profile:\n%s",
              accel::RenderProfile(accel::ProfileByStation(exec.trace()),
                                   st.cycles)
                  .c_str());
  std::printf("\ntop operators:\n");
  auto by_op = accel::ProfileByOperator(exec.trace());
  if (by_op.size() > 12) by_op.resize(12);
  std::fputs(accel::RenderProfile(by_op, st.cycles).c_str(), stdout);

  if (!trace_path.empty()) {
    if (auto s = obs::WriteChromeTrace(obs::RequestTraceRecorder{}, trace_path,
                                       &exec.trace(), u280.clock_mhz);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote Chrome trace to %s (%zu spans)\n", trace_path.c_str(),
                exec.trace().spans().size());
  }
  return 0;
}
