// Unit tests for the program disassembler and Chrome trace export.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "accel/disasm.hpp"
#include "compiler/compiler.hpp"
#include "obs/export.hpp"

namespace speedllm {
namespace {

accel::Program CompileTiny() {
  auto r = compiler::Compile(llama::ModelConfig::Tiny(),
                             compiler::CompilerOptions::SpeedLLM(),
                             hw::U280Config::Default());
  EXPECT_TRUE(r.ok());
  return std::move(r).value().program;
}

TEST(DisasmTest, SummaryContainsKeyStats) {
  auto prog = CompileTiny();
  std::string s = accel::ProgramSummary(prog);
  EXPECT_NE(s.find("SpeedLLM"), std::string::npos);
  EXPECT_NE(s.find(std::to_string(prog.instrs.size())), std::string::npos);
  EXPECT_NE(s.find("pipeline=on"), std::string::npos);
  EXPECT_NE(s.find("fusion=on"), std::string::npos);
}

TEST(DisasmTest, ListsEveryInstructionWhenUntruncated) {
  auto prog = CompileTiny();
  std::string s = accel::Disassemble(prog);
  // Every instruction id appears.
  for (const auto& in : prog.instrs) {
    std::string id = "%";
    id += std::to_string(in.id);
    EXPECT_NE(s.find(id), std::string::npos) << "missing instr " << in.id;
  }
  // Group headers present.
  EXPECT_NE(s.find("group 0"), std::string::npos);
}

TEST(DisasmTest, TruncationNotesRemainder) {
  auto prog = CompileTiny();
  std::string s = accel::Disassemble(prog, 10);
  EXPECT_NE(s.find("more instructions"), std::string::npos);
  // Far fewer lines than the full program.
  EXPECT_LT(s.size(), accel::Disassemble(prog).size());
}

TEST(DisasmTest, FormatInstrShowsDmaAndComputeFields) {
  auto prog = CompileTiny();
  bool saw_dma = false, saw_tile = false;
  for (const auto& in : prog.instrs) {
    std::string line = accel::FormatInstr(in);
    if (in.opcode == accel::Opcode::kDmaLoad) {
      EXPECT_NE(line.find("B ch["), std::string::npos) << line;
      saw_dma = true;
    }
    if (in.compute == accel::ComputeKind::kMatMulTile) {
      EXPECT_NE(line.find("rows["), std::string::npos) << line;
      EXPECT_NE(line.find("macs"), std::string::npos) << line;
      saw_tile = true;
    }
  }
  EXPECT_TRUE(saw_dma);
  EXPECT_TRUE(saw_tile);
}

// ---------------- Chrome trace export ----------------
// Kernel spans render through obs::ToChromeTraceJson under an empty
// serving trace, the way tools/trace_dump writes them.

sim::TraceRecorder MakeTrace() {
  sim::TraceRecorder t;
  t.set_enabled(true);
  sim::TraceSpan a;
  a.instr_id = 1;
  a.station = "dma_in";
  a.start = 0;
  a.end = 100;
  a.bytes = 4096;
  a.label = "load.w\"q\"";  // quote forces escaping
  t.Record(a);
  sim::TraceSpan b;
  b.instr_id = 2;
  b.station = "mpe";
  b.start = 50;
  b.end = 150;
  b.ops = 1234;
  b.label = "matmul.t0";
  t.Record(b);
  return t;
}

TEST(TraceExportTest, ProducesValidLookingJson) {
  auto t = MakeTrace();
  std::string json =
      obs::ToChromeTraceJson(obs::RequestTraceRecorder{}, &t, 300.0);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dma_in\""), std::string::npos);
  EXPECT_NE(json.find("\"mpe\""), std::string::npos);
  EXPECT_NE(json.find("matmul.t0"), std::string::npos);
  EXPECT_NE(json.find("\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
  EXPECT_NE(json.find("\"ops\":1234"), std::string::npos);
  // Balanced braces (cheap structural sanity check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceExportTest, CycleScaleApplied) {
  sim::TraceRecorder t;
  t.set_enabled(true);
  sim::TraceSpan s;
  s.station = "x";
  s.start = 300;
  s.end = 600;
  s.label = "job";
  t.Record(s);
  // 1 MHz -> 1 us/cycle: ts=300us, dur=300us.
  std::string json =
      obs::ToChromeTraceJson(obs::RequestTraceRecorder{}, &t, 1.0);
  EXPECT_NE(json.find("\"ts\":300"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":300"), std::string::npos);
}

TEST(TraceExportTest, WritesFile) {
  auto t = MakeTrace();
  std::string path =
      (std::filesystem::temp_directory_path() / "speedllm_trace.json").string();
  ASSERT_TRUE(
      obs::WriteChromeTrace(obs::RequestTraceRecorder{}, path, &t).ok());
  EXPECT_GT(std::filesystem::file_size(path), 100u);
  std::remove(path.c_str());
}

TEST(TraceExportTest, EmptyKernelTraceAddsNoKernelProcess) {
  sim::TraceRecorder t;
  const obs::RequestTraceRecorder serving;
  std::string json = obs::ToChromeTraceJson(serving, &t);
  EXPECT_EQ(json, obs::ToChromeTraceJson(serving));
  EXPECT_EQ(json.find("\"kernel\""), std::string::npos);
}

}  // namespace
}  // namespace speedllm
