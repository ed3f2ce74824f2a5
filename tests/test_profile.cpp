// Unit tests for per-operator cycle attribution.
#include <gtest/gtest.h>

#include "accel/executor.hpp"
#include "accel/profile.hpp"
#include "compiler/compiler.hpp"

namespace speedllm::accel {
namespace {

sim::TraceRecorder SyntheticTrace() {
  sim::TraceRecorder t;
  t.set_enabled(true);
  auto add = [&](const char* station, const char* label, sim::Cycles s,
                 sim::Cycles e, std::uint64_t bytes) {
    sim::TraceSpan span;
    span.station = station;
    span.label = label;
    span.start = s;
    span.end = e;
    span.bytes = bytes;
    t.Record(span);
  };
  add("dma_in", "load.l0.wq.t0", 0, 100, 4096);
  add("dma_in", "load.l1.wq.t3", 100, 250, 4096);
  add("mpe", "l0.matmul.q.t0", 50, 90, 0);
  add("mpe", "l1.matmul.q.t1", 90, 140, 0);
  add("sfu", "l0.rmsnorm.att", 10, 20, 0);
  return t;
}

TEST(ProfileTest, StationAggregation) {
  auto entries = ProfileByStation(SyntheticTrace());
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "dma_in");  // 250 cycles, the most
  EXPECT_EQ(entries[0].cycles, 250u);
  EXPECT_EQ(entries[0].bytes, 8192u);
  EXPECT_EQ(entries[0].spans, 2u);
  EXPECT_EQ(entries[1].key, "mpe");
  EXPECT_EQ(entries[1].cycles, 90u);
  EXPECT_EQ(entries[2].key, "sfu");
}

TEST(ProfileTest, OperatorBucketsMergeLayersAndTiles) {
  auto entries = ProfileByOperator(SyntheticTrace());
  // load.l0.wq.t0 + load.l1.wq.t3 -> "load.wq";
  // l0.matmul.q.t0 + l1.matmul.q.t1 -> "matmul.q".
  bool found_load = false, found_matmul = false;
  for (const auto& e : entries) {
    if (e.key == "load.wq") {
      EXPECT_EQ(e.spans, 2u);
      EXPECT_EQ(e.cycles, 250u);
      found_load = true;
    }
    if (e.key == "matmul.q") {
      EXPECT_EQ(e.spans, 2u);
      EXPECT_EQ(e.cycles, 90u);
      found_matmul = true;
    }
  }
  EXPECT_TRUE(found_load);
  EXPECT_TRUE(found_matmul);
}

TEST(ProfileTest, RenderIncludesPercentages) {
  auto entries = ProfileByStation(SyntheticTrace());
  std::string s = RenderProfile(entries, 250);
  EXPECT_NE(s.find("dma_in"), std::string::npos);
  EXPECT_NE(s.find("100.0"), std::string::npos);  // dma_in == total
  EXPECT_FALSE(RenderProfile({}, 0).empty());
}

TEST(ProfileTest, RealTraceAttributesWeightStream) {
  // stories15M: the weight stream dominates (a tiny test model would be
  // launch-overhead-bound instead).
  auto config = llama::ModelConfig::Stories15M();
  auto weights = llama::GenerateSyntheticWeights(config, 3);
  auto u280 = hw::U280Config::Default();
  auto cr = compiler::Compile(config, compiler::CompilerOptions::SpeedLLM(),
                              u280);
  ASSERT_TRUE(cr.ok());
  Executor exec(cr->program, weights, u280);
  exec.EnableTrace(true);
  ASSERT_TRUE(exec.Forward(4, 0).ok());

  auto by_station = ProfileByStation(exec.trace());
  ASSERT_FALSE(by_station.empty());
  // The design is weight-stream-bound: dma_in must top the profile.
  EXPECT_EQ(by_station[0].key, "dma_in");

  auto by_op = ProfileByOperator(exec.trace());
  // The classifier matmul load dominates a tiny model's stream.
  std::uint64_t cls_cycles = 0, total = 0;
  for (const auto& e : by_op) {
    if (e.key.find("matmul.cls") != std::string::npos ||
        e.key.find("load.tok_emb") != std::string::npos) {
      cls_cycles += e.cycles;
    }
    total += e.cycles;
  }
  EXPECT_GT(cls_cycles, total / 5);
}

}  // namespace
}  // namespace speedllm::accel
