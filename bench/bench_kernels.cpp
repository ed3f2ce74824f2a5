// SpeedLLM -- Experiment E8: CPU kernel microbenchmarks (google-benchmark).
//
// Measures the host-side ground-truth kernels the functional simulation
// runs on: fp32 matvec (serial + thread pool), the multi-row matmul one
// executor pass runs per weight matrix (serial + thread pool, and off a
// once-packed copy at the Tiny and stories15M shapes), the pooled
// matmuls of a whole stories15M forward over its distinct matrices, one
// sampled token (temperature, softmax and the top-p nucleus), int8
// quantized matvec, rmsnorm, softmax, and the full reference forward
// pass.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "llama/kernels.hpp"
#include "llama/reference.hpp"
#include "llama/sampler.hpp"
#include "llama/weights.hpp"
#include "quant/quant.hpp"

namespace {

using namespace speedllm;

std::vector<float> RandomVec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

void BM_MatMulSerial(benchmark::State& state) {
  const std::int64_t d = state.range(0), n = state.range(1);
  auto w = RandomVec(static_cast<std::size_t>(d * n), 1);
  auto x = RandomVec(static_cast<std::size_t>(n), 2);
  std::vector<float> out(static_cast<std::size_t>(d));
  for (auto _ : state) {
    llama::MatMul(out, w, x, d, n, nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * d * n);
}
BENCHMARK(BM_MatMulSerial)
    ->Args({288, 288})
    ->Args({768, 288})
    ->Args({288, 768})
    ->Args({32000, 288})
    ->Args({31, 45});  // row and column tails

void BM_MatMulThreaded(benchmark::State& state) {
  const std::int64_t d = state.range(0), n = state.range(1);
  auto w = RandomVec(static_cast<std::size_t>(d * n), 1);
  auto x = RandomVec(static_cast<std::size_t>(n), 2);
  std::vector<float> out(static_cast<std::size_t>(d));
  ThreadPool pool;
  for (auto _ : state) {
    llama::MatMul(out, w, x, d, n, &pool);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * d * n);
}
BENCHMARK(BM_MatMulThreaded)->Args({32000, 288})->Args({768, 288});

// Args: d, n, activation rows, pooled (0/1). Items are MACs, so items/s
// compares directly across row counts; wall time, since the pooled runs
// spend most of their CPU time on the workers.
void BM_MatMulRows(benchmark::State& state) {
  const std::int64_t d = state.range(0), n = state.range(1);
  const std::int64_t rows = state.range(2);
  auto w = RandomVec(static_cast<std::size_t>(d * n), 1);
  auto x = RandomVec(static_cast<std::size_t>(rows * n), 2);
  std::vector<float> out(static_cast<std::size_t>(rows * d));
  ThreadPool* pool = state.range(3) != 0 ? &ThreadPool::Global() : nullptr;
  for (auto _ : state) {
    llama::MatMulRows(out, w, x, rows, d, n, pool);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * d * n);
}
BENCHMARK(BM_MatMulRows)
    ->ArgsProduct({{288}, {288}, {1, 8, 12}, {0, 1}})
    ->ArgsProduct({{768}, {288}, {1, 8, 12}, {0, 1}})
    ->ArgsProduct({{288}, {768}, {1, 8, 12}, {0, 1}})
    ->ArgsProduct({{32000}, {288}, {1, 8, 12}, {0, 1}})
    // The Tiny matrices, serial: the row-major kernel BM_MatMulRowsPacked
    // replaces in the executor.
    ->ArgsProduct({{48}, {48}, {1, 4, 8}, {0}})
    ->ArgsProduct({{24}, {48}, {1, 4, 8}, {0}})
    ->ArgsProduct({{128}, {48}, {1, 4, 8}, {0}})
    ->ArgsProduct({{48}, {128}, {1, 4, 8}, {0}})
    ->ArgsProduct({{512}, {48}, {1, 4, 8}, {0}})
    ->UseRealTime();

// Arg: activation rows. The pooled matmuls of one stories15M forward:
// the 42 layer matrices in forward order, then the 32000x288 classifier,
// about 61 MB of distinct weights, so each call streams its matrix from
// L3 or memory as the executor's does. BM_MatMulThreaded and
// BM_MatMulRows repeat one matrix that stays in L2 and hide that cost.
// Items are MACs; wall time.
void BM_MatMulForwardSweep(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const auto config = llama::ModelConfig::Stories15M();
  const auto weights = llama::GenerateSyntheticWeights(config, 6);
  std::vector<const TensorF*> mats;
  for (std::int32_t l = 0; l < config.n_layers; ++l) {
    for (const auto* m : {&weights.wq, &weights.wk, &weights.wv, &weights.wo,
                          &weights.w1, &weights.w3, &weights.w2}) {
      mats.push_back(&(*m)[static_cast<std::size_t>(l)]);
    }
  }
  mats.push_back(&weights.classifier());
  std::int64_t macs = 0, max_d = 0, max_n = 0;
  for (const TensorF* m : mats) {
    macs += rows * m->shape().dim(0) * m->shape().dim(1);
    max_d = std::max(max_d, m->shape().dim(0));
    max_n = std::max(max_n, m->shape().dim(1));
  }
  auto x = RandomVec(static_cast<std::size_t>(rows * max_n), 2);
  std::vector<float> out(static_cast<std::size_t>(rows * max_d));
  ThreadPool& pool = ThreadPool::Global();
  for (auto _ : state) {
    for (const TensorF* m : mats) {
      const std::int64_t d = m->shape().dim(0), n = m->shape().dim(1);
      llama::MatMulRows(std::span<float>(out).first(
                            static_cast<std::size_t>(rows * d)),
                        m->span(),
                        std::span<const float>(x).first(
                            static_cast<std::size_t>(rows * n)),
                        rows, d, n, &pool);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * macs);
}
BENCHMARK(BM_MatMulForwardSweep)->Arg(1)->Arg(8)->UseRealTime();

// Args: d, n, activation rows. MatMulRowsPacked off a copy packed once
// outside the loop, as the executor's weight image holds it: at the Tiny
// matrix shapes (every one below the pool split), and at the stories15M
// shapes, which the image leaves row-major today, to compare against
// BM_MatMulRows. Items are MACs.
void BM_MatMulRowsPacked(benchmark::State& state) {
  const std::int64_t d = state.range(0), n = state.range(1);
  const std::int64_t rows = state.range(2);
  auto w = RandomVec(static_cast<std::size_t>(d * n), 1);
  auto x = RandomVec(static_cast<std::size_t>(rows * n), 2);
  std::vector<float> pk(
      static_cast<std::size_t>(llama::PackedMatMulFloats(d, n)));
  llama::PackMatMulWeights(pk, w, d, n);
  std::vector<float> out(static_cast<std::size_t>(rows * d));
  for (auto _ : state) {
    llama::MatMulRowsPacked(out, pk, w, x, rows, d, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * d * n);
}
BENCHMARK(BM_MatMulRowsPacked)
    ->ArgsProduct({{48}, {48}, {1, 4, 8}})
    ->ArgsProduct({{24}, {48}, {1, 4, 8}})
    ->ArgsProduct({{128}, {48}, {1, 4, 8}})
    ->ArgsProduct({{48}, {128}, {1, 4, 8}})
    ->ArgsProduct({{512}, {48}, {1, 4, 8}})
    ->ArgsProduct({{288}, {288}, {1, 8}})
    ->ArgsProduct({{768}, {288}, {1, 8}})
    ->ArgsProduct({{288}, {768}, {1, 8}})
    ->ArgsProduct({{32000}, {288}, {1, 8}});

// Arg: vocab. One Sampler::Sample at T=0.9, top-p 0.9 over flat logits
// (sigma 0.15, like the Tiny preset's: the nucleus holds ~87% of the
// vocabulary). Iterations rotate through 16 logit vectors, so the branch
// predictor cannot learn one input's order. Items are sampled tokens.
void BM_SampleTopP(benchmark::State& state) {
  const std::size_t vocab = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<float>> inputs;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    inputs.push_back(RandomVec(vocab, 8 + seed));
    for (float& v : inputs.back()) v *= 0.15f;
  }
  llama::SamplerConfig config;
  config.temperature = 0.9f;
  config.top_p = 0.9f;
  llama::Sampler sampler(config);
  std::vector<float> logits(vocab);
  std::size_t next = 0;
  for (auto _ : state) {
    logits = inputs[next++ % inputs.size()];
    benchmark::DoNotOptimize(sampler.Sample(logits));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleTopP)->Arg(512)->Arg(32000);

void BM_MatMulQ8(benchmark::State& state) {
  const std::int64_t d = state.range(0), n = state.range(1);
  auto w = RandomVec(static_cast<std::size_t>(d * n), 1);
  auto x = RandomVec(static_cast<std::size_t>(n), 2);
  auto qw = quant::Quantize(w, Shape{d, n}, 48);
  std::vector<float> out(static_cast<std::size_t>(d));
  for (auto _ : state) {
    quant::MatMulQ8(out, *qw, x, d, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * d * n);
}
BENCHMARK(BM_MatMulQ8)->Args({288, 288})->Args({768, 288});

void BM_RmsNorm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto x = RandomVec(n, 3);
  auto gain = RandomVec(n, 4);
  std::vector<float> out(n);
  for (auto _ : state) {
    llama::RmsNorm(out, x, gain);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RmsNorm)->Arg(288)->Arg(768);

void BM_Softmax(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto base = RandomVec(n, 5);
  std::vector<float> x(n);
  for (auto _ : state) {
    x = base;
    llama::Softmax(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Softmax)->Arg(256)->Arg(32000);

void BM_ReferenceForward(benchmark::State& state) {
  auto config = llama::ModelConfig::Stories15M();
  auto weights = llama::GenerateSyntheticWeights(config, 6);
  ThreadPool pool;
  llama::ReferenceModel model(weights, &pool);
  std::int32_t pos = 0;
  for (auto _ : state) {
    if (pos >= config.seq_len) {
      model.Reset();
      pos = 0;
    }
    auto l = model.Forward(42, pos++);
    benchmark::DoNotOptimize(l->data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReferenceForward)->Unit(benchmark::kMillisecond);

void BM_QuantizeRoundTrip(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto x = RandomVec(n, 7);
  std::vector<float> back(n);
  for (auto _ : state) {
    auto qt = quant::Quantize(x, Shape{static_cast<std::int64_t>(n)}, 64);
    quant::Dequantize(*qt, back);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuantizeRoundTrip)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
