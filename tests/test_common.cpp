// Unit tests for src/common: status, tensors, rng, threadpool, table, cli.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/tensor.hpp"
#include "common/threadpool.hpp"

// Counts global operator new calls so a test can prove a code path
// allocation-free.
namespace {
std::atomic<long> g_heap_allocations{0};
}  // namespace

// GCC pairs inlined new-expressions with these frees and cannot see that
// the replacement operator new above them is malloc-backed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace speedllm {
namespace {

// ---------------- Status ----------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad dim");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(DataLoss("x").code(), StatusCode::kDataLoss);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status::Ok());
  EXPECT_EQ(Internal("a"), Internal("a"));
  EXPECT_FALSE(Internal("a") == Internal("b"));
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return InvalidArgument("not positive");
  return v;
}

Status UsesAssignOrReturn(int v, int* out) {
  SPEEDLLM_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  return Status::Ok();
}

TEST(StatusOrTest, ValueAndErrorPaths) {
  auto good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);

  auto bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, ValuedStatusIsOkAndAllocationFree) {
  const long before = g_heap_allocations.load();
  StatusOr<int> v = ParsePositive(5);
  const bool ok = v.ok() && v.status().ok() && v.status().message().empty();
  const long allocations = g_heap_allocations.load() - before;
  EXPECT_TRUE(ok);
  EXPECT_EQ(v.status(), Status::Ok());
  EXPECT_EQ(allocations, 0);
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UsesAssignOrReturn(3, &out).ok());
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(UsesAssignOrReturn(-3, &out).ok());
}

TEST(StatusOrTest, MoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 7);
}

// ---------------- Shape / Tensor ----------------

TEST(ShapeTest, BasicProperties) {
  Shape s{3, 4};
  EXPECT_EQ(s.rank(), 2);
  EXPECT_EQ(s.dim(0), 3);
  EXPECT_EQ(s[1], 4);
  EXPECT_EQ(s.num_elements(), 12);
  EXPECT_EQ(s.ToString(), "[3, 4]");
  EXPECT_EQ(Shape{}.num_elements(), 1);  // scalar
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{3, 2}));
  EXPECT_NE((Shape{2}), (Shape{2, 1}));
}

TEST(TensorTest, ZerosAndFull) {
  auto z = TensorF::Zeros(Shape{5});
  for (float v : z.span()) EXPECT_EQ(v, 0.0f);
  auto f = TensorF::Full(Shape{4}, 2.5f);
  for (float v : f.span()) EXPECT_EQ(v, 2.5f);
}

TEST(TensorTest, AlignmentIs64Bytes) {
  TensorF t(Shape{17});
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 64, 0u);
}

TEST(TensorTest, CloneIsDeep) {
  auto a = TensorF::Full(Shape{3}, 1.0f);
  auto b = a.Clone();
  b[0] = 9.0f;
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(b[0], 9.0f);
}

TEST(TensorTest, RowAndAtAccessors) {
  TensorF t(Shape{2, 3});
  std::iota(t.data(), t.data() + 6, 0.0f);
  EXPECT_EQ(t.at(1, 2), 5.0f);
  auto row = t.row(1);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 3.0f);
}

TEST(TensorTest, DefaultIsEmpty) {
  // A rank-0 shape counts one element, but a default tensor owns nothing:
  // walking its span must touch no memory.
  TensorF t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.size_bytes(), 0u);
  EXPECT_TRUE(t.span().empty());
  const TensorF& ct = t;
  EXPECT_TRUE(ct.span().empty());
  // A scalar that owns its storage still holds one element.
  TensorF scalar(Shape{});
  EXPECT_EQ(scalar.size(), 1u);
}

TEST(TensorTest, DiffHelpers) {
  std::vector<float> a = {1.0f, 2.0f, 3.0f};
  std::vector<float> b = {1.0f, 2.5f, 3.0f};
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, b), 0.5f);
  EXPECT_EQ(MaxAbsDiff(a, a), 0.0f);
  EXPECT_GT(RelativeL2Error(a, b), 0.0f);
  EXPECT_EQ(RelativeL2Error(a, a), 0.0f);
}

// ---------------- Rng ----------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, FloatInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    float f = rng.NextFloat();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, DiscardSkipsDraws) {
  // The last seed's counter wraps past 2^64 within a few draws.
  for (std::uint64_t seed : {std::uint64_t{7}, ~std::uint64_t{0} - 5}) {
    for (std::uint64_t n : {0u, 1u, 1000u}) {
      Rng stepped(seed), skipped(seed);
      for (std::uint64_t i = 0; i < n; ++i) stepped.NextU64();
      skipped.Discard(n);
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(stepped.NextU64(), skipped.NextU64())
            << "seed " << seed << " n " << n << " draw " << i;
      }
    }
  }
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng root(7);
  Rng a = root.Fork(1);
  Rng b = root.Fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng r1(9), r2(9);
  EXPECT_EQ(r1.Fork(5).NextU64(), r2.Fork(5).NextU64());
}

// ---------------- ThreadPool ----------------

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::int64_t sum = 0;  // unsynchronized: only the caller runs tasks
  pool.ParallelRun(100, [&](std::size_t i) {
    sum += static_cast<std::int64_t>(i);
  });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, NestedParallelRunDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.ParallelRun(64, [&](std::size_t) {
    pool.ParallelRun(8, [&](std::size_t) { total += 1; });
  });
  EXPECT_EQ(total.load(), 64 * 8);
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::Global(), &ThreadPool::Global());
}

TEST(ThreadPoolTest, ParallelRunCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelRun(hits.size(),
                   [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelRunFansOutTinyBatches) {
  // There is no inline-below-threshold heuristic: n == 2 must still
  // cover both indices (a tick's segment dispatches one long-running
  // lane per index).
  ThreadPool pool(4);
  for (std::size_t n : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    std::vector<std::atomic<int>> hits(n == 0 ? 1 : n);
    pool.ParallelRun(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
    if (n == 0) {
      EXPECT_EQ(hits[0].load(), 0);
    }
  }
}

TEST(ThreadPoolTest, BackToBackTinyBatchesFinishBeforeReturning) {
  // A two-task batch on four threads leaves workers that wake after every
  // task is claimed; they must stay out of the closed batch, and the
  // caller must still wait for each worker that did join. Each task runs
  // a few microseconds, so a joined worker is still busy when the caller
  // runs out of tasks.
  ThreadPool pool(4);
  for (int b = 0; b < 5000; ++b) {
    std::array<std::atomic<int>, 2> hits{};
    pool.ParallelRun(2, [&](std::size_t i) {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(2);
      while (std::chrono::steady_clock::now() < until) {
      }
      hits[i].fetch_add(1);
    });
    ASSERT_EQ(hits[0].load(), 1) << "batch " << b;
    ASSERT_EQ(hits[1].load(), 1) << "batch " << b;
  }
}

TEST(ThreadPoolTest, ConcurrentExternalCallersHammer) {
  // Regression: two distinct external threads sharing one pool must not
  // corrupt each other's batches (callers serialize internally; neither
  // may be mistaken for a nested call and silently run the other's
  // indices or skip some).
  ThreadPool pool(4);
  constexpr int kIters = 200;
  constexpr std::size_t kN = 512;
  auto hammer = [&](std::atomic<std::int64_t>& sum,
                    std::atomic<std::int64_t>& runs) {
    for (int it = 0; it < kIters; ++it) {
      pool.ParallelRun(kN, [&](std::size_t i) {
        sum += static_cast<std::int64_t>(i);
      });
      pool.ParallelRun(7, [&](std::size_t i) {
        runs += static_cast<std::int64_t>(i);
      });
    }
  };
  std::atomic<std::int64_t> sum_a{0}, runs_a{0}, sum_b{0}, runs_b{0};
  std::thread ta([&] { hammer(sum_a, runs_a); });
  std::thread tb([&] { hammer(sum_b, runs_b); });
  ta.join();
  tb.join();
  const std::int64_t want_sum =
      kIters * static_cast<std::int64_t>(kN * (kN - 1) / 2);
  const std::int64_t want_runs = kIters * (7 * 6 / 2);
  EXPECT_EQ(sum_a.load(), want_sum);
  EXPECT_EQ(sum_b.load(), want_sum);
  EXPECT_EQ(runs_a.load(), want_runs);
  EXPECT_EQ(runs_b.load(), want_runs);
}

class ThreadPoolSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ThreadPoolSweep, SumMatchesSerial) {
  const std::int64_t n = GetParam();
  ThreadPool pool(8);
  std::atomic<std::int64_t> sum{0};
  pool.ParallelRun(static_cast<std::size_t>(n), [&](std::size_t i) {
    sum += static_cast<std::int64_t>(i);
  });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ThreadPoolSweep,
                         ::testing::Values(1, 2, 7, 8, 9, 63, 64, 65, 1000,
                                           4096, 100001));

// ---------------- Table ----------------

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.AddRow();
  t.Cell("a");
  t.Cell(static_cast<std::int64_t>(42));
  t.AddRow();
  t.Cell("longer");
  t.Cell(3.14159, 2);
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("-+-"), std::string::npos);
}

TEST(TableTest, NumRows) {
  Table t({"x"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.Row({"1"});
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(3ull << 20), "3.00 MiB");
}

TEST(FormatTest, Seconds) {
  EXPECT_EQ(FormatSeconds(0.5e-9 * 2), "1.0 ns");
  EXPECT_EQ(FormatSeconds(2.5e-3), "2.50 ms");
  EXPECT_EQ(FormatSeconds(3.0), "3.00 s");
}

// ---------------- RunningStats ----------------

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

// ---------------- Percentile ----------------

TEST(PercentileTest, InterpolatesLinearly) {
  std::vector<double> samples = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(samples, 1.0), 4.0);
  // rank = 0.99 * 3 = 2.97 -> between 3.0 and 4.0.
  EXPECT_NEAR(Percentile(samples, 0.99), 3.97, 1e-12);
}

TEST(PercentileTest, EdgeCases) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.99), 7.0);
  // Out-of-range p clamps instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0}, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0}, -1.0), 1.0);
}

// ---------------- CommandLine ----------------

TEST(CommandLineTest, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog", "--alpha=3", "--name", "x", "pos1", "--flag"};
  auto cl = CommandLine::Parse(6, argv, {"alpha", "name", "flag"});
  ASSERT_TRUE(cl.ok());
  EXPECT_EQ(*cl->GetInt("alpha", 0), 3);
  EXPECT_EQ(cl->GetString("name", ""), "x");
  EXPECT_TRUE(cl->GetBool("flag", false));
  ASSERT_EQ(cl->positional().size(), 1u);
  EXPECT_EQ(cl->positional()[0], "pos1");
}

TEST(CommandLineTest, UnknownFlagIsError) {
  const char* argv[] = {"prog", "--oops=1"};
  auto cl = CommandLine::Parse(2, argv, {"alpha"});
  EXPECT_FALSE(cl.ok());
  EXPECT_EQ(cl.status().code(), StatusCode::kInvalidArgument);
}

TEST(CommandLineTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  auto cl = CommandLine::Parse(1, argv, {"a"});
  ASSERT_TRUE(cl.ok());
  EXPECT_EQ(*cl->GetInt("a", 7), 7);
  EXPECT_EQ(*cl->GetDouble("a", 2.5), 2.5);
  EXPECT_FALSE(cl->HasFlag("a"));
}

TEST(CommandLineTest, ValueOutsideChoicesIsError) {
  const char* argv[] = {"prog", "--policy", "spf", "--mode=nope"};
  EXPECT_TRUE(CommandLine::Parse(3, argv, {"policy"}, {{"policy", {"spf"}}})
                  .ok());
  auto cl = CommandLine::Parse(4, argv, {"policy", "mode"},
                               {{"mode", {"a", "b"}}});
  EXPECT_EQ(cl.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cl.status().message(), "unknown --mode 'nope' (want a|b)");
}

TEST(CommandLineTest, NumericValuesParseWhollyOrFailTyped) {
  // One row per value: its int and double readings, or nullopt where the
  // getter must fail with InvalidArgument naming the flag.
  struct Case {
    const char* value;
    std::optional<std::int64_t> as_int;
    std::optional<double> as_double;
  };
  const Case cases[] = {
      {"12", 12, 12.0},
      {"-3", -3, -3.0},
      {"+7", 7, 7.0},
      {"0", 0, 0.0},
      {"1.5", std::nullopt, 1.5},
      {"2e3", std::nullopt, 2000.0},
      {"abc", std::nullopt, std::nullopt},
      {"", std::nullopt, std::nullopt},
      {" 4", std::nullopt, std::nullopt},
      {"4 ", std::nullopt, std::nullopt},
      {"12abc", std::nullopt, std::nullopt},
      {"true", std::nullopt, std::nullopt},
      {"0x10", std::nullopt, 16.0},
      {"99999999999999999999", std::nullopt, 99999999999999999999.0},
      {"-99999999999999999999", std::nullopt, -99999999999999999999.0},
      {"1e999", std::nullopt, std::nullopt},
      {"inf", std::nullopt, std::nullopt},
      {"-infinity", std::nullopt, std::nullopt},
      {"nan", std::nullopt, std::nullopt},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("value '") + c.value + "'");
    const std::string flag = std::string("--n=") + c.value;
    const char* argv[] = {"prog", flag.c_str()};
    auto cl = CommandLine::Parse(2, argv, {"n"});
    ASSERT_TRUE(cl.ok()) << cl.status().ToString();
    const StatusOr<std::int64_t> i = cl->GetInt("n", -1);
    const StatusOr<double> d = cl->GetDouble("n", -1.0);
    ASSERT_EQ(i.ok(), c.as_int.has_value()) << i.status().ToString();
    ASSERT_EQ(d.ok(), c.as_double.has_value()) << d.status().ToString();
    if (c.as_int) {
      EXPECT_EQ(*i, *c.as_int);
    }
    if (c.as_double) {
      EXPECT_EQ(*d, *c.as_double);
    }
    for (const Status& st : {i.status(), d.status()}) {
      if (st.ok()) continue;
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(st.message().rfind("--n: '", 0), 0u) << st.message();
    }
  }
}

}  // namespace
}  // namespace speedllm
