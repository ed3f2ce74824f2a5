// Unit tests for src/llama/kernels: the float ground-truth kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "llama/kernels.hpp"

namespace speedllm::llama {
namespace {

std::vector<float> RandomVec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

// ---------------- MatMul ----------------

TEST(MatMulTest, KnownSmallCase) {
  // W = [[1,2],[3,4],[5,6]], x = [10, 100] -> [210, 430, 650]
  std::vector<float> w = {1, 2, 3, 4, 5, 6};
  std::vector<float> x = {10, 100};
  std::vector<float> out(3);
  MatMul(out, w, x, 3, 2);
  EXPECT_FLOAT_EQ(out[0], 210.0f);
  EXPECT_FLOAT_EQ(out[1], 430.0f);
  EXPECT_FLOAT_EQ(out[2], 650.0f);
}

TEST(MatMulTest, IdentityMatrix) {
  const std::int64_t n = 16;
  std::vector<float> w(n * n, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) w[i * n + i] = 1.0f;
  auto x = RandomVec(n, 5);
  std::vector<float> out(n);
  MatMul(out, w, x, n, n);
  for (std::int64_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(out[i], x[i]);
}

class MatMulSweep
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {
};

TEST_P(MatMulSweep, ThreadedMatchesSerial) {
  auto [d, n] = GetParam();
  auto w = RandomVec(static_cast<std::size_t>(d * n), 11);
  auto x = RandomVec(static_cast<std::size_t>(n), 12);
  std::vector<float> serial(d), threaded(d);
  MatMul(serial, w, x, d, n, nullptr);
  ThreadPool pool(4);
  MatMul(threaded, w, x, d, n, &pool);
  for (std::int64_t i = 0; i < d; ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulSweep,
    ::testing::Values(std::make_pair<std::int64_t, std::int64_t>(1, 1),
                      std::make_pair<std::int64_t, std::int64_t>(3, 7),
                      std::make_pair<std::int64_t, std::int64_t>(64, 64),
                      std::make_pair<std::int64_t, std::int64_t>(288, 288),
                      std::make_pair<std::int64_t, std::int64_t>(768, 288),
                      std::make_pair<std::int64_t, std::int64_t>(288, 768)));

// Every row of MatMul is one sequential sum over ascending j, whatever
// the row blocking, the thread split or the alignment of the spans.
std::vector<float> SequentialRows(const float* w, const float* x,
                                  std::int64_t d, std::int64_t n) {
  std::vector<float> out(static_cast<std::size_t>(d));
  for (std::int64_t i = 0; i < d; ++i) {
    float acc = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) acc += w[i * n + j] * x[j];
    out[static_cast<std::size_t>(i)] = acc;
  }
  return out;
}

// SequentialRows for each of `rows` activation rows, concatenated.
std::vector<float> SequentialRowsPerRow(const std::vector<float>& w,
                                        const std::vector<float>& x,
                                        std::int64_t rows, std::int64_t d,
                                        std::int64_t n) {
  std::vector<float> want;
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto row = SequentialRows(w.data(), x.data() + r * n, d, n);
    want.insert(want.end(), row.begin(), row.end());
  }
  return want;
}

TEST(MatMulTest, EveryRowIsBitIdenticalToASequentialLoop) {
  ThreadPool pool(4);
  for (std::int64_t d : {1, 3, 7, 8, 9, 17, 512}) {
    for (std::int64_t n : {1, 2, 3, 4, 5, 48, 288}) {
      SCOPED_TRACE(::testing::Message() << "d " << d << " n " << n);
      // One spare float in front of each buffer: offset 1 makes every
      // span start off the 16-byte alignment.
      auto w_buf = RandomVec(static_cast<std::size_t>(d * n + 1),
                             static_cast<std::uint64_t>(d * 1000 + n));
      auto x_buf = RandomVec(static_cast<std::size_t>(n + 1),
                             static_cast<std::uint64_t>(d * 1000 + n + 7));
      for (std::size_t offset : {0u, 1u}) {
        std::span<const float> w{w_buf.data() + offset,
                                 static_cast<std::size_t>(d * n)};
        std::span<const float> x{x_buf.data() + offset,
                                 static_cast<std::size_t>(n)};
        const auto want = SequentialRows(w.data(), x.data(), d, n);
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          std::vector<float> out_buf(static_cast<std::size_t>(d + 1), -1.0f);
          std::span<float> out{out_buf.data() + offset,
                               static_cast<std::size_t>(d)};
          MatMul(out, w, x, d, n, p);
          EXPECT_EQ(std::memcmp(out.data(), want.data(),
                                want.size() * sizeof(float)),
                    0)
              << "offset " << offset << " threaded " << (p != nullptr);
          // Nothing outside the d outputs is written.
          EXPECT_EQ(out_buf[offset == 0 ? out_buf.size() - 1 : 0], -1.0f);
        }
      }
    }
  }
  // MatMulRows streams each weight block once for every activation row:
  // each row's outputs are still the sequential loop against that row.
  for (std::int64_t d : {1, 3, 7, 8, 9, 17, 512}) {
    for (std::int64_t n : {1, 3, 45, 288}) {
      for (std::int64_t rows : {1, 2, 3, 5, 8, 13}) {
        SCOPED_TRACE(::testing::Message()
                     << "d " << d << " n " << n << " rows " << rows);
        const auto seed = static_cast<std::uint64_t>(d * 1000 + n);
        const auto w = RandomVec(static_cast<std::size_t>(d * n), seed);
        const auto x =
            RandomVec(static_cast<std::size_t>(rows * n), seed + rows);
        const auto want = SequentialRowsPerRow(w, x, rows, d, n);
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          // One guard float on each side of the rows x d outputs.
          std::vector<float> out_buf(static_cast<std::size_t>(rows * d + 2),
                                     -1.0f);
          std::span<float> out{out_buf.data() + 1,
                               static_cast<std::size_t>(rows * d)};
          MatMulRows(out, w, x, rows, d, n, p);
          EXPECT_EQ(std::memcmp(out.data(), want.data(),
                                want.size() * sizeof(float)),
                    0)
              << "threaded " << (p != nullptr);
          EXPECT_EQ(out_buf.front(), -1.0f);
          EXPECT_EQ(out_buf.back(), -1.0f);
        }
      }
    }
  }
}

// The pooled split hands each task a run of consecutive 8-row blocks (at
// most 64 KiB of weights, at least two tasks per thread) and prefetches
// the next block inside the run. d = 8 * 7 * 9 + 5 spans several
// multi-block runs at both n (7 blocks each at n = 288, 2 at n = 768), a
// ragged last run and a row tail; for d = 83 (11 blocks) the
// two-tasks-per-thread floor cuts the runs to 1-5 blocks.
TEST(MatMulTest, PooledRunsOfBlocksAreBitIdenticalToASequentialLoop) {
  for (std::int64_t d : {8 * 7 * 9 + 5, 8 * 2 * 5 + 3}) {
    for (std::int64_t n : {288, 768}) {
      for (std::int64_t rows : {1, 5, 13}) {
        const auto seed = static_cast<std::uint64_t>(d * 1000 + n);
        const auto w = RandomVec(static_cast<std::size_t>(d * n), seed);
        const auto x =
            RandomVec(static_cast<std::size_t>(rows * n), seed + rows);
        const auto want = SequentialRowsPerRow(w, x, rows, d, n);
        for (unsigned threads = 1; threads <= 4; ++threads) {
          SCOPED_TRACE(::testing::Message() << "d " << d << " n " << n
                                            << " rows " << rows << " threads "
                                            << threads);
          ThreadPool pool(threads);
          // One guard float on each side of the rows x d outputs.
          std::vector<float> out_buf(static_cast<std::size_t>(rows * d + 2),
                                     -1.0f);
          std::span<float> out{out_buf.data() + 1,
                               static_cast<std::size_t>(rows * d)};
          MatMulRows(out, w, x, rows, d, n, &pool);
          EXPECT_EQ(std::memcmp(out.data(), want.data(),
                                want.size() * sizeof(float)),
                    0);
          EXPECT_EQ(out_buf.front(), -1.0f);
          EXPECT_EQ(out_buf.back(), -1.0f);
        }
      }
    }
  }
}

// An empty output (d == 0 or rows == 0) writes nothing and n == 0 writes
// zeros, pooled or serial.
TEST(MatMulTest, EmptyShapesAreNoOps) {
  ThreadPool pool(4);
  struct Shape {
    std::int64_t rows, d, n;
  };
  for (const Shape s : {Shape{1, 0, 288}, Shape{5, 0, 288}, Shape{1, 512, 0},
                        Shape{5, 512, 0}, Shape{0, 512, 288}}) {
    const auto w = RandomVec(static_cast<std::size_t>(s.d * s.n), 3);
    const auto x = RandomVec(static_cast<std::size_t>(s.rows * s.n), 4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(::testing::Message()
                   << "rows " << s.rows << " d " << s.d << " n " << s.n
                   << " threaded " << (p != nullptr));
      std::vector<float> out_buf(static_cast<std::size_t>(s.rows * s.d + 2),
                                 -1.0f);
      std::span<float> out{out_buf.data() + 1,
                           static_cast<std::size_t>(s.rows * s.d)};
      MatMulRows(out, w, x, s.rows, s.d, s.n, p);
      for (float v : out) EXPECT_EQ(v, 0.0f);
      EXPECT_EQ(out_buf.front(), -1.0f);
      EXPECT_EQ(out_buf.back(), -1.0f);
    }
  }
}

// The packed copy of W: its whole 8-row blocks, column-interleaved.
std::vector<float> Packed(const std::vector<float>& w, std::int64_t d,
                          std::int64_t n) {
  std::vector<float> pk(static_cast<std::size_t>(PackedMatMulFloats(d, n)));
  PackMatMulWeights(pk, w, d, n);
  return pk;
}

TEST(MatMulTest, PackedRowsAreBitIdenticalToASequentialLoop) {
  // d covers one to three remainder blocks after the four-block groups
  // (24, 40, 48, 96) and row tails (1, 3, 7, 9, 17).
  for (std::int64_t d : {1, 3, 7, 8, 9, 17, 24, 40, 48, 96, 512}) {
    for (std::int64_t n : {1, 3, 45, 48, 128, 288}) {
      const auto seed = static_cast<std::uint64_t>(d * 1000 + n);
      const auto w = RandomVec(static_cast<std::size_t>(d * n), seed);
      const auto pk = Packed(w, d, n);
      ASSERT_EQ(pk.size(), static_cast<std::size_t>(d / 8 * 8 * n));
      for (std::int64_t i = 0; i < d / 8 * 8; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          ASSERT_EQ(pk[static_cast<std::size_t>(i / 8 * 8 * n + 8 * j + i % 8)],
                    w[static_cast<std::size_t>(i * n + j)]);
        }
      }
      for (std::int64_t rows : {1, 2, 3, 5, 8, 13}) {
        SCOPED_TRACE(::testing::Message()
                     << "d " << d << " n " << n << " rows " << rows);
        const auto x =
            RandomVec(static_cast<std::size_t>(rows * n), seed + rows);
        const auto want = SequentialRowsPerRow(w, x, rows, d, n);
        // One guard float on each side of the rows x d outputs.
        std::vector<float> out_buf(static_cast<std::size_t>(rows * d + 2),
                                   -1.0f);
        std::span<float> out{out_buf.data() + 1,
                             static_cast<std::size_t>(rows * d)};
        MatMulRowsPacked(out, pk, w, x, rows, d, n);
        EXPECT_EQ(std::memcmp(out.data(), want.data(),
                              want.size() * sizeof(float)),
                  0);
        EXPECT_EQ(out_buf.front(), -1.0f);
        EXPECT_EQ(out_buf.back(), -1.0f);
      }
    }
  }
}

TEST(MatMulTest, BitsArePinnedAcrossIsas) {
  // Inputs from correctly rounded divisions, outputs recorded from a
  // baseline x86-64 build: any ISA must reproduce them bit for bit. A
  // compiler fusing the multiply-adds into FMAs (-march=x86-64-v3
  // without -ffp-contract=off) rounds differently and fails here.
  constexpr std::int64_t d = 9, n = 45;  // one 8-row block, both tails
  std::vector<float> w(static_cast<std::size_t>(d * n));
  std::vector<float> x(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < d; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      w[static_cast<std::size_t>(i * n + j)] =
          static_cast<float>((i * 31 + j * 17) % 23 - 11) / 7.0f;
    }
  }
  for (std::int64_t j = 0; j < n; ++j) {
    x[static_cast<std::size_t>(j)] = 1.0f / static_cast<float>(j + 3);
  }
  const auto pk = Packed(w, d, n);
  std::vector<float> out(static_cast<std::size_t>(d));
  const std::uint32_t want[d] = {0xbe12724au, 0xbeb754e7u, 0x3e2dbc25u,
                                 0xbe9abc20u, 0xbe69701bu, 0x3eea7791u,
                                 0xbe8e4204u, 0xbd48854bu, 0x3e5def46u};
  for (bool packed : {false, true}) {
    std::fill(out.begin(), out.end(), -1.0f);
    if (packed) {
      MatMulRowsPacked(out, pk, w, x, 1, d, n);
    } else {
      MatMul(out, w, x, d, n);
    }
    for (std::int64_t i = 0; i < d; ++i) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &out[static_cast<std::size_t>(i)], sizeof(bits));
      EXPECT_EQ(bits, want[i]) << "packed " << packed << " row " << i;
    }
  }
  // Five activation rows through MatMulRows (a four-row group and a
  // one-row tail): row r divides by j + 3 + 2r, so row 0 is x above and
  // reproduces its pins.
  constexpr std::int64_t rows = 5;
  std::vector<float> xs(static_cast<std::size_t>(rows * n));
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      xs[static_cast<std::size_t>(r * n + j)] =
          1.0f / static_cast<float>(j + 3 + 2 * r);
    }
  }
  std::vector<float> outs(static_cast<std::size_t>(rows * d));
  const std::uint32_t want_rows[rows][d] = {
      {0xbe12724au, 0xbeb754e7u, 0x3e2dbc25u, 0xbe9abc20u, 0xbe69701bu,
       0x3eea7791u, 0xbe8e4204u, 0xbd48854bu, 0x3e5def46u},
      {0xbd1406b7u, 0xbe6a426eu, 0x3daf79aeu, 0xbe258246u, 0xbe18c2cau,
       0x3e9ccd87u, 0xbe274cefu, 0xbcefdbceu, 0x3e06fb4au},
      {0xbb79903eu, 0xbe2b2bb9u, 0x3d4b9332u, 0xbdd42dfeu, 0xbde603ccu,
       0x3e6d830du, 0xbde89897u, 0xbcc12c67u, 0x3dcb78c4u},
      {0x3c0fe1b2u, 0xbe05d60cu, 0x3cf631ebu, 0xbd9481c8u, 0xbdb9061fu,
       0x3e3f4468u, 0xbdae833du, 0xbcac7263u, 0x3da790f4u},
      {0x3c68c308u, 0xbdda32abu, 0x3c932055u, 0xbd5b23b4u, 0xbd9ab98fu,
       0x3e1ff29cu, 0xbd88ecf3u, 0xbc9fdf54u, 0x3d9066a3u}};
  for (bool packed : {false, true}) {
    std::fill(outs.begin(), outs.end(), -1.0f);
    if (packed) {
      MatMulRowsPacked(outs, pk, w, xs, rows, d, n);
    } else {
      MatMulRows(outs, w, xs, rows, d, n);
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t i = 0; i < d; ++i) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &outs[static_cast<std::size_t>(r * d + i)],
                    sizeof(bits));
        EXPECT_EQ(bits, want_rows[r][i])
            << "packed " << packed << " row " << r << " output " << i;
      }
    }
  }
}

// ---------------- RmsNorm ----------------

TEST(RmsNormTest, UnitGainNormalizes) {
  std::vector<float> x = {3.0f, 4.0f};  // rms = sqrt(12.5)
  std::vector<float> gain = {1.0f, 1.0f};
  std::vector<float> out(2);
  RmsNorm(out, x, gain);
  float rms = std::sqrt(12.5f + 1e-5f);
  EXPECT_NEAR(out[0], 3.0f / rms, 1e-5f);
  EXPECT_NEAR(out[1], 4.0f / rms, 1e-5f);
}

TEST(RmsNormTest, GainScalesElementwise) {
  auto x = RandomVec(64, 3);
  std::vector<float> g1(64, 1.0f), g2(64, 2.0f);
  std::vector<float> o1(64), o2(64);
  RmsNorm(o1, x, g1);
  RmsNorm(o2, x, g2);
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(o2[i], 2.0f * o1[i], 1e-5f);
}

TEST(RmsNormTest, ApproxScaleInvariance) {
  auto x = RandomVec(128, 9);
  std::vector<float> xs(128);
  for (int i = 0; i < 128; ++i) xs[i] = 100.0f * x[i];
  std::vector<float> gain(128, 1.0f), a(128), b(128);
  RmsNorm(a, x, gain);
  RmsNorm(b, xs, gain);
  for (int i = 0; i < 128; ++i) EXPECT_NEAR(a[i], b[i], 1e-3f);
}

TEST(RmsNormTest, ZeroInputIsFinite) {
  std::vector<float> x(16, 0.0f), gain(16, 1.0f), out(16);
  RmsNorm(out, x, gain);
  for (float v : out) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0f);
  }
}

// ---------------- Softmax ----------------

TEST(SoftmaxTest, SumsToOne) {
  auto x = RandomVec(100, 17);
  Softmax(x);
  float sum = 0.0f;
  for (float v : x) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(SoftmaxTest, StableForLargeInputs) {
  std::vector<float> x = {1000.0f, 1001.0f, 999.0f};
  Softmax(x);
  for (float v : x) EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(x[1], x[0]);
  EXPECT_GT(x[0], x[2]);
}

TEST(SoftmaxTest, PreservesOrdering) {
  std::vector<float> x = {0.5f, -1.0f, 2.0f, 0.0f};
  Softmax(x);
  EXPECT_GT(x[2], x[0]);
  EXPECT_GT(x[0], x[3]);
  EXPECT_GT(x[3], x[1]);
}

TEST(SoftmaxTest, UniformInputsUniformOutput) {
  std::vector<float> x(8, 3.0f);
  Softmax(x);
  for (float v : x) EXPECT_NEAR(v, 0.125f, 1e-6f);
}

TEST(SoftmaxTest, SingletonAndEmpty) {
  std::vector<float> one = {42.0f};
  Softmax(one);
  EXPECT_FLOAT_EQ(one[0], 1.0f);
  std::vector<float> none;
  Softmax(none);  // must not crash
}

// ---------------- Silu / elementwise ----------------

TEST(SiluTest, KnownValues) {
  std::vector<float> x = {0.0f, 10.0f, -10.0f};
  Silu(x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_NEAR(x[1], 10.0f, 1e-3f);   // sigmoid(10) ~ 1
  EXPECT_NEAR(x[2], 0.0f, 1e-3f);    // sigmoid(-10) ~ 0
}

TEST(SiluTest, MatchesFormula) {
  auto x = RandomVec(64, 23);
  auto y = x;
  Silu(y);
  for (int i = 0; i < 64; ++i) {
    float expected = x[i] / (1.0f + std::exp(-x[i]));
    EXPECT_NEAR(y[i], expected, 1e-6f);
  }
}

TEST(ElementwiseTest, AddAndMul) {
  std::vector<float> a = {1, 2, 3}, b = {10, 20, 30};
  AddInPlace(a, b);
  EXPECT_EQ(a, (std::vector<float>{11, 22, 33}));
  std::vector<float> c = {2, 3, 4};
  MulInPlace(a, c);
  EXPECT_EQ(a, (std::vector<float>{22, 66, 132}));
}

// ---------------- Rope ----------------

TEST(RopeTest, PositionZeroIsIdentity) {
  auto q = RandomVec(32, 31);
  auto k = RandomVec(16, 32);
  auto q0 = q, k0 = k;
  Rope(q, k, /*pos=*/0, /*head_dim=*/8);
  for (std::size_t i = 0; i < q.size(); ++i) EXPECT_FLOAT_EQ(q[i], q0[i]);
  for (std::size_t i = 0; i < k.size(); ++i) EXPECT_FLOAT_EQ(k[i], k0[i]);
}

TEST(RopeTest, PreservesPairNorms) {
  auto q = RandomVec(32, 33);
  auto k = RandomVec(32, 34);
  auto q0 = q;
  Rope(q, k, /*pos=*/7, /*head_dim=*/8);
  for (std::size_t i = 0; i + 1 < q.size(); i += 2) {
    float n0 = q0[i] * q0[i] + q0[i + 1] * q0[i + 1];
    float n1 = q[i] * q[i] + q[i + 1] * q[i + 1];
    EXPECT_NEAR(n0, n1, 1e-4f);
  }
}

TEST(RopeTest, RelativeRotationProperty) {
  // Rotating by pos a then measuring dot products against pos b depends
  // only on (a - b): check dot(q(a), k(a)) == dot(q(0), k(0)) per pair.
  std::vector<float> q = {1.0f, 0.0f}, k = {0.5f, 0.5f};
  auto q1 = q, k1 = k;
  Rope(q1, k1, /*pos=*/5, /*head_dim=*/2);
  float dot0 = q[0] * k[0] + q[1] * k[1];
  float dot1 = q1[0] * k1[0] + q1[1] * k1[1];
  EXPECT_NEAR(dot0, dot1, 1e-5f);
}

// llama2.c's rotation, computing every pair's frequency and angle afresh:
// Rope must match it bit for bit.
void RopePerElement(std::span<float> q, std::span<float> k, std::int32_t pos,
                    std::int32_t head_dim) {
  auto rotate = [&](std::span<float> v) {
    for (std::size_t i = 0; i + 1 < v.size(); i += 2) {
      std::int32_t head_idx = static_cast<std::int32_t>(i) % head_dim;
      float freq = 1.0f / std::pow(10000.0f, static_cast<float>(head_idx) /
                                                 static_cast<float>(head_dim));
      float val = static_cast<float>(pos) * freq;
      float fcr = std::cos(val);
      float fci = std::sin(val);
      float v0 = v[i], v1 = v[i + 1];
      v[i] = v0 * fcr - v1 * fci;
      v[i + 1] = v0 * fci + v1 * fcr;
    }
  };
  rotate(q);
  rotate(k);
}

TEST(RopeTest, MatchesThePerElementLoop) {
  // stories15M's head_dim 48 with kv_dim = dim (6 kv heads) and a GQA
  // kv_dim of 2 heads, and a small head with an odd-length tail.
  struct Shape {
    std::int32_t head_dim, dim, kv_dim;
  };
  for (const Shape s : {Shape{48, 288, 288}, Shape{48, 288, 96},
                        Shape{8, 35, 16}}) {
    for (std::int32_t pos : {0, 1, 2, 7, 100, 255, 1023}) {
      SCOPED_TRACE(::testing::Message() << "head_dim " << s.head_dim
                                        << " kv_dim " << s.kv_dim << " pos "
                                        << pos);
      auto q = RandomVec(static_cast<std::size_t>(s.dim), 51 + pos);
      auto k = RandomVec(static_cast<std::size_t>(s.kv_dim), 52 + pos);
      auto q_want = q, k_want = k;
      RopePerElement(q_want, k_want, pos, s.head_dim);
      Rope(q, k, pos, s.head_dim);
      EXPECT_EQ(std::memcmp(q.data(), q_want.data(), q.size() * sizeof(float)),
                0);
      EXPECT_EQ(std::memcmp(k.data(), k_want.data(), k.size() * sizeof(float)),
                0);
    }
  }
}

// ---------------- AttentionHead ----------------

TEST(AttentionHeadTest, SingleTimestepReturnsV) {
  const std::int32_t hd = 4;
  auto q = RandomVec(hd, 41);
  std::vector<float> k_cache = {1, 2, 3, 4};
  std::vector<float> v_cache = {5, 6, 7, 8};
  std::vector<float> out(hd), scratch(8);
  AttentionHead(out, q, k_cache.data(), v_cache.data(), /*pos=*/0, hd,
                /*stride=*/hd, scratch);
  // Softmax over one score is 1 -> out == v[0].
  for (int i = 0; i < hd; ++i) EXPECT_FLOAT_EQ(out[i], v_cache[i]);
}

TEST(AttentionHeadTest, IdenticalKeysGiveUniformMix) {
  const std::int32_t hd = 2, pos = 3;
  std::vector<float> q = {1.0f, 1.0f};
  std::vector<float> k_cache(static_cast<std::size_t>(hd) * (pos + 1), 0.5f);
  std::vector<float> v_cache;
  for (int t = 0; t <= pos; ++t) {
    v_cache.push_back(static_cast<float>(t));
    v_cache.push_back(0.0f);
  }
  std::vector<float> out(hd), scratch(16);
  AttentionHead(out, q, k_cache.data(), v_cache.data(), pos, hd, hd, scratch);
  EXPECT_NEAR(out[0], (0 + 1 + 2 + 3) / 4.0f, 1e-5f);
  EXPECT_NEAR(out[1], 0.0f, 1e-6f);
}

TEST(AttentionHeadTest, AttendsToMatchingKey) {
  const std::int32_t hd = 4, pos = 2;
  // Keys: e0, e1, e2-ish; query strongly aligned with key 1.
  std::vector<float> k_cache = {
      10, 0, 0, 0,   //
      0, 10, 0, 0,   //
      0, 0, 10, 0,   //
  };
  std::vector<float> v_cache = {
      1, 0, 0, 0,  //
      0, 1, 0, 0,  //
      0, 0, 1, 0,  //
  };
  std::vector<float> q = {0, 10, 0, 0};
  std::vector<float> out(hd), scratch(8);
  AttentionHead(out, q, k_cache.data(), v_cache.data(), pos, hd, hd, scratch);
  EXPECT_GT(out[1], 0.99f);  // nearly all mass on timestep 1
  EXPECT_LT(out[0], 0.01f);
}

}  // namespace
}  // namespace speedllm::llama
