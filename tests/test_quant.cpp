// Unit tests for int8 group quantization.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "llama/kernels.hpp"
#include "quant/quant.hpp"

namespace speedllm::quant {
namespace {

std::vector<float> RandomVec(std::size_t n, std::uint64_t seed,
                             float scale = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = scale * rng.NextGaussian();
  return v;
}

TEST(QuantTest, RoundTripWithinHalfStep) {
  auto x = RandomVec(256, 3);
  auto qt = Quantize(x, Shape{256}, 64);
  ASSERT_TRUE(qt.ok());
  std::vector<float> back(256);
  Dequantize(*qt, back);
  // Error bounded by half a quantization step of the group's scale.
  for (std::size_t g = 0; g < qt->scales.size(); ++g) {
    float bound = qt->scales[g] * 0.5f + 1e-7f;
    for (int i = 0; i < 64; ++i) {
      std::size_t idx = g * 64 + i;
      EXPECT_LE(std::fabs(back[idx] - x[idx]), bound) << idx;
    }
  }
}

TEST(QuantTest, ExtremesHitFullRange) {
  std::vector<float> x(64, 0.0f);
  x[0] = 10.0f;
  x[1] = -10.0f;
  auto qt = Quantize(x, Shape{64}, 64);
  ASSERT_TRUE(qt.ok());
  EXPECT_EQ(qt->q[0], 127);
  EXPECT_EQ(qt->q[1], -127);
  EXPECT_NEAR(qt->scales[0], 10.0f / 127.0f, 1e-7f);
}

TEST(QuantTest, AllZerosQuantizesToZeros) {
  std::vector<float> x(128, 0.0f);
  auto qt = Quantize(x, Shape{128}, 32);
  ASSERT_TRUE(qt.ok());
  for (auto q : qt->q) EXPECT_EQ(q, 0);
  std::vector<float> back(128, 1.0f);
  Dequantize(*qt, back);
  for (float v : back) EXPECT_EQ(v, 0.0f);
}

TEST(QuantTest, InvalidArgs) {
  std::vector<float> x(100);
  EXPECT_FALSE(Quantize(x, Shape{100}, 64).ok());  // 64 does not divide 100
  EXPECT_FALSE(Quantize(x, Shape{100}, 0).ok());
  EXPECT_FALSE(Quantize(x, Shape{50}, 10).ok());  // shape mismatch
}

TEST(QuantTest, PayloadBytesCorrect) {
  auto x = RandomVec(256, 9);
  auto qt = Quantize(x, Shape{256}, 64);
  ASSERT_TRUE(qt.ok());
  EXPECT_EQ(qt->payload_bytes(), 256u + 4u * 4u);  // int8s + 4 scales
}

TEST(QuantTest, MaxQuantErrorReported) {
  auto x = RandomVec(128, 11, 5.0f);
  auto qt = Quantize(x, Shape{128}, 64);
  ASSERT_TRUE(qt.ok());
  std::vector<float> back(128);
  Dequantize(*qt, back);
  float actual = 0.0f;
  for (int i = 0; i < 128; ++i) {
    actual = std::max(actual, std::fabs(back[i] - x[i]));
  }
  EXPECT_LE(actual, MaxQuantError(*qt) + 1e-6f);
}

class QuantGroupSweep : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(QuantGroupSweep, MatMulQ8CloseToFloat) {
  const std::int32_t gs = GetParam();
  const std::int64_t d = 48, n = 192;  // n divisible by all tested groups
  auto w = RandomVec(static_cast<std::size_t>(d * n), 21, 0.05f);
  auto x = RandomVec(static_cast<std::size_t>(n), 22);
  auto qw = Quantize(w, Shape{d, n}, gs);
  ASSERT_TRUE(qw.ok());

  std::vector<float> exact(d), approx(d);
  llama::MatMul(exact, w, x, d, n);
  MatMulQ8(approx, *qw, x, d, n);
  // Relative error of int8 weights on gaussian data: ~1e-2 worst case.
  for (std::int64_t i = 0; i < d; ++i) {
    EXPECT_NEAR(approx[i], exact[i],
                0.02f * std::max(1.0f, std::fabs(exact[i])))
        << "row " << i << " gs " << gs;
  }
}

INSTANTIATE_TEST_SUITE_P(Groups, QuantGroupSweep,
                         ::testing::Values(16, 32, 48, 64, 96));

TEST(QuantTest, TensorOverload) {
  TensorF t(Shape{8, 16});
  Rng rng(55);
  for (float& v : t.span()) v = rng.NextGaussian();
  auto qt = Quantize(t, 16);
  ASSERT_TRUE(qt.ok());
  EXPECT_EQ(qt->shape, t.shape());
  EXPECT_EQ(qt->q.size(), t.size());
}

}  // namespace
}  // namespace speedllm::quant
