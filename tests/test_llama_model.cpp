// Unit tests for src/llama: config, weights, checkpoint IO, reference model.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "common/tensor.hpp"
#include "llama/checkpoint.hpp"
#include "llama/config.hpp"
#include "llama/reference.hpp"
#include "llama/weights.hpp"

namespace speedllm::llama {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------- ModelConfig ----------------

TEST(ConfigTest, Stories15MShapes) {
  auto c = ModelConfig::Stories15M();
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.dim, 288);
  EXPECT_EQ(c.n_layers, 6);
  EXPECT_EQ(c.head_dim(), 48);
  EXPECT_EQ(c.kv_dim(), 288);
  EXPECT_EQ(c.gqa_group(), 1);
  // The checkpoint is called "stories15M": ~15.2M params.
  EXPECT_NEAR(static_cast<double>(c.num_params()) / 1e6, 15.2, 0.1);
}

TEST(ConfigTest, Stories110MParamCount) {
  auto c = ModelConfig::Stories110M();
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_NEAR(static_cast<double>(c.num_params()) / 1e6, 110.0, 10.0);
}

TEST(ConfigTest, TinyUsesGroupedQueryAttention) {
  auto c = ModelConfig::Tiny();
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.gqa_group(), 2);
  EXPECT_LT(c.kv_dim(), c.dim);
}

TEST(ConfigTest, ValidationCatchesBadShapes) {
  auto c = ModelConfig::Tiny();
  c.n_heads = 5;  // dim 48 not divisible by 5
  EXPECT_FALSE(c.Validate().ok());
  c = ModelConfig::Tiny();
  c.n_kv_heads = 3;  // heads 4 not divisible by 3
  EXPECT_FALSE(c.Validate().ok());
  c = ModelConfig::Tiny();
  c.dim = -1;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigTest, FromNameMapsPresetsAndRejectsUnknownNames) {
  auto tiny = ModelConfig::FromName("tiny");
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->ToString(), ModelConfig::Tiny().ToString());
  auto s15 = ModelConfig::FromName("stories15m");
  ASSERT_TRUE(s15.ok());
  EXPECT_EQ(s15->ToString(), ModelConfig::Stories15M().ToString());
  auto s110 = ModelConfig::FromName("stories110m");
  ASSERT_TRUE(s110.ok());
  EXPECT_EQ(s110->ToString(), ModelConfig::Stories110M().ToString());
  for (const char* bad : {"nope", "", "Tiny", "stories15M"}) {
    auto c = ModelConfig::FromName(bad);
    ASSERT_FALSE(c.ok()) << bad;
    EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ConfigTest, UnsharedClassifierAddsParams) {
  auto shared = ModelConfig::Tiny();
  auto unshared = shared;
  unshared.shared_classifier = false;
  EXPECT_EQ(unshared.num_params() - shared.num_params(),
            static_cast<std::int64_t>(shared.vocab_size) * shared.dim);
}

// ---------------- Weights ----------------

TEST(WeightsTest, AllocateShapes) {
  auto c = ModelConfig::Tiny();
  Weights w = Weights::Allocate(c);
  EXPECT_EQ(w.token_embedding.shape(), (Shape{c.vocab_size, c.dim}));
  ASSERT_EQ(w.wq.size(), static_cast<std::size_t>(c.n_layers));
  EXPECT_EQ(w.wk[0].shape(), (Shape{c.kv_dim(), c.dim}));
  EXPECT_EQ(w.w1[0].shape(), (Shape{c.hidden_dim, c.dim}));
  EXPECT_EQ(w.w2[0].shape(), (Shape{c.dim, c.hidden_dim}));
  EXPECT_EQ(w.classifier().data(), w.token_embedding.data());
}

TEST(WeightsTest, SyntheticIsDeterministic) {
  auto c = ModelConfig::Tiny();
  Weights a = GenerateSyntheticWeights(c, 99);
  Weights b = GenerateSyntheticWeights(c, 99);
  EXPECT_EQ(MaxAbsDiff(a.wq[0].span(), b.wq[0].span()), 0.0f);
  EXPECT_EQ(MaxAbsDiff(a.token_embedding.span(), b.token_embedding.span()),
            0.0f);
  Weights d = GenerateSyntheticWeights(c, 100);
  EXPECT_GT(MaxAbsDiff(a.wq[0].span(), d.wq[0].span()), 0.0f);
}

TEST(WeightsTest, SyntheticStatisticsLookTrained) {
  auto c = ModelConfig::Tiny();
  Weights w = GenerateSyntheticWeights(c, 5);
  // Projection weights ~ N(0, 0.02); rmsnorm gains near 1.
  double sum = 0, sq = 0;
  for (float v : w.wq[0].span()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  double n = static_cast<double>(w.wq[0].size());
  EXPECT_NEAR(sum / n, 0.0, 0.005);
  EXPECT_NEAR(std::sqrt(sq / n), 0.02, 0.005);
  for (float v : w.rms_att[0].span()) EXPECT_NEAR(v, 1.0f, 0.5f);
}

// FNV-1a over the bytes of every tensor: the globals, then each layer's
// tensors in declaration order. A shared classifier's wcls is empty and
// adds nothing.
std::uint64_t WeightsDigest(const Weights& w) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  auto add = [&h](const TensorF& t) {
    const auto* p = reinterpret_cast<const unsigned char*>(t.data());
    for (std::size_t i = 0; i < t.size_bytes(); ++i) {
      h = (h ^ p[i]) * 0x100000001B3ull;
    }
  };
  add(w.token_embedding);
  add(w.rms_final);
  add(w.wcls);
  for (std::size_t l = 0; l < w.wq.size(); ++l) {
    for (const auto* layer : {&w.rms_att, &w.wq, &w.wk, &w.wv, &w.wo,
                              &w.rms_ffn, &w.w1, &w.w2, &w.w3}) {
      add((*layer)[l]);
    }
  }
  return h;
}

TEST(WeightsTest, SyntheticMatchesPinnedDigests) {
  // Digests of the one-thread sequential draw. Tiny fills every tensor
  // inline; stories15M fills every matrix in pooled chunks, so any change
  // of a stream, its order within a tensor or an element's expression
  // fails here.
  ModelConfig unshared = ModelConfig::Tiny();
  unshared.shared_classifier = false;
  EXPECT_EQ(WeightsDigest(GenerateSyntheticWeights(ModelConfig::Tiny(), 99)),
            0x4f2d77c0953d6150ull);
  EXPECT_EQ(WeightsDigest(GenerateSyntheticWeights(unshared, 99)),
            0xea7e9983e409193cull);
  EXPECT_EQ(
      WeightsDigest(GenerateSyntheticWeights(ModelConfig::Stories15M(), 1)),
      0x7f9f7f35029248dcull);
}

// ---------------- Checkpoint ----------------

TEST(CheckpointTest, RoundTripPreservesEverything) {
  auto c = ModelConfig::Tiny();
  Weights w = GenerateSyntheticWeights(c, 1234);
  std::string path = TempPath("speedllm_ckpt_test.bin");
  ASSERT_TRUE(WriteCheckpoint(path, w).ok());

  auto r = ReadCheckpoint(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Weights& w2 = *r;
  EXPECT_EQ(w2.config.dim, c.dim);
  EXPECT_EQ(w2.config.vocab_size, c.vocab_size);
  EXPECT_EQ(w2.config.shared_classifier, c.shared_classifier);
  EXPECT_EQ(MaxAbsDiff(w.token_embedding.span(), w2.token_embedding.span()),
            0.0f);
  for (int l = 0; l < c.n_layers; ++l) {
    EXPECT_EQ(MaxAbsDiff(w.wq[l].span(), w2.wq[l].span()), 0.0f);
    EXPECT_EQ(MaxAbsDiff(w.w3[l].span(), w2.w3[l].span()), 0.0f);
    EXPECT_EQ(MaxAbsDiff(w.rms_ffn[l].span(), w2.rms_ffn[l].span()), 0.0f);
  }
  EXPECT_EQ(MaxAbsDiff(w.rms_final.span(), w2.rms_final.span()), 0.0f);
  std::remove(path.c_str());
}

TEST(CheckpointTest, UnsharedClassifierRoundTrip) {
  auto c = ModelConfig::Tiny();
  c.shared_classifier = false;
  Weights w = GenerateSyntheticWeights(c, 77);
  std::string path = TempPath("speedllm_ckpt_uns.bin");
  ASSERT_TRUE(WriteCheckpoint(path, w).ok());
  auto r = ReadCheckpoint(path);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->config.shared_classifier);
  EXPECT_EQ(MaxAbsDiff(w.wcls.span(), r->wcls.span()), 0.0f);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  auto r = ReadCheckpoint("/nonexistent/path/model.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, TruncatedFileIsDataLoss) {
  std::string path = TempPath("speedllm_ckpt_trunc.bin");
  {
    auto c = ModelConfig::Tiny();
    Weights w = GenerateSyntheticWeights(c, 3);
    ASSERT_TRUE(WriteCheckpoint(path, w).ok());
  }
  // Truncate to half.
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  auto r = ReadCheckpoint(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(CheckpointTest, GarbageHeaderIsInvalidArgument) {
  std::string path = TempPath("speedllm_ckpt_garbage.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::int32_t header[7] = {-5, 0, 0, 0, 0, 0, 0};
    std::fwrite(header, sizeof(header), 1, f);
    std::fclose(f);
  }
  auto r = ReadCheckpoint(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------------- ReferenceModel ----------------

TEST(ReferenceModelTest, LogitsShapeAndDeterminism) {
  auto c = ModelConfig::Tiny();
  Weights w = GenerateSyntheticWeights(c, 42);
  ReferenceModel m(w, nullptr);
  auto l1 = m.Forward(3, 0);
  ASSERT_TRUE(l1.ok());
  EXPECT_EQ(l1->size(), static_cast<std::size_t>(c.vocab_size));
  std::vector<float> first(l1->begin(), l1->end());

  m.Reset();
  auto l2 = m.Forward(3, 0);
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(MaxAbsDiff(first, *l2), 0.0f);
}

TEST(ReferenceModelTest, OutputsAreFinite) {
  auto c = ModelConfig::Tiny();
  Weights w = GenerateSyntheticWeights(c, 7);
  ReferenceModel m(w, nullptr);
  for (int pos = 0; pos < 8; ++pos) {
    auto l = m.Forward(pos + 1, pos);
    ASSERT_TRUE(l.ok());
    for (float v : *l) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ReferenceModelTest, ContextChangesLogits) {
  auto c = ModelConfig::Tiny();
  Weights w = GenerateSyntheticWeights(c, 21);
  ReferenceModel m(w, nullptr);
  // Same token at pos 1 after different histories must differ.
  ASSERT_TRUE(m.Forward(5, 0).ok());
  auto a = m.Forward(9, 1);
  ASSERT_TRUE(a.ok());
  std::vector<float> logits_a(a->begin(), a->end());
  m.Reset();
  ASSERT_TRUE(m.Forward(6, 0).ok());
  auto b = m.Forward(9, 1);
  ASSERT_TRUE(b.ok());
  EXPECT_GT(MaxAbsDiff(logits_a, *b), 0.0f);
}

TEST(ReferenceModelTest, ThreadedMatchesSerial) {
  auto c = ModelConfig::Tiny();
  Weights w = GenerateSyntheticWeights(c, 63);
  ReferenceModel serial(w, nullptr);
  ThreadPool pool(4);
  ReferenceModel threaded(w, &pool);
  for (int pos = 0; pos < 4; ++pos) {
    auto a = serial.Forward(10 + pos, pos);
    auto b = threaded.Forward(10 + pos, pos);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(MaxAbsDiff(*a, *b), 0.0f) << "pos " << pos;
  }
}

TEST(ReferenceModelTest, RejectsBadInputs) {
  auto c = ModelConfig::Tiny();
  Weights w = GenerateSyntheticWeights(c, 1);
  ReferenceModel m(w, nullptr);
  EXPECT_FALSE(m.Forward(-1, 0).ok());
  EXPECT_FALSE(m.Forward(c.vocab_size, 0).ok());
  EXPECT_FALSE(m.Forward(0, c.seq_len).ok());
  EXPECT_FALSE(m.Forward(0, -1).ok());
}

TEST(KvCacheTest, BytesAndReset) {
  auto c = ModelConfig::Tiny();
  KvCache cache(c);
  EXPECT_EQ(cache.bytes(),
            static_cast<std::uint64_t>(2) * c.n_layers * c.seq_len *
                c.kv_dim() * sizeof(float));
  cache.k(0, 3)[0] = 5.0f;
  cache.Reset();
  EXPECT_EQ(cache.k(0, 3)[0], 0.0f);
}

}  // namespace
}  // namespace speedllm::llama
