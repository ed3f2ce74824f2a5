// SpeedLLM -- deterministic random number generation.
//
// All stochastic components of the library (synthetic weight generation,
// workload generators, samplers) draw from SplitMix64 streams seeded
// explicitly, so every experiment is bit-reproducible across runs and
// machines. Wall-clock time is never used as a seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

namespace speedllm {

/// SplitMix64: tiny, fast, passes BigCrush when used as a stream. Good
/// enough for synthetic data; NOT for cryptography.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  std::uint64_t NextU64() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Skips n draws: leaves the stream where n NextU64() calls would, like
  /// std::mt19937::discard. The state is a counter that every draw steps
  /// by kGamma (mod 2^64), so this is O(1).
  void Discard(std::uint64_t n) { state_ += n * kGamma; }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t NextBounded(std::uint64_t bound) {
    // A plain modulo; its bias (at most bound / 2^64) is negligible for
    // simulation workloads.
    return NextU64() % bound;
  }

  /// Uniform float in [0, 1).
  float NextFloat() {
    return static_cast<float>(NextU64() >> 40) * 0x1.0p-24f;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Standard normal via Box-Muller (one value per call; the pair's twin
  /// is discarded to keep the generator stateless beyond `state_`). Takes
  /// exactly two draws and never rejects one, so the i-th value of a stream
  /// is a function of the stream's state after Discard(2 * i).
  float NextGaussian() {
    float u1 = NextFloat();
    float u2 = NextFloat();
    if (u1 < 1e-12f) u1 = 1e-12f;
    return std::sqrt(-2.0f * std::log(u1)) *
           std::cos(2.0f * std::numbers::pi_v<float> * u2);
  }

  /// Derive an independent child stream; used to give each tensor /
  /// layer its own stream so insertion order does not matter.
  Rng Fork(std::uint64_t salt) {
    std::uint64_t s = state_ ^ (salt * 0xD6E8FEB86659FD93ull + 0x2545F4914F6CDD1Dull);
    // Mix once so forks with adjacent salts start far apart.
    Rng child(s);
    child.NextU64();
    return child;
  }

 private:
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;

  std::uint64_t state_;
};

}  // namespace speedllm
