#include "llama/config.hpp"

#include <sstream>

namespace speedllm::llama {

std::int64_t ModelConfig::num_params() const {
  std::int64_t d = dim, h = hidden_dim, l = n_layers, v = vocab_size;
  std::int64_t kv = kv_dim();
  std::int64_t per_layer = d * d        // wq
                           + d * kv     // wk
                           + d * kv     // wv
                           + d * d      // wo
                           + 3 * d * h  // w1, w2, w3
                           + 2 * d;     // rms_att, rms_ffn
  std::int64_t total = v * d            // token embedding
                       + l * per_layer  //
                       + d;             // final rmsnorm
  if (!shared_classifier) total += v * d;
  return total;
}

Status ModelConfig::Validate() const {
  if (dim <= 0 || hidden_dim <= 0 || n_layers <= 0 || n_heads <= 0 ||
      n_kv_heads <= 0 || vocab_size <= 0 || seq_len <= 0) {
    return InvalidArgument("all model dimensions must be positive");
  }
  if (dim % n_heads != 0) {
    return InvalidArgument("dim (" + std::to_string(dim) +
                           ") not divisible by n_heads (" +
                           std::to_string(n_heads) + ")");
  }
  if (n_heads % n_kv_heads != 0) {
    return InvalidArgument("n_heads (" + std::to_string(n_heads) +
                           ") not divisible by n_kv_heads (" +
                           std::to_string(n_kv_heads) + ")");
  }
  if (head_dim() % 2 != 0) {
    return InvalidArgument("head_dim must be even for RoPE");
  }
  return Status::Ok();
}

std::string ModelConfig::ToString() const {
  std::ostringstream out;
  out << "ModelConfig{dim=" << dim << ", hidden=" << hidden_dim
      << ", layers=" << n_layers << ", heads=" << n_heads
      << ", kv_heads=" << n_kv_heads << ", vocab=" << vocab_size
      << ", seq_len=" << seq_len
      << ", shared_cls=" << (shared_classifier ? "yes" : "no")
      << ", params=" << num_params() << "}";
  return out.str();
}

ModelConfig ModelConfig::Stories15M() {
  ModelConfig c;
  c.dim = 288;
  c.hidden_dim = 768;
  c.n_layers = 6;
  c.n_heads = 6;
  c.n_kv_heads = 6;
  c.vocab_size = 32000;
  c.seq_len = 256;
  c.shared_classifier = true;
  return c;
}

ModelConfig ModelConfig::Stories110M() {
  ModelConfig c;
  c.dim = 768;
  c.hidden_dim = 2048;
  c.n_layers = 12;
  c.n_heads = 12;
  c.n_kv_heads = 12;
  c.vocab_size = 32000;
  c.seq_len = 1024;
  c.shared_classifier = true;
  return c;
}

ModelConfig ModelConfig::Tiny() {
  ModelConfig c;
  c.dim = 48;
  c.hidden_dim = 128;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  c.vocab_size = 512;
  c.seq_len = 64;
  c.shared_classifier = true;
  return c;
}

StatusOr<ModelConfig> ModelConfig::FromName(std::string_view name) {
  if (name == "tiny") return Tiny();
  if (name == "stories15m") return Stories15M();
  if (name == "stories110m") return Stories110M();
  return InvalidArgument("unknown --preset '" + std::string(name) +
                         "' (valid: tiny, stories15m, stories110m)");
}

}  // namespace speedllm::llama
