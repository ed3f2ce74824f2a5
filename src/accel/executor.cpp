#include "accel/executor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "llama/kernels.hpp"

namespace speedllm::accel {

namespace {

/// Largest group size <= 64 that divides k (so every weight row holds
/// whole quantization groups).
std::int32_t PickGroupSize(std::int64_t k) {
  for (std::int32_t g = static_cast<std::int32_t>(std::min<std::int64_t>(64, k));
       g > 1; --g) {
    if (k % g == 0) return g;
  }
  return 1;
}

}  // namespace

TokenRunStats& TokenRunStats::operator+=(const TokenRunStats& o) {
  cycles += o.cycles;
  seconds += o.seconds;
  joules += o.joules;
  energy += o.energy;
  hbm_bytes += o.hbm_bytes;
  launches += o.launches;
  for (std::size_t i = 0; i < unit_busy.size(); ++i) {
    unit_busy[i] += o.unit_busy[i];
  }
  return *this;
}

Executor::Executor(const Program& program, const llama::Weights& weights,
                   const hw::U280Config& u280)
    : program_(&program), weights_(&weights), u280_(u280) {
  assert(weights.config.num_params() == program.model.num_params());
  const auto& dg = program.dg;

  weight_map_[dg.token_embedding] = weights.token_embedding.span();
  weight_map_[dg.rms_final] = weights.rms_final.span();
  if (!program.model.shared_classifier) {
    weight_map_[dg.wcls] = weights.wcls.span();
  }
  for (std::size_t l = 0; l < dg.layers.size(); ++l) {
    const auto& ids = dg.layers[l];
    weight_map_[ids.rms_att] = weights.rms_att[l].span();
    weight_map_[ids.wq] = weights.wq[l].span();
    weight_map_[ids.wk] = weights.wk[l].span();
    weight_map_[ids.wv] = weights.wv[l].span();
    weight_map_[ids.wo] = weights.wo[l].span();
    weight_map_[ids.rms_ffn] = weights.rms_ffn[l].span();
    weight_map_[ids.w1] = weights.w1[l].span();
    weight_map_[ids.w2] = weights.w2[l].span();
    weight_map_[ids.w3] = weights.w3[l].span();
  }

  for (const auto& op : dg.graph.ops()) {
    if (std::find(op.outputs.begin(), op.outputs.end(), dg.logits) !=
        op.outputs.end()) {
      logits_op_ = op.id;
    }
  }

  // Pre-quantize matmul weights for the int8 datapath.
  if (program.exec.int8_weights) {
    for (const auto& op : dg.graph.ops()) {
      if (op.kind != graph::OpKind::kMatMul) continue;
      graph::ValueId w_id = op.inputs[0];
      if (quant_map_.count(w_id)) continue;
      auto span = weight_map_.at(w_id);
      auto qt = quant::Quantize(span, Shape{op.m, op.k}, PickGroupSize(op.k));
      assert(qt.ok());
      quant_map_.emplace(w_id, std::move(qt).value());
    }
  }

  // Allocate activation / output storage; K/V caches are paged.
  store_.resize(dg.graph.values().size());
  kv_plane_.assign(dg.graph.values().size(), -1);
  for (const auto& v : dg.graph.values()) {
    if (v.kind == graph::ValueKind::kWeight ||
        v.kind == graph::ValueKind::kKvCache) {
      continue;
    }
    store_[v.id] = TensorF::Zeros(Shape{v.elements});
  }
  for (std::size_t l = 0; l < dg.layers.size(); ++l) {
    kv_plane_[dg.layers[l].k_cache] = static_cast<std::int32_t>(l * 2);
    kv_plane_[dg.layers[l].v_cache] = static_cast<std::int32_t>(l * 2 + 1);
  }
}

void Executor::ResetSequence() {
  std::fill(own_kv_.begin(), own_kv_.end(), 0.0f);
}

KvBlockLayout Executor::KvLayout(std::int64_t block_tokens) const {
  const auto& cfg = program_->model;
  return KvBlockLayout{cfg.n_layers, cfg.kv_dim(), block_tokens};
}

void Executor::ResetStats() {
  total_stats_ = TokenRunStats{};
  last_stats_ = TokenRunStats{};
}

TensorF& Executor::Buffer(graph::ValueId v) {
  assert(v >= 0 && static_cast<std::size_t>(v) < store_.size());
  assert(store_[v].size() > 0 && "buffer accessed for a weight value");
  return store_[v];
}

std::span<const float> Executor::WeightSpan(graph::ValueId v) const {
  auto it = weight_map_.find(v);
  assert(it != weight_map_.end());
  return it->second;
}

std::uint64_t Executor::SeqScale(std::uint64_t amount, bool scaled,
                                 std::int32_t pos) const {
  if (!scaled) return amount;
  const std::uint64_t seq =
      static_cast<std::uint64_t>(program_->model.seq_len);
  const std::uint64_t steps = static_cast<std::uint64_t>(pos) + 1;
  return (amount * steps + seq - 1) / seq;
}

void Executor::ExecuteCompute(const Instr& instr, std::int32_t token,
                              std::int32_t pos, const KvPages& kv) {
  const auto& g = program_->dg.graph;
  const auto& op = g.op(instr.op);
  const auto& cfg = program_->model;

  switch (instr.compute) {
    case ComputeKind::kEmbedCopy: {
      auto emb = WeightSpan(op.inputs[0]);
      auto& out = Buffer(op.outputs[0]);
      std::memcpy(out.data(),
                  emb.data() + static_cast<std::int64_t>(token) * cfg.dim,
                  static_cast<std::size_t>(cfg.dim) * sizeof(float));
      break;
    }
    case ComputeKind::kMatMulTile: {
      auto& out = Buffer(op.outputs[0]);
      auto& x = Buffer(op.inputs[1]);
      const std::int64_t r0 = instr.row_begin;
      const std::int64_t r1 = instr.row_end;
      auto qit = quant_map_.find(op.inputs[0]);
      if (qit != quant_map_.end()) {
        // int8 rows: each row is group-aligned, so a row range is a
        // contiguous sub-problem.
        quant::MatMulQ8Rows(out.span(), qit->second, x.span(), op.k, r0, r1);
      } else {
        auto w = WeightSpan(op.inputs[0]);
        llama::MatMul(out.span().subspan(static_cast<std::size_t>(r0),
                                         static_cast<std::size_t>(r1 - r0)),
                      w.subspan(static_cast<std::size_t>(r0 * op.k),
                                static_cast<std::size_t>((r1 - r0) * op.k)),
                      x.span(), r1 - r0, op.k, nullptr);
      }
      break;
    }
    case ComputeKind::kRmsNorm: {
      auto& out = Buffer(op.outputs[0]);
      auto& in = Buffer(op.inputs[0]);
      llama::RmsNorm(out.span(), in.span(), WeightSpan(op.inputs[1]));
      break;
    }
    case ComputeKind::kRope: {
      auto& q_in = Buffer(op.inputs[0]);
      auto& k_in = Buffer(op.inputs[1]);
      auto& q_out = Buffer(op.outputs[0]);
      auto& k_out = Buffer(op.outputs[1]);
      std::memcpy(q_out.data(), q_in.data(), q_in.size_bytes());
      std::memcpy(k_out.data(), k_in.data(), k_in.size_bytes());
      llama::Rope(q_out.span(), k_out.span(), pos, op.head_dim);
      break;
    }
    case ComputeKind::kKvWrite: {
      const KvBlockLayout& l = kv.layout;
      const std::size_t bytes =
          static_cast<std::size_t>(l.kv_dim) * sizeof(float);
      float* blk = kv.block(static_cast<std::size_t>(pos / l.block_tokens));
      const std::int64_t row = pos % l.block_tokens;
      for (std::size_t i = 0; i < 2; ++i) {
        const std::int32_t plane = kv_plane_[op.outputs[i]];
        std::memcpy(blk + l.Offset(plane / 2, plane % 2, row),
                    Buffer(op.inputs[i]).data(), bytes);
      }
      break;
    }
    case ComputeKind::kAttScores: {
      auto& q = Buffer(op.inputs[0]);
      auto& scores = Buffer(op.outputs[0]);
      const KvBlockLayout& l = kv.layout;
      const std::int32_t plane = kv_plane_[op.inputs[1]];
      const std::int64_t plane_offset = l.Offset(plane / 2, plane % 2, 0);
      const std::int32_t hd = op.head_dim;
      const std::int32_t gqa = cfg.gqa_group();
      const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
      for (std::int32_t h = 0; h < op.n_heads; ++h) {
        const float* qh = q.data() + h * hd;
        float* srow = scores.data() + static_cast<std::int64_t>(h) * cfg.seq_len;
        // Positions 0..pos in order, one block's rows at a time.
        for (std::int64_t t0 = 0, b = 0; t0 <= pos; t0 += l.block_tokens, ++b) {
          const float* k_base = kv.block(static_cast<std::size_t>(b)) +
                                plane_offset + (h / gqa) * hd;
          const std::int64_t rows = std::min<std::int64_t>(
              l.block_tokens, static_cast<std::int64_t>(pos) + 1 - t0);
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* krow = k_base + r * l.kv_dim;
            float acc = 0.0f;
            for (std::int32_t i = 0; i < hd; ++i) acc += qh[i] * krow[i];
            srow[t0 + r] = acc * scale;
          }
        }
      }
      break;
    }
    case ComputeKind::kSoftmax: {
      auto& in = Buffer(op.inputs[0]);
      auto& out = Buffer(op.outputs[0]);
      std::memset(out.data(), 0, out.size_bytes());
      for (std::int32_t h = 0; h < op.n_heads; ++h) {
        const std::int64_t base = static_cast<std::int64_t>(h) * cfg.seq_len;
        std::memcpy(out.data() + base, in.data() + base,
                    static_cast<std::size_t>(pos + 1) * sizeof(float));
        llama::Softmax({out.data() + base, static_cast<std::size_t>(pos + 1)});
      }
      break;
    }
    case ComputeKind::kAttMix: {
      auto& probs = Buffer(op.inputs[0]);
      auto& out = Buffer(op.outputs[0]);
      const KvBlockLayout& l = kv.layout;
      const std::int32_t plane = kv_plane_[op.inputs[1]];
      const std::int64_t plane_offset = l.Offset(plane / 2, plane % 2, 0);
      const std::int32_t hd = op.head_dim;
      const std::int32_t gqa = cfg.gqa_group();
      for (std::int32_t h = 0; h < op.n_heads; ++h) {
        const float* prow = probs.data() + static_cast<std::int64_t>(h) * cfg.seq_len;
        float* orow = out.data() + h * hd;
        for (std::int32_t i = 0; i < hd; ++i) orow[i] = 0.0f;
        // Positions 0..pos in order, one block's rows at a time.
        for (std::int64_t t0 = 0, b = 0; t0 <= pos; t0 += l.block_tokens, ++b) {
          const float* v_base = kv.block(static_cast<std::size_t>(b)) +
                                plane_offset + (h / gqa) * hd;
          const std::int64_t rows = std::min<std::int64_t>(
              l.block_tokens, static_cast<std::int64_t>(pos) + 1 - t0);
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* vrow = v_base + r * l.kv_dim;
            float s = prow[t0 + r];
            for (std::int32_t i = 0; i < hd; ++i) orow[i] += s * vrow[i];
          }
        }
      }
      break;
    }
    case ComputeKind::kSilu: {
      auto& out = Buffer(op.outputs[0]);
      auto& in = Buffer(op.inputs[0]);
      std::memcpy(out.data(), in.data(), in.size_bytes());
      llama::Silu(out.span());
      break;
    }
    case ComputeKind::kEltAdd: {
      auto& out = Buffer(op.outputs[0]);
      auto& a = Buffer(op.inputs[0]);
      auto& b = Buffer(op.inputs[1]);
      std::memcpy(out.data(), a.data(), a.size_bytes());
      llama::AddInPlace(out.span(), b.span());
      break;
    }
    case ComputeKind::kEltMul: {
      auto& out = Buffer(op.outputs[0]);
      auto& a = Buffer(op.inputs[0]);
      auto& b = Buffer(op.inputs[1]);
      std::memcpy(out.data(), a.data(), a.size_bytes());
      llama::MulInPlace(out.span(), b.span());
      break;
    }
    case ComputeKind::kNone:
      break;
  }
}

StatusOr<std::span<const float>> Executor::Forward(std::int32_t token,
                                                   std::int32_t pos,
                                                   bool want_logits) {
  const KvBlockLayout layout = KvLayout(program_->model.seq_len);
  if (own_kv_.empty()) {
    own_kv_.assign(static_cast<std::size_t>(layout.block_floats()), 0.0f);
  }
  return Forward(token, pos, KvPages{own_kv_.data(), layout, own_table_},
                 want_logits);
}

StatusOr<std::span<const float>> Executor::Forward(std::int32_t token,
                                                   std::int32_t pos,
                                                   const KvPages& kv,
                                                   bool want_logits) {
  const auto& cfg = program_->model;
  if (token < 0 || token >= cfg.vocab_size) {
    return InvalidArgument("token out of range");
  }
  if (pos < 0 || pos >= cfg.seq_len) {
    return OutOfRange("pos " + std::to_string(pos) + " >= seq_len " +
                      std::to_string(cfg.seq_len));
  }
  const KvBlockLayout want = KvLayout(kv.layout.block_tokens);
  if (kv.arena == nullptr || kv.layout.block_tokens <= 0 ||
      kv.layout.n_layers != want.n_layers || kv.layout.kv_dim != want.kv_dim) {
    return InvalidArgument("KV pages do not match the model's K/V geometry");
  }
  if (pos >= kv.capacity_tokens()) {
    return OutOfRange("pos " + std::to_string(pos) +
                      " is past the block table's " +
                      std::to_string(kv.capacity_tokens()) + " tokens");
  }
  const ExecConfig& ex = program_->exec;

  // Fresh timing state per token.
  sim::Station dma_in("dma_in"), dma_out("dma_out"), mpe("mpe"), sfu("sfu"),
      ctrl("ctrl");
  auto station_for = [&](Unit u) -> sim::Station& {
    switch (u) {
      case Unit::kDmaIn: return dma_in;
      case Unit::kDmaOut: return dma_out;
      case Unit::kMpe: return mpe;
      case Unit::kSfu: return sfu;
      case Unit::kCtrl: return ctrl;
      default: return ctrl;
    }
  };
  hw::HbmStack hbm(u280_.hbm);
  hw::EnergyMeter meter(u280_.power, u280_.clock_mhz);
  trace_.Clear();

  std::vector<sim::Cycles> end_at(program_->instrs.size(), 0);
  std::uint64_t launches = 0;
  sim::Cycles makespan = 0;

  for (const Instr& instr : program_->instrs) {
    sim::Cycles ready = 0;
    for (InstrId d : instr.deps) ready = std::max(ready, end_at[d]);

    sim::Cycles start = 0, end = 0;
    switch (instr.opcode) {
      case Opcode::kLaunch: {
        start = ctrl.Acquire(ready, ex.kernel_launch_cycles);
        end = start + ex.kernel_launch_cycles;
        ++launches;
        break;
      }
      case Opcode::kDmaLoad:
      case Opcode::kDmaStore: {
        const std::uint64_t bytes =
            SeqScale(instr.bytes, instr.seq_scaled, pos);
        sim::Station& eng = station_for(instr.unit);
        sim::Cycles est = eng.EarliestStart(ready);
        hw::TransferTiming tt =
            hbm.Transfer(est + ex.dma_setup_cycles, bytes, instr.channel_first,
                         instr.channel_count,
                         instr.opcode == Opcode::kDmaLoad);
        start = est;
        end = tt.end;
        eng.Acquire(est, end - est);
        meter.AddHbmBytes(bytes);
        break;
      }
      case Opcode::kCompute: {
        sim::Cycles dur;
        if (instr.unit == Unit::kMpe) {
          const std::uint64_t work = SeqScale(
              static_cast<std::uint64_t>(instr.macs), instr.seq_scaled, pos);
          dur = ex.mpe_fill_cycles +
                (work + ex.mpe_macs_per_cycle - 1) /
                    static_cast<std::uint64_t>(ex.mpe_macs_per_cycle);
          meter.AddMacs(work, ex.int8_weights &&
                                  instr.compute == ComputeKind::kMatMulTile);
        } else {
          const std::uint64_t work = SeqScale(
              static_cast<std::uint64_t>(instr.sfu_ops), instr.seq_scaled, pos);
          dur = ex.sfu_fill_cycles +
                (work + ex.sfu_lanes - 1) /
                    static_cast<std::uint64_t>(ex.sfu_lanes);
          meter.AddSfuOps(work);
        }
        meter.AddBramBytes(SeqScale(instr.onchip_bytes, instr.seq_scaled, pos));
        sim::Station& st = station_for(instr.unit);
        start = st.Acquire(ready, dur);
        end = start + dur;
        if (want_logits || instr.op != logits_op_) {
          ExecuteCompute(instr, token, pos, kv);
        }
        break;
      }
    }
    end_at[instr.id] = end;
    makespan = std::max(makespan, end);
    if (trace_.enabled()) {
      sim::TraceSpan span;
      span.instr_id = instr.id;
      span.station = std::string(UnitName(instr.unit));
      span.start = start;
      span.end = end;
      span.bytes = instr.opcode == Opcode::kDmaLoad ||
                           instr.opcode == Opcode::kDmaStore
                       ? SeqScale(instr.bytes, instr.seq_scaled, pos)
                       : 0;
      span.ops = static_cast<std::uint64_t>(instr.macs + instr.sfu_ops);
      span.label = instr.label;
      trace_.Record(std::move(span));
    }
  }

  // Energy finalization.
  const auto& pw = u280_.power;
  meter.AddKernelLaunches(launches);
  meter.FinalizeUnit(mpe.busy_cycles(), makespan, pw.mpe_active_w,
                     pw.mpe_idle_w);
  meter.FinalizeUnit(sfu.busy_cycles(), makespan, pw.sfu_active_w,
                     pw.sfu_idle_w);
  meter.FinalizeUnit(dma_in.busy_cycles(), makespan, pw.dma_active_w,
                     pw.dma_idle_w);
  meter.FinalizeUnit(dma_out.busy_cycles(), makespan, pw.dma_active_w,
                     pw.dma_idle_w);
  const sim::Cycles hbm_busy =
      hbm.TotalChannelBusyCycles() /
      static_cast<sim::Cycles>(std::max(1, hbm.num_channels()));
  meter.FinalizeUnit(std::min(hbm_busy, makespan), makespan,
                     pw.hbm_ctrl_active_w, pw.hbm_ctrl_idle_w);
  meter.FinalizeStatic(makespan);

  last_stats_ = TokenRunStats{};
  last_stats_.cycles = makespan;
  last_stats_.seconds = u280_.cycles_to_seconds(makespan);
  last_stats_.energy = meter.breakdown();
  last_stats_.joules = meter.total_joules();
  last_stats_.hbm_bytes = hbm.total_bytes();
  last_stats_.launches = launches;
  last_stats_.unit_busy[static_cast<std::size_t>(Unit::kDmaIn)] =
      dma_in.busy_cycles();
  last_stats_.unit_busy[static_cast<std::size_t>(Unit::kDmaOut)] =
      dma_out.busy_cycles();
  last_stats_.unit_busy[static_cast<std::size_t>(Unit::kMpe)] =
      mpe.busy_cycles();
  last_stats_.unit_busy[static_cast<std::size_t>(Unit::kSfu)] =
      sfu.busy_cycles();
  last_stats_.unit_busy[static_cast<std::size_t>(Unit::kCtrl)] =
      ctrl.busy_cycles();
  total_stats_ += last_stats_;

  if (!want_logits) return std::span<const float>{};
  const auto& logits = Buffer(program_->dg.logits);
  return std::span<const float>{logits.data(), logits.size()};
}

}  // namespace speedllm::accel
