#include "accel/executor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/threadpool.hpp"
#include "llama/kernels.hpp"

namespace speedllm::accel {

namespace {

// A forward runs its rows in passes of at most this many: the activation
// buffers grow to one pass (about 0.2 MiB a row for stories15M), and past
// a few rows the weights are no longer what a pass waits on.
constexpr std::size_t kPassRows = 16;

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
    : program_(&program), u280_(u280) {
  auto image = WeightImage::Build(program, weights);
  if (image.ok()) {
    own_image_ = std::make_unique<const WeightImage>(std::move(image).value());
    image_ = own_image_.get();
  } else {
    setup_ = image.status();
  }
  Init();
}

Executor::Executor(const Program& program, const WeightImage& image,
                   const hw::U280Config& u280)
    : program_(&program), u280_(u280), image_(&image) {
  Init();
}

void Executor::Init() {
  const auto& dg = program_->dg;
  const auto& g = dg.graph;

  for (const auto& op : g.ops()) {
    if (std::find(op.outputs.begin(), op.outputs.end(), dg.logits) !=
        op.outputs.end()) {
      logits_op_ = op.id;
    }
  }

  // One row of activation / output storage; K/V caches are paged. The
  // rows themselves live in workspaces, allocated by their first forward.
  row_floats_.assign(g.values().size(), 0);
  kv_plane_.assign(g.values().size(), -1);
  for (const auto& v : g.values()) {
    if (v.kind != graph::ValueKind::kWeight &&
        v.kind != graph::ValueKind::kKvCache) {
      row_floats_[v.id] = v.elements;
    }
  }
  for (std::size_t l = 0; l < dg.layers.size(); ++l) {
    kv_plane_[dg.layers[l].k_cache] = static_cast<std::int32_t>(l * 2);
    kv_plane_[dg.layers[l].v_cache] = static_cast<std::int32_t>(l * 2 + 1);
  }

  // One step per compute op, in program order at its first compute
  // instruction. A matmul's step computes every output row, so its later
  // tiles matter to the timing schedule only.
  if (image_ == nullptr) return;
  std::vector<bool> seen(g.ops().size(), false);
  steps_.reserve(g.ops().size());
  for (const Instr& instr : program_->instrs) {
    if (instr.opcode != Opcode::kCompute ||
        instr.compute == ComputeKind::kNone) {
      continue;
    }
    if (seen[static_cast<std::size_t>(instr.op)]) {
      assert(instr.compute == ComputeKind::kMatMulTile);
      continue;
    }
    seen[static_cast<std::size_t>(instr.op)] = true;
    const graph::Op& op = g.op(instr.op);
    Step step;
    step.compute = instr.compute;
    step.op = &op;
    switch (instr.compute) {
      case ComputeKind::kEmbedCopy:
        step.weights = image_->tensor(op.inputs[0]);
        break;
      case ComputeKind::kRmsNorm:
        step.weights = image_->tensor(op.inputs[1]);
        break;
      case ComputeKind::kMatMulTile:
        step.matmul = &image_->matmul(op.inputs[0]);
        pooled_ = pooled_ || step.matmul->pooled;
        break;
      default:
        break;
    }
    steps_.push_back(step);
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

void Executor::ReserveRows(ExecutorWorkspace& ws, std::int64_t rows) const {
  if (rows <= ws.rows_) return;
  ws.rows_ = rows;
  ws.base_.resize(row_floats_.size());
  std::int64_t floats = 0;
  for (std::size_t v = 0; v < row_floats_.size(); ++v) {
    ws.base_[v] = floats;
    const bool one_row = static_cast<graph::ValueId>(v) == program_->dg.logits;
    floats += (one_row ? 1 : rows) * row_floats_[v];
  }
  // Free the old rows before allocating: the peak is one arena, not two.
  std::vector<float>().swap(ws.arena_);
  ws.arena_.resize(static_cast<std::size_t>(floats));
}

float* Executor::Row(ExecutorWorkspace& ws, graph::ValueId v,
                     std::int64_t r) const {
  assert(v >= 0 && static_cast<std::size_t>(v) < ws.base_.size());
  assert(row_floats_[v] > 0 && "buffer accessed for a weight value");
  assert(r < ws.rows_);
  return ws.arena_.data() + ws.base_[v] + r * row_floats_[v];
}

std::uint64_t Executor::SeqScale(std::uint64_t amount, bool scaled,
                                 std::int32_t pos) const {
  if (!scaled) return amount;
  const std::uint64_t seq =
      static_cast<std::uint64_t>(program_->model.seq_len);
  const std::uint64_t steps = static_cast<std::uint64_t>(pos) + 1;
  return (amount * steps + seq - 1) / seq;
}

void Executor::RunStep(ExecutorWorkspace& ws, const Step& step,
                       std::span<const std::int32_t> tokens, std::int32_t pos0,
                       const KvPages& kv) const {
  const auto& op = *step.op;
  const auto& cfg = program_->model;
  const auto rows = static_cast<std::int64_t>(tokens.size());
  const auto at = [this, &ws](graph::ValueId v, std::int64_t r) {
    return Row(ws, v, r);
  };
  const auto row_span = [this, &at](graph::ValueId v, std::int64_t r,
                                     std::int64_t n = 1) {
    return std::span<float>{at(v, r),
                            static_cast<std::size_t>(n * row_floats_[v])};
  };
  // Copies rows [0, rows) of `in` to `out` (the in-place SFU ops).
  const auto copy_rows = [&](graph::ValueId out, graph::ValueId in) {
    std::memcpy(at(out, 0), at(in, 0),
                static_cast<std::size_t>(rows * row_floats_[in]) *
                    sizeof(float));
  };

  switch (step.compute) {
    case ComputeKind::kEmbedCopy: {
      for (std::int64_t r = 0; r < rows; ++r) {
        std::memcpy(at(op.outputs[0], r),
                    step.weights.data() +
                        static_cast<std::int64_t>(tokens[r]) * cfg.dim,
                    static_cast<std::size_t>(cfg.dim) * sizeof(float));
      }
      break;
    }
    case ComputeKind::kMatMulTile: {
      // The classifier reads the last row only, into its one-row buffer.
      const std::int64_t first = op.id == logits_op_ ? rows - 1 : 0;
      const std::int64_t n = rows - first;
      assert(row_floats_[op.inputs[1]] == op.k);
      assert(row_floats_[op.outputs[0]] == op.m);
      const MatMulWeights& w = *step.matmul;
      const std::span<float> out{at(op.outputs[0], 0),
                                 static_cast<std::size_t>(n * op.m)};
      const std::span<const float> x{at(op.inputs[1], first),
                                     static_cast<std::size_t>(n * op.k)};
      if (w.q != nullptr) {
        for (std::int64_t r = 0; r < n; ++r) {
          quant::MatMulQ8Rows(out.subspan(static_cast<std::size_t>(r * op.m),
                                          static_cast<std::size_t>(op.m)),
                              *w.q,
                              x.subspan(static_cast<std::size_t>(r * op.k),
                                        static_cast<std::size_t>(op.k)),
                              op.k, 0, op.m);
        }
      } else if (w.pooled) {
        llama::MatMulRows(out, w.rows, x, n, op.m, op.k, &ThreadPool::Global());
      } else {
        llama::MatMulRowsPacked(out, w.packed, w.rows, x, n, op.m, op.k);
      }
      break;
    }
    case ComputeKind::kRmsNorm: {
      for (std::int64_t r = 0; r < rows; ++r) {
        llama::RmsNorm(row_span(op.outputs[0], r), row_span(op.inputs[0], r),
                       step.weights);
      }
      break;
    }
    case ComputeKind::kRope: {
      copy_rows(op.outputs[0], op.inputs[0]);
      copy_rows(op.outputs[1], op.inputs[1]);
      for (std::int64_t r = 0; r < rows; ++r) {
        llama::Rope(row_span(op.outputs[0], r), row_span(op.outputs[1], r),
                    pos0 + static_cast<std::int32_t>(r), op.head_dim);
      }
      break;
    }
    case ComputeKind::kKvWrite: {
      const KvBlockLayout& l = kv.layout;
      const std::size_t bytes =
          static_cast<std::size_t>(l.kv_dim) * sizeof(float);
      for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t pos = pos0 + r;
        float* blk = kv.block(static_cast<std::size_t>(pos / l.block_tokens));
        const std::int64_t row = pos % l.block_tokens;
        for (std::size_t i = 0; i < 2; ++i) {
          const std::int32_t plane = kv_plane_[op.outputs[i]];
          std::memcpy(blk + l.Offset(plane / 2, plane % 2, row),
                      at(op.inputs[i], r), bytes);
        }
      }
      break;
    }
    case ComputeKind::kAttScores: {
      const KvBlockLayout& l = kv.layout;
      const std::int32_t plane = kv_plane_[op.inputs[1]];
      const std::int64_t plane_offset = l.Offset(plane / 2, plane % 2, 0);
      const std::int32_t hd = op.head_dim;
      const std::int32_t gqa = cfg.gqa_group();
      const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
      for (std::int64_t row = 0; row < rows; ++row) {
        const std::int64_t pos = pos0 + row;
        const float* q = at(op.inputs[0], row);
        float* scores = at(op.outputs[0], row);
        for (std::int32_t h = 0; h < op.n_heads; ++h) {
          const float* qh = q + h * hd;
          float* srow = scores + static_cast<std::int64_t>(h) * cfg.seq_len;
          // Positions 0..pos in order, one block's rows at a time.
          for (std::int64_t t0 = 0, b = 0; t0 <= pos;
               t0 += l.block_tokens, ++b) {
            const float* k_base = kv.block(static_cast<std::size_t>(b)) +
                                  plane_offset + (h / gqa) * hd;
            const std::int64_t n =
                std::min<std::int64_t>(l.block_tokens, pos + 1 - t0);
            for (std::int64_t r = 0; r < n; ++r) {
              const float* krow = k_base + r * l.kv_dim;
              float acc = 0.0f;
              for (std::int32_t i = 0; i < hd; ++i) acc += qh[i] * krow[i];
              srow[t0 + r] = acc * scale;
            }
          }
        }
      }
      break;
    }
    case ComputeKind::kSoftmax: {
      for (std::int64_t row = 0; row < rows; ++row) {
        const std::int64_t pos = pos0 + row;
        const float* in = at(op.inputs[0], row);
        float* out = at(op.outputs[0], row);
        std::memset(out, 0,
                    static_cast<std::size_t>(row_floats_[op.outputs[0]]) *
                        sizeof(float));
        for (std::int32_t h = 0; h < op.n_heads; ++h) {
          const std::int64_t base = static_cast<std::int64_t>(h) * cfg.seq_len;
          std::memcpy(out + base, in + base,
                      static_cast<std::size_t>(pos + 1) * sizeof(float));
          llama::Softmax({out + base, static_cast<std::size_t>(pos + 1)});
        }
      }
      break;
    }
    case ComputeKind::kAttMix: {
      const KvBlockLayout& l = kv.layout;
      const std::int32_t plane = kv_plane_[op.inputs[1]];
      const std::int64_t plane_offset = l.Offset(plane / 2, plane % 2, 0);
      const std::int32_t hd = op.head_dim;
      const std::int32_t gqa = cfg.gqa_group();
      for (std::int64_t row = 0; row < rows; ++row) {
        const std::int64_t pos = pos0 + row;
        const float* probs = at(op.inputs[0], row);
        float* out = at(op.outputs[0], row);
        for (std::int32_t h = 0; h < op.n_heads; ++h) {
          const float* prow =
              probs + static_cast<std::int64_t>(h) * cfg.seq_len;
          float* orow = out + h * hd;
          for (std::int32_t i = 0; i < hd; ++i) orow[i] = 0.0f;
          // Positions 0..pos in order, one block's rows at a time.
          for (std::int64_t t0 = 0, b = 0; t0 <= pos;
               t0 += l.block_tokens, ++b) {
            const float* v_base = kv.block(static_cast<std::size_t>(b)) +
                                  plane_offset + (h / gqa) * hd;
            const std::int64_t n =
                std::min<std::int64_t>(l.block_tokens, pos + 1 - t0);
            for (std::int64_t r = 0; r < n; ++r) {
              const float* vrow = v_base + r * l.kv_dim;
              float s = prow[t0 + r];
              for (std::int32_t i = 0; i < hd; ++i) orow[i] += s * vrow[i];
            }
          }
        }
      }
      break;
    }
    case ComputeKind::kSilu: {
      copy_rows(op.outputs[0], op.inputs[0]);
      llama::Silu(row_span(op.outputs[0], 0, rows));
      break;
    }
    case ComputeKind::kEltAdd: {
      copy_rows(op.outputs[0], op.inputs[0]);
      llama::AddInPlace(row_span(op.outputs[0], 0, rows),
                        row_span(op.inputs[1], 0, rows));
      break;
    }
    case ComputeKind::kEltMul: {
      copy_rows(op.outputs[0], op.inputs[0]);
      llama::MulInPlace(row_span(op.outputs[0], 0, rows),
                        row_span(op.inputs[1], 0, rows));
      break;
    }
    case ComputeKind::kNone:
      break;
  }
}

StatusOr<std::span<const float>> Executor::Forward(
    std::span<const std::int32_t> tokens, std::int32_t pos0,
    bool want_last_logits) {
  const KvBlockLayout layout = KvLayout(program_->model.seq_len);
  if (own_kv_.empty()) {
    own_kv_.assign(static_cast<std::size_t>(layout.block_floats()), 0.0f);
    own_block_[0] = own_kv_.data();
  }
  return Forward(tokens, pos0, KvPages{layout, own_block_},
                 want_last_logits);
}

StatusOr<std::span<const float>> Executor::Forward(
    std::span<const std::int32_t> tokens, std::int32_t pos0,
    const KvPages& kv, bool want_last_logits) {
  auto logits = Compute(own_ws_, tokens, pos0, kv, want_last_logits);
  if (!logits.ok()) return logits;
  const auto last = pos0 + static_cast<std::int32_t>(tokens.size()) - 1;
  for (std::int32_t pos = pos0; pos <= last; ++pos) {
    total_stats_ += TimingAt(pos);
  }
  last_stats_ = TimingAt(last);
  trace_.Clear();
  if (trace_.enabled()) Schedule(last, &trace_);
  return logits;
}

StatusOr<std::span<const float>> Executor::Compute(
    ExecutorWorkspace& ws, std::span<const std::int32_t> tokens,
    std::int32_t pos0, const KvPages& kv, bool want_last_logits) const {
  const auto& cfg = program_->model;
  if (!setup_.ok()) return setup_;
  if (tokens.empty()) return InvalidArgument("a forward needs a token");
  for (std::int32_t token : tokens) {
    if (token < 0 || token >= cfg.vocab_size) {
      return InvalidArgument("token out of range");
    }
  }
  const std::int64_t last = static_cast<std::int64_t>(pos0) +
                            static_cast<std::int64_t>(tokens.size()) - 1;
  if (pos0 < 0 || last >= cfg.seq_len) {
    return OutOfRange("pos " + std::to_string(pos0 < 0 ? pos0 : last) +
                      " >= seq_len " + std::to_string(cfg.seq_len));
  }
  const KvBlockLayout want = KvLayout(kv.layout.block_tokens);
  if (kv.layout.block_tokens <= 0 ||
      kv.layout.n_layers != want.n_layers || kv.layout.kv_dim != want.kv_dim) {
    return InvalidArgument("KV pages do not match the model's K/V geometry");
  }
  if (last >= kv.capacity_tokens()) {
    return OutOfRange("pos " + std::to_string(last) +
                      " is past the block table's " +
                      std::to_string(kv.capacity_tokens()) + " tokens");
  }

  // Passes of at most kPassRows rows bound the activation buffers.
  for (std::size_t p = 0; p < tokens.size(); p += kPassRows) {
    const auto pass =
        tokens.subspan(p, std::min<std::size_t>(kPassRows, tokens.size() - p));
    ReserveRows(ws, static_cast<std::int64_t>(pass.size()));
    const bool logits = want_last_logits && p + pass.size() == tokens.size();
    for (const Step& step : steps_) {
      if (step.op->id == logits_op_ && !logits) continue;
      RunStep(ws, step, pass, pos0 + static_cast<std::int32_t>(p), kv);
    }
  }

  if (!want_last_logits) return std::span<const float>{};
  const float* logits = Row(ws, program_->dg.logits, 0);
  return std::span<const float>{
      logits, static_cast<std::size_t>(row_floats_[program_->dg.logits])};
}

const TokenRunStats& Executor::TimingAt(std::int32_t pos) {
  assert(pos >= 0 && pos < program_->model.seq_len);
  const auto i = static_cast<std::size_t>(pos);
  if (timed_.empty()) {
    timing_.resize(static_cast<std::size_t>(program_->model.seq_len));
    timed_.assign(static_cast<std::size_t>(program_->model.seq_len), false);
  }
  if (!timed_[i]) {
    timing_[i] = Schedule(pos, nullptr);
    timed_[i] = true;
  }
  return timing_[i];
}

TokenRunStats Executor::Schedule(std::int32_t pos,
                                 sim::TraceRecorder* trace) const {
  const ExecConfig& ex = program_->exec;
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
        break;
      }
    }
    end_at[instr.id] = end;
    makespan = std::max(makespan, end);
    if (trace != nullptr) {
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
      trace->Record(std::move(span));
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

  TokenRunStats stats;
  stats.cycles = makespan;
  stats.seconds = u280_.cycles_to_seconds(makespan);
  stats.energy = meter.breakdown();
  stats.joules = meter.total_joules();
  stats.hbm_bytes = hbm.total_bytes();
  stats.launches = launches;
  stats.unit_busy[static_cast<std::size_t>(Unit::kDmaIn)] =
      dma_in.busy_cycles();
  stats.unit_busy[static_cast<std::size_t>(Unit::kDmaOut)] =
      dma_out.busy_cycles();
  stats.unit_busy[static_cast<std::size_t>(Unit::kMpe)] = mpe.busy_cycles();
  stats.unit_busy[static_cast<std::size_t>(Unit::kSfu)] = sfu.busy_cycles();
  stats.unit_busy[static_cast<std::size_t>(Unit::kCtrl)] = ctrl.busy_cycles();
  return stats;
}

}  // namespace speedllm::accel
