#include "compiler/compiler.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

#include "compiler/allocator.hpp"
#include "compiler/fusion.hpp"
#include "graph/liveness.hpp"

namespace speedllm::compiler {

using accel::ComputeKind;
using accel::Instr;
using accel::InstrId;
using accel::Opcode;
using accel::Unit;
using graph::Graph;
using graph::Op;
using graph::OpId;
using graph::OpKind;
using graph::ValueId;
using graph::ValueKind;

namespace {

/// Streaming chunk double-buffered while reading the KV cache.
constexpr std::uint64_t kKvStreamChunkBytes = 32 * 1024;
/// BRAM36 block payload (36 Kib) and URAM block payload (288 Kib).
constexpr std::uint64_t kBramBlockBytes = 36 * 1024 / 8;
constexpr std::uint64_t kUramBlockBytes = 288 * 1024 / 8;

struct ChannelGroups {
  int weight_first = 0, weight_count = 1;
  int kv_first = 0, kv_count = 1;
  int act_first = 0, act_count = 1;
};

ChannelGroups AssignChannels(const CompilerOptions& opt,
                             const hw::U280Config& u280) {
  ChannelGroups g;
  if (!opt.enable_pipeline) {
    // One AXI master: every stream shares the same narrow channel group.
    int n = std::min(opt.serial_channels, u280.hbm.num_channels);
    g.weight_first = g.kv_first = g.act_first = 0;
    g.weight_count = g.kv_count = g.act_count = n;
    return g;
  }
  // Clamp so every stream keeps at least one channel even when the
  // requested widths over-subscribe the 32-channel stack.
  int total = u280.hbm.num_channels;
  int wc = std::clamp(opt.weight_channels, 1, total - 2);
  int kc = std::clamp(opt.kv_channels, 1, total - wc - 1);
  int ac = std::clamp(opt.act_channels, 1, total - wc - kc);
  g.weight_first = 0;
  g.weight_count = wc;
  g.kv_first = wc;
  g.kv_count = kc;
  g.act_first = wc + kc;
  g.act_count = ac;
  return g;
}

/// Bytes a weight matrix row occupies in HBM (int8 adds group scales).
std::uint64_t WeightRowBytes(std::int64_t k, bool int8_weights,
                             std::int32_t group_size) {
  if (!int8_weights) return static_cast<std::uint64_t>(k) * 4;
  return static_cast<std::uint64_t>(k) +
         static_cast<std::uint64_t>((k + group_size - 1) / group_size) * 4;
}

/// Per-op worst-case SFU element operations.
std::int64_t SfuOpsFor(const Op& op) {
  switch (op.kind) {
    case OpKind::kRmsNorm: return 4 * op.m;   // square+sum, rsqrt, scale, mul
    case OpKind::kRope: return 4 * op.m;      // sin/cos + 2 fma per pair
    case OpKind::kKvWrite: return op.m;       // copy
    case OpKind::kSoftmax: return 4 * op.m;   // max, exp, sum, div
    case OpKind::kSilu: return 3 * op.m;      // exp, add, div
    case OpKind::kEltAdd: return op.m;
    case OpKind::kEltMul: return op.m;
    case OpKind::kEmbedLookup: return op.m;   // copy
    default: return 0;
  }
}

ComputeKind ComputeKindFor(OpKind k) {
  switch (k) {
    case OpKind::kEmbedLookup: return ComputeKind::kEmbedCopy;
    case OpKind::kRmsNorm: return ComputeKind::kRmsNorm;
    case OpKind::kMatMul: return ComputeKind::kMatMulTile;
    case OpKind::kRope: return ComputeKind::kRope;
    case OpKind::kKvWrite: return ComputeKind::kKvWrite;
    case OpKind::kAttention: return ComputeKind::kAttScores;  // unused
    case OpKind::kAttScores: return ComputeKind::kAttScores;
    case OpKind::kSoftmax: return ComputeKind::kSoftmax;
    case OpKind::kAttMix: return ComputeKind::kAttMix;
    case OpKind::kSilu: return ComputeKind::kSilu;
    case OpKind::kEltAdd: return ComputeKind::kEltAdd;
    case OpKind::kEltMul: return ComputeKind::kEltMul;
  }
  return ComputeKind::kNone;
}

struct TilingPlan {
  // rows_per_tile per matmul op id; 0 for non-matmul ops.
  std::vector<std::int64_t> rows;
};

/// Builds every on-chip buffer request for the given tiling. Step ids are
/// fused-group indices.
std::vector<BufferRequest> BuildBufferRequests(
    const graph::DecodeGraph& dg, const std::vector<FusedGroup>& groups,
    const std::vector<bool>& internal, const TilingPlan& tiling,
    const CompilerOptions& opt) {
  const Graph& g = dg.graph;
  std::vector<std::int32_t> group_of(g.ops().size(), -1);
  for (const auto& grp : groups) {
    for (OpId id : grp.ops) group_of[id] = grp.id;
  }
  const int tile_buffers = opt.enable_pipeline ? 2 : 1;

  std::vector<BufferRequest> reqs;
  // Track which (group, value) staging buffers we already requested.
  std::set<std::pair<std::int32_t, ValueId>> staged;

  auto stage_value = [&](std::int32_t grp, ValueId v) {
    if (!staged.emplace(grp, v).second) return;
    const auto& val = g.value(v);
    reqs.push_back(BufferRequest{"act." + val.name + ".g" + std::to_string(grp),
                                 val.bytes(), grp, grp});
  };

  for (const Op& op : g.ops()) {
    const std::int32_t grp = group_of[op.id];
    // Weight tile buffers.
    if (op.kind == OpKind::kMatMul) {
      std::uint64_t tile_bytes =
          static_cast<std::uint64_t>(tiling.rows[op.id]) *
          WeightRowBytes(op.k, opt.int8_weights, 64);
      for (int b = 0; b < tile_buffers; ++b) {
        reqs.push_back(BufferRequest{
            "w_tile." + op.name + "[" + std::to_string(b) + "]", tile_bytes,
            grp, grp});
      }
    } else if (op.kind == OpKind::kRmsNorm) {
      // Gain vector buffer.
      reqs.push_back(BufferRequest{"w_gain." + op.name,
                                   static_cast<std::uint64_t>(op.m) * 4, grp,
                                   grp});
    } else if (op.kind == OpKind::kEmbedLookup) {
      reqs.push_back(BufferRequest{"emb_row." + op.name,
                                   static_cast<std::uint64_t>(op.m) * 4, grp,
                                   grp});
    } else if (op.kind == OpKind::kAttScores || op.kind == OpKind::kAttMix) {
      // KV streaming chunks (double-buffered when pipelined).
      for (int b = 0; b < tile_buffers; ++b) {
        reqs.push_back(BufferRequest{
            "kv_stream." + op.name + "[" + std::to_string(b) + "]",
            kKvStreamChunkBytes, grp, grp});
      }
    } else if (op.kind == OpKind::kKvWrite) {
      reqs.push_back(BufferRequest{"kv_stage." + op.name,
                                   static_cast<std::uint64_t>(op.m) * 4, grp,
                                   grp});
    }
    // Activation inputs and outputs all need on-chip space in this group.
    for (ValueId in : op.inputs) {
      const auto& val = g.value(in);
      if (val.kind == ValueKind::kActivation) stage_value(grp, in);
    }
    for (ValueId out : op.outputs) {
      const auto& val = g.value(out);
      if (val.kind == ValueKind::kActivation ||
          val.kind == ValueKind::kOutput) {
        stage_value(grp, out);
      }
    }
  }
  (void)internal;
  return reqs;
}

}  // namespace

StatusOr<CompileResult> Compile(const llama::ModelConfig& config,
                                const CompilerOptions& options,
                                const hw::U280Config& u280) {
  SPEEDLLM_RETURN_IF_ERROR(config.Validate());

  graph::DecodeGraph dg = graph::BuildDecodeGraph(config);
  SPEEDLLM_RETURN_IF_ERROR(dg.graph.Validate());

  std::vector<FusedGroup> groups =
      BuildFusionGroups(dg.graph, options.enable_fusion);
  SPEEDLLM_RETURN_IF_ERROR(ValidateGroups(dg.graph, groups));
  std::vector<bool> internal = ValuesInternalToGroups(dg.graph, groups);

  const Graph& g = dg.graph;
  const std::uint64_t budget = static_cast<std::uint64_t>(
      options.onchip_budget_fraction *
      static_cast<double>(u280.fabric.onchip_bytes()));

  // ---- Tile-size fitting loop: shrink until the allocation fits. ----
  TilingPlan tiling;
  tiling.rows.assign(g.ops().size(), 0);
  auto ideal_rows = [&](const Op& op) {
    std::uint64_t row_bytes = WeightRowBytes(op.k, options.int8_weights, 64);
    std::int64_t rows =
        static_cast<std::int64_t>(options.max_tile_bytes / row_bytes);
    return std::clamp<std::int64_t>(rows, 1, op.m);
  };

  AllocationResult alloc;
  std::vector<BufferRequest> reqs;
  std::int64_t shrink = 1;
  for (;; shrink *= 2) {
    if (shrink > 4096) {
      return ResourceExhausted(
          "cannot fit on-chip buffers even with 1-row tiles (variant " +
          options.name + ", budget " + std::to_string(budget) + " B)");
    }
    for (const Op& op : g.ops()) {
      if (op.kind == OpKind::kMatMul) {
        tiling.rows[op.id] = std::max<std::int64_t>(1, ideal_rows(op) / shrink);
      }
    }
    reqs = BuildBufferRequests(dg, groups, internal, tiling, options);
    auto attempt =
        AllocateBuffers(reqs, options.enable_memory_reuse, budget);
    if (attempt.ok()) {
      alloc = std::move(attempt).value();
      break;
    }
    if (attempt.status().code() != StatusCode::kResourceExhausted) {
      return attempt.status();
    }
  }
  // ---- Program emission. ----
  accel::Program prog;
  prog.model = config;
  prog.exec.variant_name = options.name;
  prog.exec.pipeline = options.enable_pipeline;
  prog.exec.fusion = options.enable_fusion;
  prog.exec.memory_reuse = options.enable_memory_reuse;
  prog.exec.mpe_macs_per_cycle = options.mpe_macs_per_cycle;
  prog.exec.mpe_fill_cycles = options.mpe_fill_cycles;
  prog.exec.sfu_lanes = options.sfu_lanes;
  prog.exec.sfu_fill_cycles = options.sfu_fill_cycles;
  prog.exec.kernel_launch_cycles = options.kernel_launch_cycles;
  prog.exec.dma_setup_cycles = u280.hbm.dma_setup_cycles;
  prog.exec.int8_weights = options.int8_weights;

  const ChannelGroups ch = AssignChannels(options, u280);

  std::vector<std::int32_t> group_of(g.ops().size(), -1);
  for (const auto& grp : groups) {
    for (OpId id : grp.ops) group_of[id] = grp.id;
  }

  auto& instrs = prog.instrs;
  auto emit = [&](Instr in) {
    in.id = static_cast<InstrId>(instrs.size());
    instrs.push_back(std::move(in));
    return instrs.back().id;
  };

  // Producer compute instrs per value (all tiles for matmuls).
  std::map<ValueId, std::vector<InstrId>> prod_instrs;
  // HBM store instr that materialized an external value.
  std::map<ValueId, InstrId> store_of;
  // Per-group: value -> load instr already emitted.
  std::map<std::pair<std::int32_t, ValueId>, InstrId> loaded;
  // Per layer kv store instr (keyed by cache value id).
  std::map<ValueId, InstrId> kv_store_of;
  // Previous tile computes per matmul op (for double-buffer anti-deps).
  std::map<OpId, std::vector<InstrId>> tile_computes;

  std::uint64_t weight_stream_bytes = 0;
  std::uint64_t act_spill_bytes = 0;

  for (const auto& grp : groups) {
    Instr launch;
    launch.opcode = Opcode::kLaunch;
    launch.unit = Unit::kCtrl;
    launch.group = grp.id;
    launch.label = "launch." + grp.name;
    InstrId launch_id = emit(std::move(launch));

    auto ensure_loaded = [&](ValueId v) -> InstrId {
      auto key = std::make_pair(grp.id, v);
      auto it = loaded.find(key);
      if (it != loaded.end()) return it->second;
      const auto& val = g.value(v);
      Instr ld;
      ld.opcode = Opcode::kDmaLoad;
      ld.unit = Unit::kDmaIn;
      ld.group = grp.id;
      ld.value = v;
      ld.bytes = val.bytes();
      ld.channel_first = ch.act_first;
      ld.channel_count = ch.act_count;
      ld.deps.push_back(launch_id);
      auto st = store_of.find(v);
      if (st != store_of.end()) ld.deps.push_back(st->second);
      ld.label = "load." + val.name;
      act_spill_bytes += ld.bytes;
      InstrId id = emit(std::move(ld));
      loaded.emplace(key, id);
      return id;
    };

    // Dependencies on an activation input, covering both the internal
    // (same-group compute) and external (staged via HBM) cases.
    auto input_deps = [&](const Op& op, ValueId v,
                          std::vector<InstrId>& deps) {
      const auto& val = g.value(v);
      if (val.kind == ValueKind::kWeight || val.kind == ValueKind::kKvCache) {
        return;  // handled by the caller per op kind
      }
      auto prod = prod_instrs.find(v);
      bool same_group =
          prod != prod_instrs.end() && !prod->second.empty() &&
          instrs[prod->second.front()].group == grp.id;
      if (same_group) {
        for (InstrId pid : prod->second) deps.push_back(pid);
      } else {
        deps.push_back(ensure_loaded(v));
      }
      (void)op;
    };

    for (OpId op_id : grp.ops) {
      const Op& op = g.op(op_id);
      switch (op.kind) {
        case OpKind::kMatMul: {
          const std::int64_t rows = tiling.rows[op.id];
          const std::int64_t n_tiles = (op.m + rows - 1) / rows;
          const int n_buf = options.enable_pipeline ? 2 : 1;
          ValueId w_id = op.inputs[0];
          ValueId x_id = op.inputs[1];
          ValueId out_id = op.outputs[0];

          accel::TileInfo ti;
          ti.op = op.id;
          ti.rows_per_tile = rows;
          ti.num_tiles = n_tiles;
          ti.tile_bytes = static_cast<std::uint64_t>(rows) *
                          WeightRowBytes(op.k, options.int8_weights, 64);
          ti.num_buffers = n_buf;
          prog.tiles.push_back(ti);

          std::vector<InstrId> x_deps;
          input_deps(op, x_id, x_deps);

          auto& computes = tile_computes[op.id];
          std::vector<InstrId> loads;
          for (std::int64_t t = 0; t < n_tiles; ++t) {
            std::int64_t r0 = t * rows;
            std::int64_t r1 = std::min<std::int64_t>(op.m, r0 + rows);
            Instr ld;
            ld.opcode = Opcode::kDmaLoad;
            ld.unit = Unit::kDmaIn;
            ld.op = op.id;
            ld.group = grp.id;
            ld.value = w_id;
            ld.bytes = static_cast<std::uint64_t>(r1 - r0) *
                       WeightRowBytes(op.k, options.int8_weights, 64);
            ld.channel_first = ch.weight_first;
            ld.channel_count = ch.weight_count;
            ld.deps.push_back(launch_id);
            // Double-buffer anti-dependency: tile t reuses the buffer of
            // tile t - n_buf, so its load waits for that compute.
            if (t >= n_buf && !computes.empty()) {
              ld.deps.push_back(computes[t - n_buf]);
            }
            ld.label = "load." + op.name + ".t" + std::to_string(t);
            weight_stream_bytes += ld.bytes;
            InstrId ld_id = emit(std::move(ld));
            loads.push_back(ld_id);

            Instr cp;
            cp.opcode = Opcode::kCompute;
            cp.unit = Unit::kMpe;
            cp.op = op.id;
            cp.group = grp.id;
            cp.compute = ComputeKind::kMatMulTile;
            cp.row_begin = r0;
            cp.row_end = r1;
            cp.macs = (r1 - r0) * op.k;
            cp.onchip_bytes = ld.bytes + static_cast<std::uint64_t>(
                                             (r1 - r0) + op.k) * 4;
            cp.deps.push_back(ld_id);
            for (InstrId d : x_deps) cp.deps.push_back(d);
            cp.label = op.name + ".t" + std::to_string(t);
            InstrId cp_id = emit(std::move(cp));
            computes.push_back(cp_id);
          }
          prod_instrs[out_id] = computes;
          break;
        }
        case OpKind::kEmbedLookup: {
          ValueId out_id = op.outputs[0];
          Instr ld;
          ld.opcode = Opcode::kDmaLoad;
          ld.unit = Unit::kDmaIn;
          ld.op = op.id;
          ld.group = grp.id;
          ld.value = op.inputs[0];
          ld.bytes = static_cast<std::uint64_t>(op.m) * 4;  // one row
          ld.channel_first = ch.weight_first;
          ld.channel_count = ch.weight_count;
          ld.deps.push_back(launch_id);
          ld.label = "load.emb_row";
          weight_stream_bytes += ld.bytes;
          InstrId ld_id = emit(std::move(ld));

          Instr cp;
          cp.opcode = Opcode::kCompute;
          cp.unit = Unit::kSfu;
          cp.op = op.id;
          cp.group = grp.id;
          cp.compute = ComputeKind::kEmbedCopy;
          cp.sfu_ops = SfuOpsFor(op);
          cp.onchip_bytes = ld.bytes * 2;
          cp.deps = {ld_id};
          cp.label = op.name;
          InstrId cp_id = emit(std::move(cp));
          prod_instrs[out_id] = {cp_id};
          break;
        }
        case OpKind::kRmsNorm: {
          // Gain vector load (weight input is inputs[1]).
          Instr ld;
          ld.opcode = Opcode::kDmaLoad;
          ld.unit = Unit::kDmaIn;
          ld.op = op.id;
          ld.group = grp.id;
          ld.value = op.inputs[1];
          ld.bytes = g.value(op.inputs[1]).bytes();
          ld.channel_first = ch.weight_first;
          ld.channel_count = ch.weight_count;
          ld.deps.push_back(launch_id);
          ld.label = "load." + g.value(op.inputs[1]).name;
          weight_stream_bytes += ld.bytes;
          InstrId ld_id = emit(std::move(ld));

          Instr cp;
          cp.opcode = Opcode::kCompute;
          cp.unit = Unit::kSfu;
          cp.op = op.id;
          cp.group = grp.id;
          cp.compute = ComputeKind::kRmsNorm;
          cp.sfu_ops = SfuOpsFor(op);
          cp.onchip_bytes = static_cast<std::uint64_t>(op.m) * 4 * 3;
          cp.deps = {ld_id};
          input_deps(op, op.inputs[0], cp.deps);
          cp.label = op.name;
          InstrId cp_id = emit(std::move(cp));
          prod_instrs[op.outputs[0]] = {cp_id};
          break;
        }
        case OpKind::kAttScores:
        case OpKind::kAttMix: {
          // Stream the relevant cache (K for scores, V for mix).
          ValueId cache_id = op.inputs[1];
          Instr ld;
          ld.opcode = Opcode::kDmaLoad;
          ld.unit = Unit::kDmaIn;
          ld.op = op.id;
          ld.group = grp.id;
          ld.value = cache_id;
          ld.bytes = g.value(cache_id).bytes();  // worst case; seq-scaled
          ld.channel_first = ch.kv_first;
          ld.channel_count = ch.kv_count;
          ld.seq_scaled = true;
          ld.deps.push_back(launch_id);
          auto kvst = kv_store_of.find(cache_id);
          if (kvst != kv_store_of.end()) ld.deps.push_back(kvst->second);
          ld.label = "stream." + g.value(cache_id).name;
          InstrId ld_id = emit(std::move(ld));

          Instr cp;
          cp.opcode = Opcode::kCompute;
          cp.unit = Unit::kMpe;
          cp.op = op.id;
          cp.group = grp.id;
          cp.compute = ComputeKindFor(op.kind);
          cp.macs = static_cast<std::int64_t>(op.n_heads) * config.seq_len *
                    op.head_dim;
          cp.seq_scaled = true;
          cp.onchip_bytes = g.value(cache_id).bytes();
          cp.deps = {ld_id};
          input_deps(op, op.inputs[0], cp.deps);
          cp.label = op.name;
          InstrId cp_id = emit(std::move(cp));
          prod_instrs[op.outputs[0]] = {cp_id};
          break;
        }
        case OpKind::kKvWrite: {
          Instr cp;
          cp.opcode = Opcode::kCompute;
          cp.unit = Unit::kSfu;
          cp.op = op.id;
          cp.group = grp.id;
          cp.compute = ComputeKind::kKvWrite;
          cp.sfu_ops = SfuOpsFor(op);
          cp.onchip_bytes = static_cast<std::uint64_t>(op.m) * 4;
          input_deps(op, op.inputs[0], cp.deps);
          input_deps(op, op.inputs[1], cp.deps);
          cp.label = op.name;
          InstrId cp_id = emit(std::move(cp));

          Instr st;
          st.opcode = Opcode::kDmaStore;
          st.unit = options.enable_pipeline ? Unit::kDmaOut : Unit::kDmaIn;
          st.op = op.id;
          st.group = grp.id;
          st.value = op.outputs[0];
          st.bytes = static_cast<std::uint64_t>(op.m) * 4;  // k + v rows
          st.channel_first = ch.kv_first;
          st.channel_count = ch.kv_count;
          st.deps = {cp_id};
          st.label = "store.kv.l" + std::to_string(op.layer);
          InstrId st_id = emit(std::move(st));
          kv_store_of[op.outputs[0]] = st_id;
          kv_store_of[op.outputs[1]] = st_id;
          break;
        }
        default: {  // SFU elementwise ops: rope/softmax/silu/add/mul
          Instr cp;
          cp.opcode = Opcode::kCompute;
          cp.unit = Unit::kSfu;
          cp.op = op.id;
          cp.group = grp.id;
          cp.compute = ComputeKindFor(op.kind);
          cp.sfu_ops = SfuOpsFor(op);
          cp.seq_scaled =
              op.kind == OpKind::kSoftmax;  // scores length follows pos
          cp.onchip_bytes = static_cast<std::uint64_t>(op.m) * 4 * 2;
          for (ValueId in : op.inputs) input_deps(op, in, cp.deps);
          cp.label = op.name;
          InstrId cp_id = emit(std::move(cp));
          for (ValueId out : op.outputs) prod_instrs[out] = {cp_id};
          break;
        }
      }

      // Store outputs that escape the group.
      for (ValueId out : op.outputs) {
        const auto& val = g.value(out);
        bool needs_store = (val.kind == ValueKind::kActivation &&
                            !internal[out]) ||
                           val.kind == ValueKind::kOutput;
        if (!needs_store) continue;
        Instr st;
        st.opcode = Opcode::kDmaStore;
        st.unit = options.enable_pipeline ? Unit::kDmaOut : Unit::kDmaIn;
        st.op = op.id;
        st.group = grp.id;
        st.value = out;
        st.bytes = val.bytes();
        st.channel_first = ch.act_first;
        st.channel_count = ch.act_count;
        st.deps = prod_instrs[out];
        st.label = "store." + val.name;
        act_spill_bytes += st.bytes;
        InstrId st_id = emit(std::move(st));
        store_of[out] = st_id;
      }
    }
  }

  // Serialized read -> compute -> write iteration: chain everything.
  if (!options.enable_pipeline) {
    for (std::size_t i = 1; i < instrs.size(); ++i) {
      instrs[i].deps.push_back(instrs[i - 1].id);
    }
  }

  // ---- Buffers + stats. ----
  prog.buffers.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    accel::BufferAlloc b;
    b.id = static_cast<std::int32_t>(i);
    b.purpose = reqs[i].purpose;
    b.offset = alloc.placements[i].offset;
    b.bytes = alloc.placements[i].bytes;
    prog.buffers.push_back(std::move(b));
  }
  prog.stats.num_groups = groups.size();
  prog.stats.num_instrs = instrs.size();
  prog.stats.onchip_peak_bytes = alloc.peak_bytes;
  prog.stats.onchip_budget_bytes = budget;
  prog.stats.weight_stream_bytes = weight_stream_bytes;
  prog.stats.act_spill_bytes = act_spill_bytes;
  prog.stats.min_tile_rows = 0;
  for (const auto& ti : prog.tiles) {
    if (prog.stats.min_tile_rows == 0 ||
        ti.rows_per_tile < prog.stats.min_tile_rows) {
      prog.stats.min_tile_rows = ti.rows_per_tile;
    }
  }
  prog.dg = std::move(dg);

  // ---- Resource ledger (HLS report substitute). ----
  hw::ResourceLedger ledger(u280.fabric);
  const std::int64_t lanes = options.mpe_macs_per_cycle;
  std::uint64_t mpe_dsps = static_cast<std::uint64_t>(
      options.int8_weights ? lanes / 2 : lanes * 3);
  SPEEDLLM_RETURN_IF_ERROR(
      ledger.Charge(hw::Resource::kDsp, mpe_dsps, "mpe"));
  SPEEDLLM_RETURN_IF_ERROR(ledger.Charge(
      hw::Resource::kLut, static_cast<std::uint64_t>(lanes) * 220, "mpe"));
  SPEEDLLM_RETURN_IF_ERROR(ledger.Charge(
      hw::Resource::kFf, static_cast<std::uint64_t>(lanes) * 310, "mpe"));
  SPEEDLLM_RETURN_IF_ERROR(ledger.Charge(
      hw::Resource::kDsp, static_cast<std::uint64_t>(options.sfu_lanes) * 4,
      "sfu"));
  SPEEDLLM_RETURN_IF_ERROR(ledger.Charge(
      hw::Resource::kLut, static_cast<std::uint64_t>(options.sfu_lanes) * 2800,
      "sfu"));
  const int dma_engines = options.enable_pipeline ? 2 : 1;
  SPEEDLLM_RETURN_IF_ERROR(ledger.Charge(
      hw::Resource::kLut, static_cast<std::uint64_t>(dma_engines) * 6200,
      "dma"));
  SPEEDLLM_RETURN_IF_ERROR(ledger.Charge(
      hw::Resource::kFf, static_cast<std::uint64_t>(dma_engines) * 9400,
      "dma"));
  SPEEDLLM_RETURN_IF_ERROR(ledger.Charge(hw::Resource::kLut, 4100, "ctrl"));
  // Buffers: URAM blocks first (bulk), BRAM remainder.
  std::uint64_t remaining = alloc.peak_bytes;
  std::uint64_t uram_blocks =
      std::min<std::uint64_t>(u280.fabric.uram_blocks,
                              remaining / kUramBlockBytes);
  if (uram_blocks > 0) {
    SPEEDLLM_RETURN_IF_ERROR(
        ledger.Charge(hw::Resource::kUramBlock, uram_blocks, "buffers"));
    remaining -= uram_blocks * kUramBlockBytes;
  }
  std::uint64_t bram_blocks =
      (remaining + kBramBlockBytes - 1) / kBramBlockBytes;
  SPEEDLLM_RETURN_IF_ERROR(
      ledger.Charge(hw::Resource::kBramBlock, bram_blocks, "buffers"));

  CompileResult result{std::move(prog), std::move(ledger)};
  return result;
}

}  // namespace speedllm::compiler
