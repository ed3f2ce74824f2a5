// SpeedLLM benchmark program: serves one frozen workload through
// api::Engine and prints every measurement as one JSON line.
//
//   speedllm_bench --workload NAME --seed N [--check] [--trace-out PATH]
//   speedllm_bench --workload NAME --seed N --setup-only
//
// benchmark/run.py runs one process per repetition, so a process's peak
// RSS belongs to one workload and every setup is paid cold.
//   --check       after the timed window, re-serve the first 16 requests
//                 on a fresh one-card engine (max_batch_seqs=1, prefix
//                 cache off) and compare streams byte for byte; greedy
//                 workloads also replay them through llama::ReferenceModel.
//   --trace-out   keep spans in memory, run the per-layer probes, and
//                 write the spans as Chrome-trace JSON to PATH at exit.
//   --setup-only  time setup and exit (an extra cold setup sample).
// Exits 0 on success, 1 when a request or the check fails, 2 on misuse.
//
// It only calls api::Engine (Submit, StepUntil, RunToCompletion, Finish
// and its introspection), never the offline serving entry points
// (ClusterRouter::Run, ServingSimulator, ContinuousBatchScheduler), so it
// keeps working when those are deleted.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "compiler/compiler.hpp"
#include "hw/u280_config.hpp"
#include "llama/kernels.hpp"
#include "llama/reference.hpp"
#include "llama/sampler.hpp"
#include "llama/weights.hpp"
#include "runtime/device.hpp"
#include "serving/kv_pool.hpp"
#include "workloads.hpp"

namespace speedllm::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kWeightSeed = 20240517;
constexpr std::size_t kCheckedRequests = 16;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Spans around the calls this program makes into each layer: name,
/// start, end, parent span and request id. Kept in memory and written as
/// Chrome-trace begin/end pairs at exit. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t request) : log_(log) {
      if (log_ != nullptr) log_->Begin(name, request);
    }
    ~Scope() {
      if (log_ != nullptr) log_->End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
  };

  Scope Span(const char* name, std::uint64_t request = 0) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }
  bool enabled() const { return enabled_; }

  /// Wall seconds summed over closed spans named `name`, and their count.
  std::pair<double, std::int64_t> Total(std::string_view name) const {
    std::vector<std::int64_t> begin_ns(next_span_ + 1, 0);
    double total = 0.0;
    std::int64_t count = 0;
    for (const Event& e : events_) {
      if (e.begin) {
        begin_ns[e.span] = e.ns;
      } else if (name == e.name) {
        total += static_cast<double>(e.ns - begin_ns[e.span]) * 1e-9;
        ++count;
      }
    }
    return {total, count};
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,"
                   "\"tid\":1,\"args\":{\"span\":%u,\"parent\":%u,"
                   "\"request\":%llu}}",
                   i == 0 ? "" : ",", e.name, e.begin ? 'B' : 'E',
                   static_cast<double>(e.ns) * 1e-3, e.span, e.parent,
                   static_cast<unsigned long long>(e.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    const char* name;
    std::int64_t ns;
    std::uint32_t span;
    std::uint32_t parent;
    std::uint64_t request;
    bool begin;
  };

  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  void Begin(const char* name, std::uint64_t request) {
    const std::uint32_t span = ++next_span_;
    const std::uint32_t parent = open_.empty() ? 0 : open_.back().span;
    events_.push_back({name, Now(), span, parent, request, true});
    open_.push_back(events_.back());
  }
  void End() {
    Event e = open_.back();
    open_.pop_back();
    e.ns = Now();
    e.begin = false;
    events_.push_back(e);
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::uint32_t next_span_ = 0;
  std::vector<Event> events_;
  std::vector<Event> open_;
};

/// Named scalar results, printed as one JSON object.
class Metrics {
 public:
  void Set(std::string name, double value) {
    values_.emplace_back(std::move(name), value);
  }
  double Get(std::string_view name) const {
    for (const auto& [k, v] : values_) {
      if (k == name) return v;
    }
    return 0.0;
  }
  void Print(std::FILE* f) const {
    std::fprintf(f, "{");
    for (std::size_t i = 0; i < values_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.17g", i == 0 ? "" : ", ",
                   values_[i].first.c_str(), values_[i].second);
    }
    std::fprintf(f, "}");
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

/// Runs `body` until at least `min_seconds` and `min_reps` have passed and
/// returns the fastest call's wall seconds. Interference only adds time,
/// so the minimum is the probe's cost, and the shares attributed from it
/// are lower bounds.
template <typename Body>
double FastestCallSeconds(double min_seconds, int min_reps, Body&& body) {
  double fastest = 0.0;
  const Clock::time_point start = Clock::now();
  for (int reps = 0; reps < min_reps || SecondsSince(start) < min_seconds;
       ++reps) {
    const Clock::time_point t0 = Clock::now();
    body();
    const double s = SecondsSince(t0);
    fastest = reps == 0 ? s : std::min(fastest, s);
  }
  return fastest;
}

bool FinishedNormally(serving::FinishReason reason) {
  return reason == serving::FinishReason::kLength ||
         reason == serving::FinishReason::kStop;
}

api::EngineConfig EngineConfigFor(const WorkloadSpec& spec,
                                  std::uint64_t seed) {
  api::EngineConfig config;
  config.num_cards = spec.cards;
  config.placement = spec.placement;
  config.scheduler.kv_pool_bytes = spec.kv_pool_bytes;
  config.sampler.temperature = spec.temperature;
  config.sampler.top_p = spec.top_p;
  config.sampler.seed = seed;
  return config;
}

/// What setup builds: the model, its compiled program, and the engine
/// serving them. Engine references the other two, so this never moves.
struct System {
  hw::U280Config u280 = hw::U280Config::Default();
  llama::Weights weights;
  std::optional<compiler::CompileResult> compiled;
  std::unique_ptr<api::Engine> engine;
};

Status Setup(const WorkloadSpec& spec, std::uint64_t seed, SpanLog& log,
             System* sys, Metrics* m) {
  auto setup_span = log.Span("setup");
  const Clock::time_point t0 = Clock::now();
  {
    auto span = log.Span("setup.weights");
    sys->weights = llama::GenerateSyntheticWeights(spec.model, kWeightSeed);
  }
  const double weights_s = SecondsSince(t0);
  const Clock::time_point t1 = Clock::now();
  {
    auto span = log.Span("setup.compile");
    auto compiled = compiler::Compile(
        spec.model, compiler::CompilerOptions::SpeedLLM(), sys->u280);
    if (!compiled.ok()) return compiled.status();
    sys->compiled.emplace(std::move(compiled).value());
  }
  const double compile_s = SecondsSince(t1);
  const Clock::time_point t2 = Clock::now();
  {
    auto span = log.Span("setup.engine");
    sys->engine = std::make_unique<api::Engine>(
        sys->compiled->program, sys->weights, sys->u280,
        EngineConfigFor(spec, seed));
  }
  const double engine_s = SecondsSince(t2);
  m->Set("setup_s", weights_s + compile_s + engine_s);
  m->Set("setup.weights_s", weights_s);
  m->Set("setup.compile_s", compile_s);
  m->Set("setup.engine_s", engine_s);
  return Status::Ok();
}

/// Client-side bookkeeping of one served run.
struct Served {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<serving::ServingRequest> first;  // first kCheckedRequests
  double wall_s = 0.0;                         // first Submit -> Finish
  std::optional<serving::ClusterReport> report;
};

/// Submits through the engine, counting failures and keeping copies of
/// the first requests for the output check.
void Submit(api::Engine& engine, SpanLog& log, Served& served,
            serving::ServingRequest request, api::StreamCallbacks callbacks) {
  auto span = log.Span("api.Submit", engine.submitted_requests() + 1);
  ++served.attempted;
  if (served.first.size() < kCheckedRequests) served.first.push_back(request);
  if (!engine.Submit(std::move(request), std::move(callbacks)).ok()) {
    ++served.failed;
  }
}

/// Drives the workload's trace through the engine: open-loop arrivals are
/// submitted as the clock reaches them; chat users submit their next turn
/// from on_finish after a think gap.
Status Serve(const WorkloadSpec& spec, std::uint64_t seed, api::Engine& engine,
             SpanLog& log, Served& served, Digest* digest) {
  auto serve_span = log.Span("serve");
  std::vector<serving::ServingRequest> trace;
  std::vector<ChatUser> users;
  if (spec.arrivals == Arrivals::kClosedLoopChat) {
    users = ChatScripts(spec, seed, digest);
  } else {
    trace = OpenLoopTrace(spec, seed, digest);
  }

  const auto count_failure = [&](api::RequestHandle handle,
                                 serving::FinishReason reason,
                                 const serving::RequestOutcome&) {
    auto span = log.Span("client.on_finish", handle.id);
    if (!FinishedNormally(reason)) ++served.failed;
  };
  std::function<void(std::size_t, double)> submit_turn =
      [&](std::size_t u, double now_s) {
        api::StreamCallbacks callbacks;
        callbacks.on_finish = [&, u](api::RequestHandle handle,
                                     serving::FinishReason reason,
                                     const serving::RequestOutcome& outcome) {
          auto span = log.Span("client.on_finish", handle.id);
          if (!FinishedNormally(reason)) ++served.failed;
          ChatUser& user = users[u];
          user.history.insert(user.history.end(), outcome.generated.begin(),
                              outcome.generated.end());
          if (user.next_turn < spec.turns) {
            submit_turn(u, outcome.completion_seconds);
          }
        };
        Submit(engine, log, served, NextChatTurn(users[u], now_s),
               std::move(callbacks));
      };

  const Clock::time_point start = Clock::now();
  if (spec.arrivals == Arrivals::kClosedLoopChat) {
    for (std::size_t u = 0; u < users.size(); ++u) submit_turn(u, 0.0);
  } else {
    for (serving::ServingRequest& request : trace) {
      {
        auto span = log.Span("api.StepUntil");
        engine.StepUntil(request.arrival_seconds);
      }
      api::StreamCallbacks callbacks;
      callbacks.on_finish = count_failure;
      Submit(engine, log, served, std::move(request), std::move(callbacks));
    }
  }
  {
    auto span = log.Span("api.RunToCompletion");
    engine.RunToCompletion();
  }
  auto span = log.Span("api.Finish");
  auto report = engine.Finish();
  served.wall_s = SecondsSince(start);
  if (!report.ok()) return report.status();
  served.report.emplace(std::move(report).value());
  return Status::Ok();
}

/// Token totals of the requests that finished normally.
struct TokenCounts {
  std::int64_t prompt = 0;
  std::int64_t generated = 0;
};

TokenCounts CountTokens(const serving::ServingReport& merged) {
  TokenCounts c;
  for (const serving::RequestOutcome& o : merged.outcomes) {
    if (!FinishedNormally(o.finish_reason)) continue;
    c.prompt += o.prompt_tokens;
    c.generated += static_cast<std::int64_t>(o.generated.size());
  }
  return c;
}

void RecordEndToEnd(const WorkloadSpec& spec, const Served& served,
                    Metrics* m) {
  const serving::ServingReport& merged = served.report->merged;
  const TokenCounts tokens = CountTokens(merged);
  const double q = spec.tail_quantile();
  const serving::TierSlo slo{spec.slo_ttft_s, spec.slo_tpot_s};
  std::int64_t attained = 0;
  for (const serving::RequestOutcome& o : merged.outcomes) {
    if (o.attains(slo)) ++attained;
  }
  const double attempted = static_cast<double>(served.attempted);
  m->Set("host_tokens_per_s",
         static_cast<double>(tokens.prompt + tokens.generated) /
             served.wall_s);
  m->Set("host_peak_rss_mib", PeakRssMib());
  m->Set("sim_tokens_per_s", merged.device_tokens_per_second);
  m->Set("sim_ttft_p50_ms", merged.ttft_percentile(0.5) * 1e3);
  m->Set("sim_ttft_tail_ms", merged.ttft_percentile(q) * 1e3);
  m->Set("sim_tpot_p50_ms", merged.tpot_percentile(0.5) * 1e3);
  m->Set("sim_tpot_tail_ms", merged.tpot_percentile(q) * 1e3);
  m->Set("sim_slo_attainment", static_cast<double>(attained) / attempted);
  m->Set("failed_request_share",
         static_cast<double>(served.failed) / attempted);
  m->Set("tail_quantile", q);
}

/// Per-layer counters read from the public report and pool stats.
void RecordCounters(const api::Engine& engine, const Served& served,
                    Metrics* m) {
  const serving::ClusterReport& report = *served.report;
  const serving::ServingReport& merged = report.merged;
  const TokenCounts tokens = CountTokens(merged);
  std::vector<double> waits;
  for (const serving::RequestOutcome& o : merged.outcomes) {
    // Cycle-to-second rounding can leave a zero wait a hair below zero.
    waits.push_back(std::max(0.0, o.queueing_delay()));
  }
  std::sort(waits.begin(), waits.end());
  const auto at = [&](double q) {
    return waits.empty() ? 0.0
                         : waits[static_cast<std::size_t>(
                               q * static_cast<double>(waits.size() - 1))];
  };
  double peak_occupancy = 0.0;
  for (int c = 0; c < engine.num_cards(); ++c) {
    const double cap = static_cast<double>(engine.kv_block_capacity(c));
    if (cap > 0.0) {
      peak_occupancy = std::max(
          peak_occupancy,
          static_cast<double>(engine.kv_pool_stats(c).peak_used_blocks) / cap);
    }
  }
  m->Set("serving.kv_pool.blocks_per_card",
         static_cast<double>(engine.kv_block_capacity(0)));
  // Executor forwards on the host: tokens the device computes (new plus
  // swap-in recompute) plus the restored-prefix replay the device gets
  // for free, which is what a single KV store would delete.
  m->Set("host.forward_tokens",
         static_cast<double>(merged.total_tokens + merged.recomputed_tokens +
                             merged.prefix_cache_hit_tokens));
  m->Set("host.replayed_tokens",
         static_cast<double>(merged.prefix_cache_hit_tokens));
  m->Set("serving.scheduler.ticks", static_cast<double>(merged.ticks));
  m->Set("serving.scheduler.mean_batch_width", merged.mean_batch_width);
  m->Set("serving.scheduler.queue_wait_p50_ms", at(0.5) * 1e3);
  m->Set("serving.scheduler.queue_wait_tail_ms",
         at(m->Get("tail_quantile")) * 1e3);
  m->Set("serving.scheduler.preemptions",
         static_cast<double>(merged.preemptions));
  m->Set("serving.scheduler.recomputed_tokens",
         static_cast<double>(merged.recomputed_tokens));
  m->Set("serving.kv_pool.prefix_hit_token_share",
         tokens.prompt > 0
             ? static_cast<double>(merged.prefix_cache_hit_tokens) /
                   static_cast<double>(tokens.prompt)
             : 0.0);
  m->Set("serving.kv_pool.cow_copies", static_cast<double>(merged.cow_copies));
  m->Set("serving.kv_pool.evictions",
         static_cast<double>(merged.cache_evictions));
  m->Set("serving.kv_pool.peak_occupancy", peak_occupancy);
  m->Set("serving.kv_pool.dma_mib",
         static_cast<double>(merged.dma_bytes_moved) / (1024.0 * 1024.0));
  m->Set("serving.kv_pool.dma_ms", merged.dma_time_seconds * 1e3);
  m->Set("serving.cluster.imbalance", report.imbalance());
  m->Set("serving.cluster.mean_utilization", report.mean_utilization());
}

/// Host timings of the api layer, read back from the spans.
void RecordApiSpans(const SpanLog& log, const Served& served, Metrics* m) {
  const auto [submit_s, submits] = log.Total("api.Submit");
  const double step_s = log.Total("api.StepUntil").first +
                        log.Total("api.RunToCompletion").first;
  m->Set("api.submit_us_mean",
         submits > 0 ? submit_s * 1e6 / static_cast<double>(submits) : 0.0);
  m->Set("api.step_s", step_s);
  m->Set("api.finish_ms", log.Total("api.Finish").first * 1e3);
  const double ticks = static_cast<double>(served.report->merged.ticks);
  m->Set("host.us_per_tick", ticks > 0.0 ? step_s * 1e6 / ticks : 0.0);
}

/// Times public entry points of the lower layers in isolation, at this
/// workload's shapes, and attributes api.step_s to them by call count.
Status RunProbes(const WorkloadSpec& spec, const System& sys,
                 const Served& served, SpanLog& log, Metrics* m) {
  const llama::ModelConfig& model = spec.model;
  {
    auto span = log.Span("probe.kv_pool");
    serving::KvPoolConfig pool = serving::MakeKvPoolConfig(
        model, serving::KvCacheDtype::kFp16, 0, 16, true);
    pool.pool_bytes = static_cast<std::uint64_t>(
                          sys.engine->kv_block_capacity(0)) *
                      pool.block_bytes();
    const double s = FastestCallSeconds(0.0, 3, [&] {
      serving::KvBlockPool probe(pool);
      (void)probe.num_blocks();
    });
    m->Set("serving.kv_pool.ctor_ms", s * 1e3);
  }

  // A fixed prompt at the workload's mean request shape.
  const TokenCounts tokens = CountTokens(served.report->merged);
  const double requests = static_cast<double>(served.attempted);
  const std::int32_t gen = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(tokens.generated / requests + 0.5));
  const std::int32_t prompt_len = std::clamp<std::int32_t>(
      static_cast<std::int32_t>(tokens.prompt / requests + 0.5), 1,
      model.seq_len - gen);
  TraceRng rng(7);
  const std::vector<std::int32_t> prompt =
      RandomTokens(rng, prompt_len, model.vocab_size, true);
  auto device = runtime::AcceleratorDevice::Create(
      sys.weights, compiler::CompilerOptions::SpeedLLM(), sys.u280);
  if (!device.ok()) return device.status();
  llama::Sampler greedy(llama::SamplerConfig{0.0f, 1.0f, 1, -1});
  const llama::Weights& w = sys.weights;
  const std::int64_t dim = model.dim, hidden = model.hidden_dim,
                     kv = model.kv_dim(), vocab = model.vocab_size;
  std::vector<float> x(static_cast<std::size_t>(std::max(dim, hidden)), 0.5f);
  std::vector<float> out(
      static_cast<std::size_t>(std::max({dim, hidden, vocab})));
  const auto mm = [&](const TensorF& weight, std::int64_t d, std::int64_t n) {
    llama::MatMul({out.data(), static_cast<std::size_t>(d)}, weight.span(),
                  {x.data(), static_cast<std::size_t>(n)}, d, n);
  };
  // Whole-executor tokens and their matmuls alternate, so both floors come
  // from the same stretch of host time and their difference is the rest
  // of the executor (timing model, attention, norms).
  std::optional<runtime::InferenceMetrics> metrics;
  double generate_s = 0.0;
  double matmul_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 3 || SecondsSince(start) < 0.5; ++i) {
    Clock::time_point t0 = Clock::now();
    {
      auto span = log.Span("probe.accel");
      auto result = device->Generate(prompt, gen, greedy);
      if (!result.ok()) return result.status();
      metrics = result->metrics;
    }
    const double g = SecondsSince(t0);
    generate_s = i == 0 ? g : std::min(generate_s, g);
    t0 = Clock::now();
    {
      auto span = log.Span("probe.matmul");
      for (std::size_t l = 0; l < static_cast<std::size_t>(model.n_layers);
           ++l) {
        mm(w.wq[l], dim, dim);
        mm(w.wk[l], kv, dim);
        mm(w.wv[l], kv, dim);
        mm(w.wo[l], dim, dim);
        mm(w.w1[l], hidden, dim);
        mm(w.w3[l], hidden, dim);
        mm(w.w2[l], dim, hidden);
      }
      mm(w.classifier(), vocab, dim);
    }
    const double t = SecondsSince(t0);
    matmul_s = i == 0 ? t : std::min(matmul_s, t);
  }
  const double per_token = static_cast<double>(prompt_len + gen);
  m->Set("accel.host_us_per_token", generate_s * 1e6 / per_token);
  m->Set("accel.sim_prefill_us_per_token",
         metrics->prefill_seconds * 1e6 / prompt_len);
  m->Set("accel.sim_decode_us_per_token", metrics->decode_seconds * 1e6 / gen);
  m->Set("accel.hbm_bytes_per_token",
         static_cast<double>(metrics->hbm_bytes) / per_token);
  m->Set("accel.sim_decode_uj_per_token", metrics->decode_joules * 1e6 / gen);
  m->Set("llama.matmul_us_per_token", matmul_s * 1e6);
  {
    auto span = log.Span("probe.sampler");
    auto last = device->Forward(prompt.back(), prompt_len - 1);
    if (!last.ok()) return last.status();
    const std::vector<float> logits(last->begin(), last->end());
    std::vector<float> sampled(logits.size());
    llama::Sampler sampler(
        llama::SamplerConfig{spec.temperature, spec.top_p, 3, -1});
    constexpr int kBatch = 64;
    const double s = FastestCallSeconds(0.05, 3, [&] {
      for (int i = 0; i < kBatch; ++i) {
        sampled = logits;
        (void)sampler.Sample(sampled);
      }
    });
    m->Set("llama.sampler_us_per_sample", s * 1e6 / kBatch);
  }

  const double step_us = m->Get("api.step_s") * 1e6;
  const double forwards = m->Get("host.forward_tokens");
  const double matmul_us = m->Get("llama.matmul_us_per_token");
  const double kernel = matmul_us * forwards / step_us;
  const double executor_other =
      (m->Get("accel.host_us_per_token") - matmul_us) * forwards / step_us;
  // One sample per generated token.
  const double sampler = m->Get("llama.sampler_us_per_sample") *
                         static_cast<double>(tokens.generated) / step_us;
  m->Set("host.kernel_share", kernel);
  m->Set("host.executor_other_share", executor_other);
  m->Set("host.sampler_share", sampler);
  m->Set("host.serving_share", 1.0 - kernel - executor_other - sampler);
  return Status::Ok();
}

/// Re-serves the first requests on a fresh single-slot engine and, for
/// greedy workloads, replays them through the CPU reference model.
/// Returns an empty string when every stream matches.
std::string CheckStreams(const WorkloadSpec& spec, std::uint64_t seed,
                         const System& sys, const Served& served) {
  api::EngineConfig config = EngineConfigFor(spec, seed);
  config.num_cards = 1;
  config.placement = serving::PlacementPolicy::kRoundRobin;
  config.scheduler.max_batch_seqs = 1;
  config.scheduler.enable_prefix_cache = false;
  config.scheduler.kv_pool_bytes = 0;
  api::Engine engine(sys.compiled->program, sys.weights, sys.u280, config);
  for (const serving::ServingRequest& request : served.first) {
    if (!engine.Submit(request).ok()) return "check engine rejected a request";
  }
  engine.RunToCompletion();
  auto report = engine.Finish();
  if (!report.ok()) return report.status().ToString();
  const auto& served_outcomes = served.report->merged.outcomes;
  for (std::size_t i = 0; i < served.first.size(); ++i) {
    if (report->merged.outcomes[i].generated != served_outcomes[i].generated) {
      return "request " + std::to_string(i) +
             " stream differs from the single-slot re-serve";
    }
  }
  if (spec.temperature != 0.0f) return "";

  llama::ReferenceModel reference(sys.weights, nullptr);
  for (std::size_t i = 0; i < served.first.size(); ++i) {
    const std::vector<std::int32_t>& prompt = served.first[i].prompt;
    const std::vector<std::int32_t>& stream = served_outcomes[i].generated;
    reference.Reset();
    std::int32_t pos = 0;
    StatusOr<std::span<const float>> logits = InvalidArgument("empty prompt");
    for (std::int32_t token : prompt) logits = reference.Forward(token, pos++);
    for (std::size_t j = 0; j < stream.size(); ++j) {
      if (!logits.ok()) return logits.status().ToString();
      if (llama::Sampler::ArgMax(*logits) != stream[j]) {
        return "request " + std::to_string(i) + " token " + std::to_string(j) +
               " differs from llama::ReferenceModel argmax";
      }
      if (j + 1 < stream.size()) logits = reference.Forward(stream[j], pos++);
    }
  }
  return "";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool check = false;
  bool setup_only = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--trace-out" && has_value) {
      args->trace_out = argv[++i];
    } else if (flag == "--check") {
      args->check = true;
    } else if (flag == "--setup-only") {
      args->setup_only = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: speedllm_bench --workload NAME --seed N [--check] "
                 "[--trace-out PATH] [--setup-only]\n");
    return 2;
  }
  const std::vector<WorkloadSpec> all = Workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const auto& w) {
    return w.name == args.workload;
  });
  if (it == all.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *it;
  SpanLog log(!args.trace_out.empty());
  Metrics m;
  System sys;
  Status status = Setup(spec, args.seed, log, &sys, &m);
  if (!status.ok() || args.setup_only) {
    if (!status.ok()) std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::printf("{\"metrics\": ");
    m.Print(stdout);
    std::printf("}\n");
    return status.ok() ? 0 : 1;
  }

  Served served;
  Digest digest;
  status = Serve(spec, args.seed, *sys.engine, log, served, &digest);
  if (!status.ok()) {
    std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
    return 1;
  }
  RecordEndToEnd(spec, served, &m);
  RecordCounters(*sys.engine, served, &m);

  std::string check = "skipped";
  if (args.check) {
    auto span = log.Span("check");
    const std::string error = CheckStreams(spec, args.seed, sys, served);
    check = error.empty() ? "pass" : error;
    std::replace(check.begin(), check.end(), '"', '\'');
  }
  if (log.enabled()) {
    RecordApiSpans(log, served, &m);
    status = RunProbes(spec, sys, served, log, &m);
    if (!status.ok()) {
      std::fprintf(stderr, "probes: %s\n", status.ToString().c_str());
      return 1;
    }
    if (!log.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"digest\": \"%016llx\", "
      "\"attempted\": %lld, \"failed\": %lld, \"check\": \"%s\", "
      "\"metrics\": ",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(digest.value()),
      static_cast<long long>(served.attempted),
      static_cast<long long>(served.failed), check.c_str());
  m.Print(stdout);
  std::printf("}\n");
  return served.failed == 0 && (check == "pass" || check == "skipped") ? 0 : 1;
}

}  // namespace
}  // namespace speedllm::benchmark

int main(int argc, char** argv) {
  return speedllm::benchmark::Main(argc, argv);
}
