#include "obs/export.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

namespace speedllm::obs {

namespace {

/// Minimal JSON string escaping (details are short identifiers, but be
/// safe about quotes/backslashes/control bytes).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Deterministic shortest-ish decimal rendering; %.12g keeps sub-ns
/// precision at microsecond magnitudes without trailing digit noise.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// One emitted JSON trace event; the Emitter handles commas.
class Emitter {
 public:
  explicit Emitter(std::ostringstream& out) : out_(out) { out_ << "["; }
  void Item(const std::string& json) {
    if (!first_) out_ << ",\n";
    first_ = false;
    out_ << json;
  }
  void Close() { out_ << "]"; }

 private:
  std::ostringstream& out_;
  bool first_ = true;
};

std::string MetaThreadName(int pid, int tid, const std::string& name) {
  std::ostringstream o;
  o << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
    << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << JsonEscape(name)
    << "\"}}";
  return o.str();
}

std::string MetaProcessName(int pid, const std::string& name) {
  std::ostringstream o;
  o << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
    << ",\"args\":{\"name\":\"" << JsonEscape(name) << "\"}}";
  return o.str();
}

constexpr int kServingPid = 1;
constexpr int kKernelPid = 2;
constexpr int kRouterTid = 0;

int SchedTid(std::int32_t card) { return 2 * card + 1; }
int DmaTid(std::int32_t card) { return 2 * card + 2; }

double ToMicros(double seconds) { return seconds * 1e6; }

/// Common args tail: stream/tokens/bytes/detail, skipping defaults.
std::string EventArgs(const RequestEvent& e) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  auto field = [&](const char* key, const std::string& value) {
    if (!first) o << ",";
    first = false;
    o << "\"" << key << "\":" << value;
  };
  if (e.stream >= 0) field("stream", std::to_string(e.stream));
  if (e.tick >= 0) field("tick", std::to_string(e.tick));
  if (e.tokens != 0) field("tokens", std::to_string(e.tokens));
  if (e.bytes != 0) field("bytes", std::to_string(e.bytes));
  if (!e.detail.empty()) {
    std::string quoted = "\"";
    quoted += JsonEscape(e.detail);
    quoted += '"';
    field("detail", quoted);
  }
  o << "}";
  return o.str();
}

std::string Slice(const std::string& name, int pid, int tid, double ts_us,
                  double dur_us, const std::string& args) {
  std::ostringstream o;
  o << "{\"name\":\"" << JsonEscape(name) << "\",\"ph\":\"X\",\"pid\":" << pid
    << ",\"tid\":" << tid << ",\"ts\":" << Num(ts_us)
    << ",\"dur\":" << Num(dur_us) << ",\"args\":" << args << "}";
  return o.str();
}

std::string Instant(const std::string& name, int pid, int tid, double ts_us,
                    const std::string& args) {
  std::ostringstream o;
  o << "{\"name\":\"" << JsonEscape(name) << "\",\"ph\":\"i\",\"s\":\"t\""
    << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"ts\":" << Num(ts_us)
    << ",\"args\":" << args << "}";
  return o.str();
}

/// Legacy async event (b/e/n) in a request's lane. Perfetto groups
/// these by (pid, category, id), giving one sub-track per request.
std::string Async(char ph, const std::string& name, std::int64_t id,
                  double ts_us, const std::string& args) {
  std::ostringstream o;
  o << "{\"name\":\"" << JsonEscape(name) << "\",\"ph\":\"" << ph
    << "\",\"cat\":\"request\",\"id\":" << id << ",\"pid\":" << kServingPid
    << ",\"tid\":" << kRouterTid << ",\"ts\":" << Num(ts_us)
    << ",\"args\":" << args << "}";
  return o.str();
}

/// Flow arrow point (s/t/f), bound into the enclosing tick slice.
std::string Flow(char ph, std::int64_t stream, int tid, double ts_us) {
  std::ostringstream o;
  o << "{\"name\":\"req" << stream << "\",\"ph\":\"" << ph
    << "\",\"cat\":\"request-flow\",\"id\":" << stream
    << ",\"pid\":" << kServingPid << ",\"tid\":" << tid
    << ",\"ts\":" << Num(ts_us) << "}";
  if (ph == 'f') {
    std::string s = o.str();
    s.insert(s.size() - 1, ",\"bp\":\"e\"");
    return s;
  }
  return o.str();
}

/// Per-request lifecycle state accumulated while walking the events.
struct StreamState {
  bool has_submit = false;
  double submit_s = 0.0;
  bool has_admission = false;
  double admission_s = 0.0;
  bool has_first_token = false;
  double first_token_s = 0.0;
  bool has_finish = false;  // kFinish or kCancel
  bool cancelled = false;
  double finish_s = 0.0;
  std::int64_t finish_tokens = 0;
  std::string finish_detail;
  /// Lifecycle instants replayed into the async lane (kind name, time,
  /// pre-rendered args).
  std::vector<std::pair<std::string, std::pair<double, std::string>>> marks;
  /// Tick work spans (tid, start_us, end_us) for flow arrows.
  std::vector<std::pair<int, std::pair<double, double>>> work;
};

}  // namespace

std::string ToChromeTraceJson(const RequestTraceRecorder& trace,
                              const sim::TraceRecorder* kernel,
                              double clock_mhz) {
  const std::vector<RequestEvent>& events = trace.events();

  std::int32_t max_card = -1;
  std::int64_t max_stream = -1;
  for (const RequestEvent& e : events) {
    if (e.card > max_card) max_card = e.card;
    if (e.stream > max_stream) max_stream = e.stream;
  }

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":";
  Emitter emit(out);

  emit.Item(MetaProcessName(kServingPid, "serving"));
  emit.Item(MetaThreadName(kServingPid, kRouterTid, "router"));
  for (std::int32_t c = 0; c <= max_card; ++c) {
    emit.Item(MetaThreadName(kServingPid, SchedTid(c),
                             "card" + std::to_string(c) + " sched"));
    emit.Item(MetaThreadName(kServingPid, DmaTid(c),
                             "card" + std::to_string(c) + " dma"));
  }

  std::map<std::int64_t, StreamState> streams;
  auto mark = [&](const RequestEvent& e, double t_s) {
    streams[e.stream].marks.push_back(
        {std::string(RequestEventKindName(e.kind)),
         {ToMicros(t_s), EventArgs(e)}});
  };

  for (const RequestEvent& e : events) {
    const double ts = ToMicros(e.start_seconds);
    const double dur = ToMicros(e.end_seconds - e.start_seconds);
    const std::string name(RequestEventKindName(e.kind));
    const int tid = e.card >= 0 ? SchedTid(e.card) : kRouterTid;
    switch (e.kind) {
      case RequestEventKind::kSubmit: {
        emit.Item(Instant(name, kServingPid, kRouterTid, ts, EventArgs(e)));
        StreamState& st = streams[e.stream];
        if (!st.has_submit) {
          st.has_submit = true;
          st.submit_s = e.start_seconds;
        }
        mark(e, e.start_seconds);
        break;
      }
      case RequestEventKind::kPlace:
      case RequestEventKind::kMigrate:
        emit.Item(Instant(name, kServingPid, kRouterTid, ts, EventArgs(e)));
        if (e.kind == RequestEventKind::kMigrate) mark(e, e.start_seconds);
        break;
      case RequestEventKind::kQueueWait: {
        StreamState& st = streams[e.stream];
        if (!st.has_admission) {
          st.has_admission = true;
          st.admission_s = e.end_seconds;
        }
        break;
      }
      case RequestEventKind::kTick:
        emit.Item(Slice(name, kServingPid, tid, ts, dur, EventArgs(e)));
        break;
      case RequestEventKind::kPrefillChunk:
      case RequestEventKind::kDecodeToken:
        streams[e.stream].work.push_back(
            {tid, {ts, ToMicros(e.end_seconds)}});
        break;
      case RequestEventKind::kFirstToken: {
        emit.Item(Instant(name, kServingPid, tid, ts, EventArgs(e)));
        StreamState& st = streams[e.stream];
        if (!st.has_first_token) {
          st.has_first_token = true;
          st.first_token_s = e.start_seconds;
        }
        mark(e, e.start_seconds);
        break;
      }
      case RequestEventKind::kPreempt:
      case RequestEventKind::kCacheHit:
      case RequestEventKind::kCowCopy:
        emit.Item(Instant(name, kServingPid, tid, ts, EventArgs(e)));
        mark(e, e.start_seconds);
        break;
      case RequestEventKind::kDmaTransfer:
        emit.Item(Slice(e.detail.empty() ? name : e.detail, kServingPid,
                        e.card >= 0 ? DmaTid(e.card) : kRouterTid, ts, dur,
                        EventArgs(e)));
        break;
      case RequestEventKind::kKvTransfer:
        // One slice per endpoint (detail "send" on the source card's DMA
        // lane, "recv" on the destination's), sharing one time window so
        // the pairing is checkable on a single timebase.
        emit.Item(Slice(name, kServingPid,
                        e.card >= 0 ? DmaTid(e.card) : kRouterTid, ts, dur,
                        EventArgs(e)));
        break;
      case RequestEventKind::kRemoteHit:
      case RequestEventKind::kDraftPropose:
      case RequestEventKind::kVerifyAccept:
        emit.Item(Instant(name, kServingPid, tid, ts, EventArgs(e)));
        mark(e, e.start_seconds);
        break;
      case RequestEventKind::kCancel:
      case RequestEventKind::kShed:
      case RequestEventKind::kFinish: {
        emit.Item(Instant(name, kServingPid, tid, ts, EventArgs(e)));
        StreamState& st = streams[e.stream];
        if (!st.has_finish) {
          st.has_finish = true;
          st.cancelled = e.kind != RequestEventKind::kFinish;
          st.finish_s = e.start_seconds;
          st.finish_tokens = e.tokens;
          st.finish_detail = e.detail;
        }
        mark(e, e.start_seconds);
        break;
      }
    }
  }

  // Per-request async lanes: derived queue/prefill/decode phases plus
  // the lifecycle instants, one lane per request id.
  for (const auto& [stream, st] : streams) {
    auto phase = [&](const char* name, bool ok, double b_s, double e_s) {
      if (!ok || e_s < b_s) return;
      emit.Item(Async('b', name, stream, ToMicros(b_s), "{}"));
      emit.Item(Async('e', name, stream, ToMicros(e_s), "{}"));
    };
    phase("queue", st.has_submit && st.has_admission, st.submit_s,
          st.admission_s);
    phase("prefill", st.has_admission && st.has_first_token, st.admission_s,
          st.first_token_s);
    phase("decode", st.has_first_token && st.has_finish, st.first_token_s,
          st.finish_s);
    for (const auto& [name, when] : st.marks) {
      emit.Item(Async('n', name, stream, when.first, when.second));
    }
  }

  // Flow arrows stitching each request's tick-work spans together; only
  // meaningful with at least two participating ticks.
  for (const auto& [stream, st] : streams) {
    if (st.work.size() < 2) continue;
    for (std::size_t i = 0; i < st.work.size(); ++i) {
      const char ph = i == 0 ? 's' : (i + 1 == st.work.size() ? 'f' : 't');
      const auto& [tid, span] = st.work[i];
      emit.Item(Flow(ph, stream, tid, (span.first + span.second) / 2.0));
    }
  }

  // Kernel spans on the same timebase: one simulated second is 1e6 us,
  // one cycle is 1/clock_mhz us.
  if (kernel != nullptr && !kernel->spans().empty()) {
    emit.Item(MetaProcessName(kKernelPid, "kernel"));
    std::map<std::string, int> tids;
    for (const sim::TraceSpan& span : kernel->spans()) {
      tids.emplace(span.station, static_cast<int>(tids.size()) + 1);
    }
    for (const auto& [station, tid] : tids) {
      emit.Item(MetaThreadName(kKernelPid, tid, station));
    }
    const double us_per_cycle = 1.0 / clock_mhz;
    for (const sim::TraceSpan& span : kernel->spans()) {
      std::ostringstream args;
      args << "{\"instr\":" << span.instr_id << ",\"bytes\":" << span.bytes
           << ",\"ops\":" << span.ops << "}";
      emit.Item(Slice(span.label, kKernelPid, tids[span.station],
                      static_cast<double>(span.start) * us_per_cycle,
                      static_cast<double>(span.end - span.start) *
                          us_per_cycle,
                      args.str()));
    }
  }

  emit.Close();
  out << "}";
  return out.str();
}

namespace {

std::string LabelsJson(const MetricSeries& s) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [k, v] : s.labels) {
    if (!first) o << ",";
    first = false;
    o << "\"" << JsonEscape(k) << "\":\"" << JsonEscape(v) << "\"";
  }
  o << "}";
  return o.str();
}

}  // namespace

std::string ToMetricsJson(const MetricsRegistry& registry) {
  std::ostringstream out;
  out << "{\"schema_version\":1,\"series\":[";
  bool first = true;
  for (MetricsRegistry::MetricId id : registry.scalar_ids()) {
    const MetricSeries& s = registry.series()[id];
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << JsonEscape(s.name) << "\",\"type\":\""
        << MetricTypeName(s.type) << "\",\"unit\":\"" << JsonEscape(s.unit)
        << "\",\"help\":\"" << JsonEscape(s.help)
        << "\",\"labels\":" << LabelsJson(s) << "}";
  }
  out << "],\"samples\":[";
  first = true;
  for (const MetricsSample& sample : registry.samples()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"t_seconds\":" << Num(sample.t_seconds) << ",\"values\":[";
    for (std::size_t i = 0; i < sample.values.size(); ++i) {
      if (i) out << ",";
      out << Num(sample.values[i]);
    }
    out << "]}";
  }
  out << "],\"histograms\":[";
  first = true;
  for (const MetricSeries& s : registry.series()) {
    if (s.type != MetricType::kHistogram) continue;
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << JsonEscape(s.name) << "\",\"unit\":\""
        << JsonEscape(s.unit) << "\",\"help\":\"" << JsonEscape(s.help)
        << "\",\"labels\":" << LabelsJson(s) << ",\"buckets\":[";
    for (std::size_t b = 0; b < s.bucket_counts.size(); ++b) {
      if (b) out << ",";
      out << "{\"le\":";
      if (b < s.bucket_bounds.size()) {
        out << Num(s.bucket_bounds[b]);
      } else {
        out << "\"+Inf\"";
      }
      out << ",\"count\":" << s.bucket_counts[b] << "}";
    }
    out << "],\"sum\":" << Num(s.sum) << ",\"count\":" << s.observations
        << "}";
  }
  out << "]}";
  return out.str();
}

std::string ToPrometheusText(const MetricsRegistry& registry) {
  // Prometheus exposition requires all samples of one metric name to be
  // grouped under a single HELP/TYPE header; per-card series share a
  // name, so group by first-seen name.
  std::vector<std::string> order;
  std::map<std::string, std::vector<const MetricSeries*>> by_name;
  for (const MetricSeries& s : registry.series()) {
    auto [it, inserted] = by_name.try_emplace(s.name);
    if (inserted) order.push_back(s.name);
    it->second.push_back(&s);
  }

  auto labels_text = [](const MetricSeries& s,
                        const std::string& extra = "") -> std::string {
    std::string out;
    for (const auto& [k, v] : s.labels) {
      if (!out.empty()) out += ",";
      out += k + "=\"" + v + "\"";
    }
    if (!extra.empty()) {
      if (!out.empty()) out += ",";
      out += extra;
    }
    return out.empty() ? "" : "{" + out + "}";
  };

  std::ostringstream out;
  for (const std::string& name : order) {
    const std::vector<const MetricSeries*>& group = by_name[name];
    out << "# HELP " << name << " " << group.front()->help << "\n";
    out << "# TYPE " << name << " " << MetricTypeName(group.front()->type)
        << "\n";
    for (const MetricSeries* s : group) {
      if (s->type == MetricType::kHistogram) {
        std::int64_t cumulative = 0;
        for (std::size_t b = 0; b < s->bucket_counts.size(); ++b) {
          cumulative += s->bucket_counts[b];
          const std::string le =
              b < s->bucket_bounds.size() ? Num(s->bucket_bounds[b]) : "+Inf";
          out << name << "_bucket"
              << labels_text(*s, "le=\"" + le + "\"") << " " << cumulative
              << "\n";
        }
        out << name << "_sum" << labels_text(*s) << " " << Num(s->sum) << "\n";
        out << name << "_count" << labels_text(*s) << " " << s->observations
            << "\n";
      } else {
        out << name << labels_text(*s) << " " << Num(s->value) << "\n";
      }
    }
  }
  return out.str();
}

namespace {

Status WriteFile(const std::string& contents, const std::string& path) {
  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "wb"));
  if (!f) return NotFound("cannot open for writing: " + path);
  if (std::fwrite(contents.data(), 1, contents.size(), f.get()) !=
      contents.size()) {
    return Internal("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace

Status WriteChromeTrace(const RequestTraceRecorder& trace,
                        const std::string& path,
                        const sim::TraceRecorder* kernel, double clock_mhz) {
  return WriteFile(ToChromeTraceJson(trace, kernel, clock_mhz), path);
}

Status WriteMetricsJson(const MetricsRegistry& registry,
                        const std::string& path) {
  return WriteFile(ToMetricsJson(registry), path);
}

Status WritePrometheusText(const MetricsRegistry& registry,
                           const std::string& path) {
  return WriteFile(ToPrometheusText(registry), path);
}

}  // namespace speedllm::obs
