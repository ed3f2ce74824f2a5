// SpeedLLM -- SLO attainment and goodput, derived from the telemetry
// event stream.
//
// Goodput (SLO-attaining tokens/s, per tier) is computed by replaying
// the per-request lifecycle events a RequestTraceRecorder collected --
// submit, first_token, finish, shed -- NOT from a parallel bookkeeping
// path inside the scheduler: the trace already carries every timestamp
// and count an SLO attainment check needs, so the report numbers are by
// construction consistent with what an external consumer of the exported
// trace would compute. api::Engine::Finish calls
// ComputeGoodput to fill ServingReport::tiers /
// goodput_tokens_per_second (all-zero when tracing is off), and a
// reconciliation test (tests/test_slo.cpp) locks the trace-derived
// numbers against an independent recomputation from the outcomes.
#pragma once

#include <array>
#include <vector>

#include "obs/telemetry.hpp"
#include "serving/request.hpp"

namespace speedllm::obs {

/// Everything ComputeGoodput derives from one run's event stream.
struct GoodputAccounting {
  /// Per-tier finished/shed/attained/goodput slices, by TierIndex.
  std::array<serving::TierReport, serving::kNumTiers> tiers{};
  /// Generated tokens of SLO-attaining requests across all tiers, over
  /// `makespan_seconds`.
  double goodput_tokens_per_second = 0.0;
};

/// Replays `events` (one run's lifecycle trace) against the per-tier
/// targets in `slo` and returns the goodput accounting. A request's tier
/// is read from its `submit` event's detail label, its TTFT from the
/// `submit` -> `first_token` gap, its TPOT from the `first_token` ->
/// `finish` span over the finish event's token count, and its terminal
/// state from the `finish` / `cancel` / `shed` event -- only requests
/// that finished normally ("length" or "stop") can attain. Token rates
/// divide by `makespan_seconds` (non-positive makespan yields zero
/// rates).
GoodputAccounting ComputeGoodput(
    const std::vector<RequestEvent>& events,
    const std::array<serving::TierSlo, serving::kNumTiers>& slo,
    double makespan_seconds);

}  // namespace speedllm::obs
