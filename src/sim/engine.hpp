// SpeedLLM -- discrete-event simulation kernel.
//
// The accelerator's timing model is built on a classic event-driven
// engine: callbacks scheduled at absolute cycle times, executed in
// (time, insertion) order. Cycle counts are the simulated U280 kernel
// clock (see hw::U280Config::clock_mhz for the cycles<->seconds scale).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

namespace speedllm::sim {

/// Simulated time in kernel-clock cycles.
using Cycles = std::uint64_t;

/// Event-driven simulator. Deterministic: ties in time break by
/// scheduling order (FIFO), never by heap internals.
///
/// The FIFO tie-break is a global sequence across every client of the
/// engine, which is what makes *multi-consumer* schedules reproducible:
/// when N independent consumers (e.g. per-card serving shards) chain
/// events on one shared engine, same-cycle events interleave in exactly
/// the order they were scheduled, independent of consumer count or heap
/// layout. The engine is single-threaded: Run()/RunUntil() must only
/// be driven from one place; consumers inject work via
/// ScheduleAt/ScheduleNow from inside callbacks.
///
/// Clock semantics: Run() leaves now() at the time of the last executed
/// event. RunUntil(limit) always leaves now() == max(now(), limit),
/// whether the queue drained before `limit` or events remain beyond it --
/// the observed clock after "simulate up to t" never depends on what
/// happened to be queued.
class Engine {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time. Only advances inside Run()/RunUntil().
  Cycles now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now()).
  void ScheduleAt(Cycles t, Callback fn);

  /// Schedules `fn` `delay` cycles from now.
  void ScheduleAfter(Cycles delay, Callback fn) {
    ScheduleAt(now() + delay, std::move(fn));
  }

  /// Schedules `fn` at the current time, behind every event already
  /// queued for this cycle (FIFO) -- defers follow-up work until the
  /// in-flight same-cycle batch settles.
  void ScheduleNow(Callback fn) { ScheduleAt(now(), std::move(fn)); }

  /// Runs until the event queue drains. Returns the final time (the time
  /// of the last executed event).
  Cycles Run();

  /// Runs until the queue drains or simulated time would exceed `limit`.
  /// Always returns with now() == max(now(), limit): the clock advances
  /// to `limit` even when the queue drains early.
  Cycles RunUntil(Cycles limit);

  /// Events executed so far (for tests and perf sanity checks).
  std::uint64_t events_processed() const { return events_processed_; }

  /// True if no events are pending.
  bool Idle() const { return queue_.empty(); }

  /// Time of the earliest pending event, or nullopt when the queue is
  /// drained -- a peek for clients that interleave external work with
  /// the event queue.
  std::optional<Cycles> NextEventTime() const;

 private:
  struct Event {
    Cycles time;
    std::uint64_t seq;  // FIFO tie-break
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// Moves the top event out of the queue (the const_cast is confined
  /// here; the moved-from element is destroyed by the immediate pop).
  Event PopEvent();
  /// Executes one already-popped event.
  void RunEvent(Event ev);

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Cycles now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace speedllm::sim
