#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace speedllm::sim {

std::optional<Cycles> Engine::NextEventTime() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.top().time;
}

void Engine::ScheduleAt(Cycles t, Callback fn) {
  assert(t >= now_ && "cannot schedule events in the simulated past");
  queue_.push(Event{t, next_seq_++, std::move(fn)});
}

Engine::Event Engine::PopEvent() {
  // The callback may schedule more events; move out before popping so
  // the queue is consistent during execution. top() is const&, so the
  // move goes through a const_cast -- confined to this helper, and the
  // moved-from element is destroyed by the immediate pop().
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  return ev;
}

void Engine::RunEvent(Event ev) {
  now_ = ev.time;
  ++events_processed_;
  ev.fn();
}

Cycles Engine::Run() {
  while (!queue_.empty()) {
    RunEvent(PopEvent());
  }
  return now_;
}

Cycles Engine::RunUntil(Cycles limit) {
  while (!queue_.empty() && queue_.top().time <= limit) {
    RunEvent(PopEvent());
  }
  // Whether or not events remain, the observed clock advances to
  // `limit`: RunUntil models "simulate up to t", not "run what happens
  // to be queued" (see the class comment; locked by EngineTest).
  now_ = std::max(now_, limit);
  return now_;
}

}  // namespace speedllm::sim
