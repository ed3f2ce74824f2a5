// Unit tests for src/sim: event engine, stations, and trace overlap
// analysis.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/station.hpp"
#include "sim/trace.hpp"

namespace speedllm::sim {
namespace {

// ---------------- Engine ----------------

TEST(EngineTest, ExecutesInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.ScheduleAt(30, [&] { order.push_back(3); });
  eng.ScheduleAt(10, [&] { order.push_back(1); });
  eng.ScheduleAt(20, [&] { order.push_back(2); });
  EXPECT_EQ(eng.Run(), 30u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineTest, TiesBreakFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.ScheduleAt(100, [&order, i] { order.push_back(i); });
  }
  eng.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, NextEventTimePeeksEarliestPending) {
  Engine eng;
  EXPECT_FALSE(eng.NextEventTime().has_value());
  eng.ScheduleAt(40, [] {});
  eng.ScheduleAt(15, [] {});
  ASSERT_TRUE(eng.NextEventTime().has_value());
  EXPECT_EQ(*eng.NextEventTime(), 15u);
  eng.Run();
  EXPECT_FALSE(eng.NextEventTime().has_value());
}

TEST(EngineTest, CallbacksCanScheduleMore) {
  Engine eng;
  int fired = 0;
  eng.ScheduleAt(1, [&] {
    ++fired;
    eng.ScheduleAfter(5, [&] {
      ++fired;
      EXPECT_EQ(eng.now(), 6u);
    });
  });
  eng.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.events_processed(), 2u);
}

TEST(EngineTest, RunUntilStopsAtLimit) {
  Engine eng;
  int fired = 0;
  eng.ScheduleAt(5, [&] { ++fired; });
  eng.ScheduleAt(50, [&] { ++fired; });
  EXPECT_EQ(eng.RunUntil(10), 10u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 10u);
  EXPECT_FALSE(eng.Idle());
  eng.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(eng.Idle());
}

TEST(EngineTest, RunUntilAdvancesClockWhenQueueDrains) {
  // "Simulate up to t" must leave the clock at t whether or not events
  // happened to be queued: the observed time after RunUntil(limit) never
  // depends on queue contents (see the Engine class comment).
  Engine eng;
  EXPECT_EQ(eng.RunUntil(25), 25u);  // empty queue
  EXPECT_EQ(eng.now(), 25u);
  eng.ScheduleAt(30, [] {});
  EXPECT_EQ(eng.RunUntil(100), 100u);  // drains at 30, clock still -> 100
  EXPECT_EQ(eng.now(), 100u);
  // And scheduling may resume anywhere at or after the advanced clock.
  eng.ScheduleAt(100, [] {});
  EXPECT_EQ(eng.Run(), 100u);
}

TEST(EngineTest, NowAdvancesMonotonically) {
  Engine eng;
  Cycles last = 0;
  for (int i = 0; i < 100; ++i) {
    eng.ScheduleAt(static_cast<Cycles>(i * 3 % 97), [&] {
      EXPECT_GE(eng.now(), last);
      last = eng.now();
    });
  }
  eng.Run();
}

TEST(EngineTest, MultiConsumerInterleavingIsFifoDeterministic) {
  // N independent consumers chaining same-cycle events on one shared
  // engine (the cluster-serving shape) must interleave in scheduling
  // order, regardless of how many consumers there are.
  std::vector<int> order;
  Engine eng;
  for (int consumer = 0; consumer < 3; ++consumer) {
    eng.ScheduleAt(10, [&, consumer] {
      order.push_back(consumer);
      // Same-cycle follow-up work lands behind everything already queued
      // for this cycle.
      eng.ScheduleNow([&, consumer] { order.push_back(consumer + 100); });
    });
  }
  eng.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 100, 101, 102}));
  EXPECT_EQ(eng.now(), 10u);
}

// ---------------- Station ----------------

TEST(StationTest, SerializesJobs) {
  Station s("mpe");
  EXPECT_EQ(s.Acquire(0, 10), 0u);
  // Second job ready at 0 but station busy until 10.
  EXPECT_EQ(s.Acquire(0, 5), 10u);
  EXPECT_EQ(s.free_at(), 15u);
  EXPECT_EQ(s.busy_cycles(), 15u);
  EXPECT_EQ(s.jobs(), 2u);
}

TEST(StationTest, RespectsReadyTime) {
  Station s("dma");
  EXPECT_EQ(s.Acquire(100, 10), 100u);
  EXPECT_EQ(s.Acquire(50, 10), 110u);  // still queued behind first
  EXPECT_EQ(s.Acquire(500, 10), 500u);  // idle gap honoured
}

TEST(StationTest, ZeroDurationJobs) {
  Station s("x");
  EXPECT_EQ(s.Acquire(5, 0), 5u);
  EXPECT_EQ(s.busy_cycles(), 0u);
  EXPECT_EQ(s.free_at(), 5u);
}

TEST(StationTest, UtilizationAndReset) {
  Station s("x");
  s.Acquire(0, 25);
  EXPECT_DOUBLE_EQ(s.Utilization(100), 0.25);
  EXPECT_DOUBLE_EQ(s.Utilization(0), 0.0);
  s.Reset();
  EXPECT_EQ(s.busy_cycles(), 0u);
  EXPECT_EQ(s.free_at(), 0u);
  EXPECT_EQ(s.jobs(), 0u);
}

TEST(StationTest, EarliestStartDoesNotReserve) {
  Station s("x");
  s.Acquire(0, 10);
  EXPECT_EQ(s.EarliestStart(0), 10u);
  EXPECT_EQ(s.EarliestStart(20), 20u);
  EXPECT_EQ(s.free_at(), 10u);  // unchanged
}

// ---------------- TraceRecorder ----------------

TraceSpan MakeSpan(const std::string& station, Cycles start, Cycles end) {
  TraceSpan s;
  s.station = station;
  s.start = start;
  s.end = end;
  return s;
}

TEST(TraceTest, DisabledRecordsNothing) {
  TraceRecorder t;
  t.Record(MakeSpan("a", 0, 10));
  EXPECT_TRUE(t.spans().empty());
}

TEST(TraceTest, NoOverlapForSequentialSpans) {
  TraceRecorder t;
  t.set_enabled(true);
  t.Record(MakeSpan("a", 0, 10));
  t.Record(MakeSpan("b", 10, 20));
  t.Record(MakeSpan("a", 20, 30));
  EXPECT_EQ(t.OverlappedCycles(), 0u);
  EXPECT_EQ(t.Makespan(), 30u);
}

TEST(TraceTest, CountsPairwiseOverlap) {
  TraceRecorder t;
  t.set_enabled(true);
  t.Record(MakeSpan("a", 0, 10));
  t.Record(MakeSpan("b", 5, 15));  // overlaps [5,10)
  EXPECT_EQ(t.OverlappedCycles(), 5u);
}

TEST(TraceTest, TripleOverlapCountedOnce) {
  TraceRecorder t;
  t.set_enabled(true);
  t.Record(MakeSpan("a", 0, 10));
  t.Record(MakeSpan("b", 0, 10));
  t.Record(MakeSpan("c", 0, 10));
  // All three overlap for 10 cycles; overlapped time is 10, not 20.
  EXPECT_EQ(t.OverlappedCycles(), 10u);
}

TEST(TraceTest, ClearResets) {
  TraceRecorder t;
  t.set_enabled(true);
  t.Record(MakeSpan("a", 0, 10));
  t.Clear();
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(t.Makespan(), 0u);
}

}  // namespace
}  // namespace speedllm::sim
