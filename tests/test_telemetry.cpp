// cordon::telemetry — counters/gauges/histograms merging across worker
// slots, snapshot deltas, the trace ring (wraparound, JSON shape,
// disabled no-op), RoundSpan accounting, ExternalWorkerScope slot
// routing, and the service's Prometheus surface.
//
// Ships its own main(): CORDON_TRACE_EVENTS must be in the environment
// before the first trace-ring access (the capacity is latched once),
// and CORDON_TRACE must NOT be set (it would arm tracing globally and
// register an atexit flush the tests don't want).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dp_stats.hpp"
#include "src/core/telemetry.hpp"
#include "src/core/trace.hpp"
#include "src/engine/registry.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/service/service.hpp"

namespace telemetry = cordon::telemetry;
namespace parallel = cordon::parallel;
namespace core = cordon::core;
namespace engine = cordon::engine;
namespace service = cordon::service;

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;

namespace {

/// Number of "X" events in a trace JSON string (crude but sufficient:
/// the writer never emits the substring elsewhere).
std::size_t count_phase(const std::string& json, const char* phase) {
  std::string needle = std::string("\"ph\":\"") + phase + "\"";
  std::size_t n = 0;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size()))
    ++n;
  return n;
}

std::string dump_trace() {
  std::ostringstream os;
  telemetry::trace_write(os);
  return os.str();
}

}  // namespace

TEST(Telemetry, CountersMergeAcrossWorkers) {
  auto base = telemetry::snapshot();
  constexpr std::size_t kN = 4096;
  // Each iteration counts once; iterations land on whichever worker
  // slot steals them, so the total exercises the cross-slot fold.
  parallel::parallel_for(
      0, kN, [](std::size_t) { telemetry::count(Counter::kEngineSolves); }, 1);
  auto delta = telemetry::snapshot().delta_since(base);
  EXPECT_EQ(delta.counter(Counter::kEngineSolves), kN);
}

TEST(Telemetry, CounterSupportsBulkIncrements) {
  auto base = telemetry::snapshot();
  telemetry::count(Counter::kServiceCoalesced, 41);
  telemetry::count(Counter::kServiceCoalesced);
  auto delta = telemetry::snapshot().delta_since(base);
  EXPECT_EQ(delta.counter(Counter::kServiceCoalesced), 42u);
}

TEST(Telemetry, GaugeDeltasCancelAcrossThreads) {
  std::int64_t level = telemetry::snapshot().gauge(Gauge::kServiceQueueDepth);
  telemetry::gauge_add(Gauge::kServiceQueueDepth, +7);
  // The decrement lands on a different thread (hence a different slot);
  // only the summed level is meaningful, and it must come back exact.
  std::thread t([] { telemetry::gauge_add(Gauge::kServiceQueueDepth, -7); });
  t.join();
  EXPECT_EQ(telemetry::snapshot().gauge(Gauge::kServiceQueueDepth), level);
}

TEST(Telemetry, HistogramBucketsByBitWidth) {
  auto base = telemetry::snapshot();
  telemetry::observe(Histogram::kServiceSubmitNs, 0);     // bucket 0
  telemetry::observe(Histogram::kServiceSubmitNs, 1);     // bucket 1
  telemetry::observe(Histogram::kServiceSubmitNs, 7);     // bucket 3
  telemetry::observe(Histogram::kServiceSubmitNs, 8);     // bucket 4
  telemetry::observe(Histogram::kServiceSubmitNs, 1024);  // bucket 11
  auto delta = telemetry::snapshot().delta_since(base);
  const auto& h = delta.histogram(Histogram::kServiceSubmitNs);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_EQ(h.buckets[4], 1u);
  EXPECT_EQ(h.buckets[11], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum, 0u + 1 + 7 + 8 + 1024);
}

TEST(Telemetry, HistogramClampsOversizedSamples) {
  auto base = telemetry::snapshot();
  telemetry::observe(Histogram::kServiceBatchSolveNs, ~std::uint64_t{0});
  auto delta = telemetry::snapshot().delta_since(base);
  const auto& h = delta.histogram(Histogram::kServiceBatchSolveNs);
  EXPECT_EQ(h.buckets[telemetry::kHistogramBuckets - 1], 1u);
}

TEST(Telemetry, HistogramMergesAcrossWorkers) {
  auto base = telemetry::snapshot();
  constexpr std::size_t kN = 512;
  parallel::parallel_for(
      0, kN,
      [](std::size_t i) {
        telemetry::observe(Histogram::kServiceQueueWaitNs, i % 16);
      },
      1);
  auto delta = telemetry::snapshot().delta_since(base);
  EXPECT_EQ(delta.histogram(Histogram::kServiceQueueWaitNs).count(), kN);
}

TEST(Telemetry, DeltaSubtractsCountersButKeepsGaugeLevels) {
  telemetry::gauge_add(Gauge::kSchedDequeJobs, +3);
  auto base = telemetry::snapshot();
  telemetry::count(Counter::kServiceBatches, 5);
  auto delta = telemetry::snapshot().delta_since(base);
  EXPECT_EQ(delta.counter(Counter::kServiceBatches), 5u);
  // Gauges are levels, not rates: delta carries the current level.
  EXPECT_EQ(delta.gauge(Gauge::kSchedDequeJobs),
            telemetry::snapshot().gauge(Gauge::kSchedDequeJobs));
  telemetry::gauge_add(Gauge::kSchedDequeJobs, -3);
}

TEST(Telemetry, ExternalWorkerScopeRoutesToWorkerSlot) {
  // An outsider thread writes to the shared overflow slot; once it
  // adopts a worker slot its writes go to that slot instead.  Observed
  // through slot_index(), the same routing count()/observe() use.
  std::size_t outside = 0, adopted = 0, after = 0;
  std::thread t([&] {
    outside = telemetry::detail::slot_index();
    {
      parallel::ExternalWorkerScope scope;
      adopted = telemetry::detail::slot_index();
    }
    after = telemetry::detail::slot_index();
  });
  t.join();
  EXPECT_EQ(outside, parallel::worker_slots());
  EXPECT_LT(adopted, parallel::worker_slots());
  EXPECT_GE(adopted, parallel::num_workers());
  EXPECT_EQ(after, parallel::worker_slots());
}

TEST(Trace, DisabledRecordingIsANoOp) {
  telemetry::set_trace_enabled(false);
  telemetry::trace_reset();
  {
    telemetry::TraceSpan span("should_not_appear", "test");
    EXPECT_FALSE(span.armed());
  }
  telemetry::trace_instant("nor_this", "test");
  std::string json = dump_trace();
  EXPECT_EQ(count_phase(json, "X"), 0u);
  EXPECT_EQ(count_phase(json, "i"), 0u);
  EXPECT_EQ(json.find("should_not_appear"), std::string::npos);
}

TEST(Trace, SpansAndInstantsRoundTripThroughJson) {
  telemetry::set_trace_enabled(true);
  telemetry::trace_reset();
  {
    telemetry::TraceSpan span("outer_span", "test");
    span.arg("alpha", 7).arg("beta", 9);
    telemetry::TraceSpan inner("inner_span", "test");
  }
  telemetry::trace_instant("tick", "test");
  telemetry::set_trace_enabled(false);
  std::string json = dump_trace();

  // Shape: one top-level traceEvents array, thread_name metadata rows
  // for every slot, and our three events with args attached.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_EQ(count_phase(json, "M"), parallel::worker_slots() + 1);
  EXPECT_EQ(count_phase(json, "X"), 2u);
  EXPECT_EQ(count_phase(json, "i"), 1u);
  EXPECT_NE(json.find("\"name\":\"outer_span\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"alpha\":7,\"beta\":9}"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness proxy (names and
  // categories are static identifiers, so no string ever contains
  // brace characters).
  long braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Trace, RingWrapsKeepingMostRecentEvents) {
  // main() pinned CORDON_TRACE_EVENTS=64 before the rings were built.
  constexpr std::size_t kRing = 64;
  telemetry::set_trace_enabled(true);
  telemetry::trace_reset();
  for (std::size_t i = 0; i < kRing * 3; ++i)
    telemetry::trace_instant(i < kRing * 2 ? "old_event" : "new_event",
                             "test");
  telemetry::set_trace_enabled(false);
  std::string json = dump_trace();
  // Exactly one ring's worth survives, and it is the newest third.
  EXPECT_EQ(count_phase(json, "i"), kRing);
  EXPECT_NE(json.find("new_event"), std::string::npos);
  EXPECT_EQ(json.find("old_event"), std::string::npos);
}

TEST(Trace, RoundSpanAccountsStatsDeltas) {
  core::DpStats stats;
  stats.states = 100;
  stats.relaxations = 1000;
  auto base = telemetry::snapshot();
  telemetry::set_trace_enabled(true);
  telemetry::trace_reset();
  {
    telemetry::RoundSpan span("test.round", stats);
    stats.states += 11;
    stats.relaxations += 222;
  }
  telemetry::set_trace_enabled(false);
  auto delta = telemetry::snapshot().delta_since(base);
  EXPECT_EQ(delta.counter(Counter::kSolverRounds), 1u);
  EXPECT_EQ(delta.counter(Counter::kSolverStates), 11u);
  EXPECT_EQ(delta.counter(Counter::kSolverRelaxations), 222u);
  EXPECT_EQ(delta.histogram(Histogram::kSolverRoundNs).count(), 1u);
  std::string json = dump_trace();
  EXPECT_NE(json.find("\"name\":\"test.round\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"states\":11,\"relaxations\":222}"),
            std::string::npos);
}

TEST(Trace, RoundSpanReadsAtomicStatsViaSnapshot) {
  core::AtomicDpStats stats;
  auto base = telemetry::snapshot();
  {
    telemetry::RoundSpan span("test.round", stats);
    stats.add_states(5);
    stats.add_relaxations(50);
  }
  auto delta = telemetry::snapshot().delta_since(base);
  EXPECT_EQ(delta.counter(Counter::kSolverRounds), 1u);
  EXPECT_EQ(delta.counter(Counter::kSolverStates), 5u);
  EXPECT_EQ(delta.counter(Counter::kSolverRelaxations), 50u);
  // Tracing was off: no span, no latency sample.
  EXPECT_EQ(delta.histogram(Histogram::kSolverRoundNs).count(), 0u);
}

// The shard contract: pool workers (through parallel_for) and an
// adopted external thread add to one stats object at the same time, and
// snapshot() after the joins is the exact sum.  Every adder must hold a
// live worker identity — the test thread included, hence its own scope
// (a no-op when it already is worker 0).
TEST(AtomicDpStats, ConcurrentPoolAndAdoptedAddsSumExactly) {
  parallel::ExternalWorkerScope self;
  ASSERT_TRUE(parallel::is_worker_thread());
  core::AtomicDpStats stats;
  constexpr std::size_t kPoolAdds = 1 << 17;
  constexpr std::size_t kAdopterAdds = 1 << 16;
  constexpr std::size_t kRounds = 7;
  std::thread adopter([&] {
    parallel::ExternalWorkerScope scope;
    EXPECT_TRUE(scope.adopted());
    // The adopter's forks are stealable, so pool workers add on its
    // behalf too.
    parallel::parallel_for(0, kAdopterAdds, [&](std::size_t) {
      stats.add_states(1);
      stats.add_relaxations(3);
    });
    for (std::size_t r = 0; r < kRounds; ++r) stats.add_round();
  });
  parallel::parallel_for(0, kPoolAdds, [&](std::size_t) {
    stats.add_states(1);
    stats.add_relaxations(2);
  });
  for (std::size_t r = 0; r < kRounds; ++r) stats.add_round();
  adopter.join();
  core::DpStats got = stats.snapshot();
  EXPECT_EQ(got.states, kPoolAdds + kAdopterAdds);
  EXPECT_EQ(got.relaxations, 2 * kPoolAdds + 3 * kAdopterAdds);
  EXPECT_EQ(got.rounds, 2 * kRounds);
}

TEST(Prometheus, WriterEmitsCumulativeBucketsAndTotals) {
  telemetry::Snapshot snap;
  snap.counters[static_cast<std::size_t>(Counter::kSchedSteals)] = 17;
  snap.gauges[static_cast<std::size_t>(Gauge::kServiceQueueDepth)] = -2;
  auto& h = snap.histograms[static_cast<std::size_t>(
      Histogram::kServiceSubmitNs)];
  h.buckets[1] = 3;  // 3 samples in [1, 2) ns
  h.buckets[4] = 1;  // 1 sample in [8, 16) ns
  h.sum = 3 * 1 + 12;
  std::ostringstream os;
  telemetry::write_prometheus(os, snap);
  std::string text = os.str();

  EXPECT_NE(text.find("# TYPE cordon_sched_steals_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("cordon_sched_steals_total 17"), std::string::npos);
  EXPECT_NE(text.find("cordon_service_queue_depth -2"), std::string::npos);
  // Buckets are cumulative and end at the last non-empty one, then +Inf.
  EXPECT_NE(text.find("cordon_service_submit_latency_seconds_bucket"
                      "{le=\"2e-09\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("cordon_service_submit_latency_seconds_bucket"
                      "{le=\"1.6e-08\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("cordon_service_submit_latency_seconds_bucket"
                      "{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("cordon_service_submit_latency_seconds_count 4"),
            std::string::npos);
}

TEST(Service, MetricsTextExposesCacheAndLatency) {
  const auto& reg = engine::builtin_registry();
  const engine::Solver& lis = reg.at("lis");
  {
    service::CordonService svc({.max_batch = 4});
    auto inst = lis.generate({.n = 200, .k = 4, .seed = 9});
    svc.submit(inst).get();
    svc.submit(inst).get();  // same canonical instance: a cache hit
    std::string text = svc.metrics_text();

    EXPECT_NE(text.find("cordon_service_submitted_total 2"),
              std::string::npos);
    EXPECT_NE(text.find("cordon_service_cache_hits_total 1"),
              std::string::npos);
    EXPECT_NE(text.find("cordon_service_cache_hit_rate"), std::string::npos);
    EXPECT_NE(text.find("cordon_service_submit_latency_seconds_bucket"),
              std::string::npos);
    EXPECT_NE(text.find("cordon_solver_rounds_total"), std::string::npos);
    // Queue wait stats come from QueueStats::to_json_fields — the same
    // fields the stream operator prints.
    EXPECT_NE(text.find("cordon_service_queue_enqueued_total"),
              std::string::npos);
    svc.shutdown();
  }
}

int main(int argc, char** argv) {
  // Pin a tiny ring so the wraparound test is cheap, and make sure a
  // stray CORDON_TRACE in the environment can't arm tracing or register
  // an atexit flush.  Must happen before any trace-ring access.
  ::setenv("CORDON_TRACE_EVENTS", "64", 1);
  ::unsetenv("CORDON_TRACE");
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
