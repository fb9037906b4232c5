//===- tests/telemetry/flightrecorder_test.cpp -----------------------------===//
//
// The flight recorder (DESIGN.md §9): disabled no-op behavior, ring
// wraparound keeping the most recent events, multi-lane merge in global
// sequence order, stable JSONL rendering, and survival of concurrent
// writers and enable()/disable() cycles.
//
//===----------------------------------------------------------------------===//

#include "telemetry/FlightRecorder.h"

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

using namespace classfuzz;
namespace tel = classfuzz::telemetry;

namespace {

/// Disables the process-wide recorder on scope exit so tests cannot
/// leak an armed ring into each other.
struct RecorderGuard {
  RecorderGuard() { tel::flightRecorder().disable(); }
  ~RecorderGuard() { tel::flightRecorder().disable(); }
};

} // namespace

TEST(FlightRecorder, DisabledRecordIsANoOp) {
  RecorderGuard Guard;
  tel::FlightRecorder &FR = tel::flightRecorder();
  EXPECT_FALSE(FR.enabled());
  FR.record(tel::FlightKind::Iteration, 1, 2, 3); // Must not crash.
  EXPECT_TRUE(FR.snapshot().empty());
}

TEST(FlightRecorder, RecordsAndSnapshotsInSequenceOrder) {
  RecorderGuard Guard;
  tel::FlightRecorder &FR = tel::flightRecorder();
  FR.enable(64);
  FR.record(tel::FlightKind::Iteration, 0, 5, 1);
  FR.record(tel::FlightKind::Accepted, 0, 0, 0xABCD);
  FR.record(tel::FlightKind::DiffOutcome, 11110, 1, 7);
  auto Events = FR.snapshot();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].Kind, tel::FlightKind::Iteration);
  EXPECT_EQ(Events[1].Kind, tel::FlightKind::Accepted);
  EXPECT_EQ(Events[2].Kind, tel::FlightKind::DiffOutcome);
  EXPECT_EQ(Events[0].Seq, 0u);
  EXPECT_EQ(Events[2].Seq, 2u);
  EXPECT_EQ(Events[2].A, 11110u);
  EXPECT_EQ(Events[2].B, 1u);
}

TEST(FlightRecorder, RingWraparoundKeepsTheMostRecentEvents) {
  RecorderGuard Guard;
  tel::FlightRecorder &FR = tel::flightRecorder();
  FR.enable(16); // Power of two, minimum capacity.
  for (uint64_t I = 0; I != 100; ++I)
    FR.record(tel::FlightKind::Iteration, I);
  auto Events = FR.snapshot();
  ASSERT_EQ(Events.size(), 16u);
  // The survivors are exactly the last 16, still in order.
  for (size_t I = 0; I != Events.size(); ++I) {
    EXPECT_EQ(Events[I].A, 84 + I);
    EXPECT_EQ(Events[I].Seq, 84 + I);
  }
}

TEST(FlightRecorder, SnapshotLastNTrimsFromTheFront) {
  RecorderGuard Guard;
  tel::FlightRecorder &FR = tel::flightRecorder();
  FR.enable(64);
  for (uint64_t I = 0; I != 10; ++I)
    FR.record(tel::FlightKind::Iteration, I);
  auto Tail = FR.snapshot(3);
  ASSERT_EQ(Tail.size(), 3u);
  EXPECT_EQ(Tail[0].A, 7u);
  EXPECT_EQ(Tail[2].A, 9u);
  EXPECT_EQ(FR.snapshot(1000).size(), 10u); // LastN > size: everything.
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwoWithFloor) {
  RecorderGuard Guard;
  tel::FlightRecorder &FR = tel::flightRecorder();
  FR.enable(3); // Rounds up to the floor of 16.
  for (uint64_t I = 0; I != 40; ++I)
    FR.record(tel::FlightKind::Iteration, I);
  EXPECT_EQ(FR.snapshot().size(), 16u);
  FR.enable(100); // Rounds up to 128.
  for (uint64_t I = 0; I != 200; ++I)
    FR.record(tel::FlightKind::Iteration, I);
  EXPECT_EQ(FR.snapshot().size(), 128u);
}

TEST(FlightRecorder, EnableClearsPriorEventsAndResetsSequence) {
  RecorderGuard Guard;
  tel::FlightRecorder &FR = tel::flightRecorder();
  FR.enable(64);
  FR.record(tel::FlightKind::Iteration, 1);
  FR.enable(64); // Re-arm: generation bump, fresh rings.
  FR.record(tel::FlightKind::Accepted, 2);
  auto Events = FR.snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Kind, tel::FlightKind::Accepted);
  EXPECT_EQ(Events[0].Seq, 0u);
}

TEST(FlightRecorder, DisableDropsEventsAndStopsRecording) {
  RecorderGuard Guard;
  tel::FlightRecorder &FR = tel::flightRecorder();
  FR.enable(64);
  FR.record(tel::FlightKind::Iteration, 1);
  FR.disable();
  EXPECT_FALSE(FR.enabled());
  FR.record(tel::FlightKind::Iteration, 2);
  EXPECT_TRUE(FR.snapshot().empty());
}

TEST(FlightRecorder, MultiLaneMergeOrdersBySequence) {
  RecorderGuard Guard;
  tel::FlightRecorder &FR = tel::flightRecorder();
  FR.enable(1024);
  constexpr size_t Threads = 4, PerThread = 200;
  {
    ThreadPool Pool(Threads);
    std::vector<std::future<void>> Done;
    for (size_t T = 0; T != Threads; ++T)
      Done.push_back(Pool.submit([&FR, T] {
        for (uint64_t I = 0; I != PerThread; ++I)
          FR.record(tel::FlightKind::Iteration, I, T);
      }));
    for (auto &F : Done)
      F.get();
  }
  auto Events = FR.snapshot();
  ASSERT_EQ(Events.size(), Threads * PerThread);
  // Sequence numbers are a permutation of 0..N-1, strictly increasing
  // in the merged view, and each lane saw its own events in order.
  std::set<uint64_t> Seqs;
  std::vector<uint64_t> LastPerLane(1024, UINT64_MAX);
  for (size_t I = 0; I != Events.size(); ++I) {
    if (I > 0) {
      EXPECT_LT(Events[I - 1].Seq, Events[I].Seq);
    }
    Seqs.insert(Events[I].Seq);
    ASSERT_LT(Events[I].Lane, 1024u);
    uint64_t &Last = LastPerLane[Events[I].Lane];
    if (Last != UINT64_MAX) {
      EXPECT_LT(Last, Events[I].Seq);
    }
    Last = Events[I].Seq;
  }
  EXPECT_EQ(Seqs.size(), Threads * PerThread);
  EXPECT_EQ(*Seqs.rbegin(), Threads * PerThread - 1);
}

TEST(FlightRecorder, SnapshotIsSafeWhileWritersAreActive) {
  RecorderGuard Guard;
  tel::FlightRecorder &FR = tel::flightRecorder();
  FR.enable(32); // Tiny ring: heavy wraparound under the snapshots.
  constexpr size_t Threads = 4;
  std::atomic<bool> Stop{false};
  {
    ThreadPool Pool(Threads);
    std::vector<std::future<void>> Done;
    for (size_t T = 0; T != Threads; ++T)
      Done.push_back(Pool.submit([&FR, &Stop] {
        for (uint64_t I = 0; !Stop.load(std::memory_order_relaxed); ++I)
          FR.record(tel::FlightKind::Iteration, I);
      }));
    for (int I = 0; I != 200; ++I) {
      auto Events = FR.snapshot();
      // Only well-formed events survive: torn entries are dropped.
      for (const auto &Ev : Events)
        EXPECT_EQ(Ev.Kind, tel::FlightKind::Iteration);
    }
    Stop.store(true, std::memory_order_relaxed);
    for (auto &F : Done)
      F.get();
  }
}

TEST(FlightRecorder, RenderJsonlIsStableAndOmitsUnusedFields) {
  std::vector<tel::FlightEvent> Events;
  Events.push_back({0, 0, tel::FlightKind::Iteration, 7, 12, 3});
  Events.push_back({1, 2, tel::FlightKind::IncidentDumped, 4, 99, 0});
  EXPECT_EQ(tel::FlightRecorder::renderJsonl(Events),
            "{\"seq\":0,\"lane\":0,\"kind\":\"iteration\",\"iter\":7,"
            "\"mutator\":12,\"outcome\":3}\n"
            "{\"seq\":1,\"lane\":2,\"kind\":\"incident_dumped\","
            "\"incident\":4,\"class_hash\":99}\n");
  EXPECT_EQ(tel::FlightRecorder::renderJsonl({}), "");
}

TEST(FlightRecorder, KindNamesAndFieldTablesCoverEveryKind) {
  for (uint16_t K = 0; K <= static_cast<uint16_t>(
                               tel::FlightKind::IncidentDumped);
       ++K) {
    auto Kind = static_cast<tel::FlightKind>(K);
    EXPECT_STRNE(tel::flightKindName(Kind), "?");
    const char *const *Fields = tel::flightEventFieldNames(Kind);
    for (size_t I = 0; I != 3; ++I)
      ASSERT_NE(Fields[I], nullptr);
  }
}

TEST(FlightRecorder, RingOverflowKeepsEachLanesLastCapacityEvents) {
  RecorderGuard Guard;
  tel::FlightRecorder &FR = tel::flightRecorder();
  FR.enable(64);
  // std::thread (not the pool) guarantees each writer gets a fresh
  // lane: 4 lanes x 1000 events against 64 slots per lane.
  constexpr uint64_t Threads = 4, PerThread = 1000, Capacity = 64;
  std::vector<std::thread> Writers;
  for (uint64_t T = 0; T != Threads; ++T)
    Writers.emplace_back([&FR, T] {
      for (uint64_t I = 0; I != PerThread; ++I)
        FR.record(tel::FlightKind::Iteration, T * 10000 + I, T);
    });
  for (auto &W : Writers)
    W.join();

  auto Events = FR.snapshot();
  // Overflow accounting: exactly capacity-per-lane survivors, no
  // duplicates, no torn entries.
  ASSERT_EQ(Events.size(), Threads * Capacity);
  std::set<uint64_t> Seqs;
  std::map<uint64_t, std::vector<uint64_t>> PerLane;
  for (size_t I = 0; I != Events.size(); ++I) {
    if (I > 0) {
      EXPECT_LT(Events[I - 1].Seq, Events[I].Seq);
    }
    Seqs.insert(Events[I].Seq);
    PerLane[Events[I].B].push_back(Events[I].A);
  }
  EXPECT_EQ(Seqs.size(), Threads * Capacity);
  // Every sequence number is from the real 0..3999 allocation; the
  // globally newest event always survives.
  EXPECT_LT(*Seqs.rbegin(), Threads * PerThread);
  EXPECT_EQ(*Seqs.rbegin(), Threads * PerThread - 1);
  ASSERT_EQ(PerLane.size(), Threads);
  for (auto &[Writer, As] : PerLane) {
    // Each lane keeps exactly its own last `Capacity` writes, in order.
    ASSERT_EQ(As.size(), Capacity) << "writer " << Writer;
    for (uint64_t I = 0; I != Capacity; ++I)
      EXPECT_EQ(As[I], Writer * 10000 + (PerThread - Capacity) + I);
  }
}
