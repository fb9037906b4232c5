//===- tests/telemetry/telemetry_test.cpp ----------------------------------===//
//
// The observability layer (DESIGN.md §8): metric correctness under
// concurrent writers, snapshot-JSON schema stability, the structured
// event stream, and -- the load-bearing property -- that a campaign's
// committed trajectory is bit-identical with telemetry on or off.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "fuzzing/Campaign.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <vector>

using namespace classfuzz;
namespace tel = classfuzz::telemetry;

namespace {

/// Restores the global enabled flag and event sink on scope exit, so
/// tests cannot leak telemetry state into each other.
struct TelemetryGuard {
  TelemetryGuard() { tel::setEnabled(false); }
  ~TelemetryGuard() {
    tel::setEnabled(false);
    tel::setEventSink(nullptr);
  }
};

/// Captures emitted events in memory.
class CapturingSink : public tel::EventSink {
public:
  void write(const std::string &JsonObject) override {
    Events.push_back(JsonObject);
  }
  std::vector<std::string> Events;
};

} // namespace

// ---- counters / gauges / histograms ---------------------------------------

TEST(Telemetry, CounterCountsExactlyUnderConcurrentWriters) {
  tel::Counter C;
  constexpr size_t Threads = 8, IncsPerThread = 20000;
  {
    ThreadPool Pool(Threads);
    std::vector<std::future<void>> Done;
    for (size_t T = 0; T != Threads; ++T)
      Done.push_back(Pool.submit([&C] {
        for (size_t I = 0; I != IncsPerThread; ++I)
          C.inc();
      }));
    for (auto &F : Done)
      F.get();
  }
  EXPECT_EQ(C.value(), Threads * IncsPerThread);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(Telemetry, GaugeRecordMaxKeepsHighWaterUnderConcurrentWriters) {
  tel::Gauge G;
  constexpr size_t Threads = 8;
  {
    ThreadPool Pool(Threads);
    std::vector<std::future<void>> Done;
    for (size_t T = 0; T != Threads; ++T)
      Done.push_back(Pool.submit([&G, T] {
        for (int64_t V = 0; V != 5000; ++V)
          G.recordMax(static_cast<int64_t>(T) * 5000 + V);
      }));
    for (auto &F : Done)
      F.get();
  }
  EXPECT_EQ(G.value(), 8 * 5000 - 1);
  G.set(7);
  EXPECT_EQ(G.value(), 7);
  G.recordMax(3); // Lower than current: no effect.
  EXPECT_EQ(G.value(), 7);
}

TEST(Telemetry, HistogramAggregatesAreExactUnderConcurrentWriters) {
  tel::Histogram H;
  constexpr size_t Threads = 6, SamplesPerThread = 10000;
  {
    ThreadPool Pool(Threads);
    std::vector<std::future<void>> Done;
    for (size_t T = 0; T != Threads; ++T)
      Done.push_back(Pool.submit([&H] {
        for (uint64_t I = 1; I <= SamplesPerThread; ++I)
          H.record(I);
      }));
    for (auto &F : Done)
      F.get();
  }
  EXPECT_EQ(H.count(), Threads * SamplesPerThread);
  // Sum of 1..N per thread, times the thread count.
  uint64_t PerThread = SamplesPerThread * (SamplesPerThread + 1) / 2;
  EXPECT_EQ(H.sum(), Threads * PerThread);
  EXPECT_EQ(H.min(), 1u);
  EXPECT_EQ(H.max(), SamplesPerThread);
  EXPECT_DOUBLE_EQ(H.mean(), static_cast<double>(PerThread) /
                                 SamplesPerThread);
}

TEST(Telemetry, HistogramBucketsAreLogTwo) {
  tel::Histogram H;
  H.record(0);
  H.record(1); // Bucket 0: zeros and ones.
  H.record(2);
  H.record(3); // Bucket 2: [2, 4).
  H.record(1024); // Bucket 11: [1024, 2048).
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(2), 2u);
  EXPECT_EQ(H.bucketCount(11), 1u);
  // The p50 sample (the bucket-2 "3") reports its bucket upper bound.
  EXPECT_EQ(H.percentileUpperBound(0.5), 4u);
  EXPECT_EQ(H.percentileUpperBound(1.0), 2048u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.percentileUpperBound(0.5), 0u);
}

TEST(Telemetry, CounterGridCountsAndIgnoresOutOfRange) {
  tel::CounterGrid Grid(
      2, 3, [](size_t R) { return "r" + std::to_string(R); },
      [](size_t C) { return "c" + std::to_string(C); });
  Grid.inc(0, 0);
  Grid.inc(1, 2, 5);
  Grid.inc(2, 0);  // Row out of range: dropped, not UB.
  Grid.inc(0, 3);  // Column out of range: dropped.
  EXPECT_EQ(Grid.value(0, 0), 1u);
  EXPECT_EQ(Grid.value(1, 2), 5u);
  EXPECT_EQ(Grid.value(2, 0), 0u);
  EXPECT_EQ(Grid.rowLabel(1), "r1");
  EXPECT_EQ(Grid.colLabel(2), "c2");
  Grid.reset();
  EXPECT_EQ(Grid.value(1, 2), 0u);
}

// ---- registry -------------------------------------------------------------

TEST(Telemetry, RegistryReturnsStableReferences) {
  tel::MetricRegistry Reg;
  tel::Counter &A = Reg.counter("x");
  tel::Counter &B = Reg.counter("x");
  EXPECT_EQ(&A, &B);
  A.inc(3);
  Reg.reset(); // Zeroes values, never invalidates references.
  EXPECT_EQ(B.value(), 0u);
  B.inc();
  EXPECT_EQ(Reg.counter("x").value(), 1u);
}

TEST(Telemetry, RegistryRegistrationIsThreadSafe) {
  tel::MetricRegistry Reg;
  constexpr size_t Threads = 8;
  std::vector<tel::Counter *> Seen(Threads);
  {
    ThreadPool Pool(Threads);
    std::vector<std::future<void>> Done;
    for (size_t T = 0; T != Threads; ++T)
      Done.push_back(Pool.submit([&Reg, &Seen, T] {
        tel::Counter &C = Reg.counter("contended");
        C.inc();
        Seen[T] = &C;
      }));
    for (auto &F : Done)
      F.get();
  }
  for (size_t T = 1; T != Threads; ++T)
    EXPECT_EQ(Seen[T], Seen[0]);
  EXPECT_EQ(Reg.counter("contended").value(), Threads);
}

TEST(Telemetry, SnapshotJsonSchemaIsStable) {
  // A private registry gives an exactly-predictable snapshot: keys are
  // sorted, histograms carry the fixed aggregate schema, grids emit
  // only non-zero cells as "row.col". Tools parsing --stats-json
  // output rely on this shape.
  tel::MetricRegistry Reg;
  Reg.counter("b.count").inc(2);
  Reg.counter("a.count").inc(1);
  Reg.gauge("heap").set(42);
  tel::Histogram &H = Reg.histogram("lat");
  H.record(1);
  H.record(3);
  tel::CounterGrid &Grid = Reg.grid(
      "aborts", 2, 2, [](size_t R) { return R == 0 ? "load" : "link"; },
      [](size_t C) { return C == 0 ? "ok" : "err"; });
  Grid.inc(1, 1, 7);

  EXPECT_EQ(Reg.snapshotJson(),
            "{\"counters\":{\"a.count\":1,\"b.count\":2},"
            "\"gauges\":{\"heap\":42},"
            "\"histograms\":{\"lat\":{\"count\":2,\"sum\":4,\"min\":1,"
            "\"max\":3,\"mean\":2,\"p50\":1,\"p90\":3,\"p99\":3}},"
            "\"grids\":{\"aborts\":{\"link.err\":7}}}");
}

TEST(Telemetry, QuantileInterpolatesWithinBucketsAndClampsToExtremes) {
  tel::Histogram H;
  EXPECT_EQ(H.quantile(0.5), 0u); // Empty: no samples to rank.
  // 100 samples spread over [1000, 1099]: every sample lands in the
  // [1024, 2048) bucket except the first 24 in [512, 1024).
  for (uint64_t V = 1000; V != 1100; ++V)
    H.record(V);
  // Quantiles are monotone, bracketed by the true extremes, and (being
  // interpolated within a log2 bucket) within one bucket width of the
  // exact order statistic.
  uint64_t P50 = H.quantile(0.50);
  uint64_t P90 = H.quantile(0.90);
  uint64_t P99 = H.quantile(0.99);
  EXPECT_LE(P50, P90);
  EXPECT_LE(P90, P99);
  EXPECT_GE(P50, H.min());
  EXPECT_LE(P99, H.max());
  EXPECT_EQ(H.quantile(0.0), H.min());
  EXPECT_EQ(H.quantile(1.0), H.max());
  // All ranks >= 25 fall in [1024, 2048); interpolation stays there.
  EXPECT_GE(P90, 1024u);
}

TEST(Telemetry, QuantileIsExactWhenEverySampleIsEqual) {
  tel::Histogram H;
  for (int I = 0; I != 1000; ++I)
    H.record(777);
  // Interpolation may wander inside the [512, 1024) bucket, but the
  // min/max clamp pins every quantile to the only value present.
  EXPECT_EQ(H.quantile(0.50), 777u);
  EXPECT_EQ(H.quantile(0.90), 777u);
  EXPECT_EQ(H.quantile(0.99), 777u);
}

TEST(Telemetry, QuantileHandlesZeroAndOneBucket) {
  tel::Histogram H;
  H.record(0);
  H.record(0);
  H.record(1);
  H.record(1);
  EXPECT_LE(H.quantile(0.5), 1u); // Bucket 0 spans [0, 1].
  EXPECT_EQ(H.quantile(1.0), 1u);
}

TEST(Telemetry, EmptySnapshotIsStillValidJson) {
  tel::MetricRegistry Reg;
  EXPECT_EQ(Reg.snapshotJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},"
            "\"grids\":{}}");
}

// ---- events ---------------------------------------------------------------

TEST(Telemetry, EventBuilderEmitsOneJsonObjectPerEvent) {
  TelemetryGuard Guard;
  auto Sink = std::make_unique<CapturingSink>();
  CapturingSink *Raw = Sink.get();
  tel::setEventSink(std::move(Sink));

  tel::EventBuilder("iter")
      .field("mutator", std::string("field.add-final"))
      .field("n", static_cast<uint64_t>(7))
      .field("delta", static_cast<int64_t>(-2))
      .field("rate", 0.5)
      .field("ok", true)
      .emit();

  ASSERT_EQ(Raw->Events.size(), 1u);
  EXPECT_EQ(Raw->Events[0],
            "{\"type\":\"iter\",\"mutator\":\"field.add-final\","
            "\"n\":7,\"delta\":-2,\"rate\":0.5,\"ok\":true}");
}

TEST(Telemetry, EventBuilderWithoutSinkIsANoOp) {
  TelemetryGuard Guard;
  tel::setEventSink(nullptr);
  tel::EventBuilder("orphan").field("k", 1).emit(); // Must not crash.
  EXPECT_EQ(tel::eventSink(), nullptr);
}

TEST(Telemetry, FileEventSinkLatchesWriteFailureAndCountsDrops) {
  // A 16-byte fmemopen buffer (unbuffered, so stdio cannot defer the
  // failure) rejects the second event: the sink must latch failed(),
  // report once, and count every subsequent event as dropped instead of
  // spamming errors or crashing.
  char Buf[16];
  std::FILE *F = fmemopen(Buf, sizeof(Buf), "w");
  ASSERT_NE(F, nullptr);
  setvbuf(F, nullptr, _IONBF, 0);
  tel::FileEventSink Sink(F, /*Close=*/true, "fmemopen test sink");
  EXPECT_FALSE(Sink.failed());
  Sink.write("{\"a\":1}"); // 7 chars + newline: fits.
  EXPECT_FALSE(Sink.failed());
  Sink.write("{\"second\":2}"); // Would overflow: fwrite fails.
  EXPECT_TRUE(Sink.failed());
  EXPECT_EQ(Sink.droppedEvents(), 1u);
  Sink.write("{\"third\":3}"); // Early-out on the latch.
  EXPECT_EQ(Sink.droppedEvents(), 2u);
}

TEST(Telemetry, FileEventSinkSurvivesSuccessfulStream) {
  char Buf[4096];
  std::FILE *F = fmemopen(Buf, sizeof(Buf), "w");
  ASSERT_NE(F, nullptr);
  {
    tel::FileEventSink Sink(F, /*Close=*/true, "roomy sink");
    for (int I = 0; I != 10; ++I)
      Sink.write("{\"i\":" + std::to_string(I) + "}");
    EXPECT_FALSE(Sink.failed());
    EXPECT_EQ(Sink.droppedEvents(), 0u);
  }
}

TEST(Telemetry, JsonEscapeHandlesControlAndQuoteCharacters) {
  EXPECT_EQ(tel::jsonEscape("plain"), "plain");
  EXPECT_EQ(tel::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(tel::jsonEscape("line\nbreak\t"), "line\\nbreak\\t");
  EXPECT_EQ(tel::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

// ---- phase timers ---------------------------------------------------------

TEST(Telemetry, PhaseTimerRecordsWhenEnabled) {
  TelemetryGuard Guard;
  tel::setEnabled(true);
  tel::Histogram H;
  {
    tel::PhaseTimer T(H);
  }
  EXPECT_EQ(H.count(), 1u);
}

TEST(Telemetry, PhaseTimerIsInertWhenDisabled) {
  TelemetryGuard Guard;
  tel::setEnabled(false);
  tel::Histogram H;
  {
    tel::PhaseTimer T(H);
  }
  EXPECT_EQ(H.count(), 0u);
}

TEST(Telemetry, PhaseTimerStopDisarms) {
  TelemetryGuard Guard;
  tel::setEnabled(true);
  tel::Histogram H;
  tel::PhaseTimer T(H);
  T.stop();
  T.stop(); // Second stop (and the destructor) must not re-record.
  EXPECT_EQ(H.count(), 1u);
}

// ---- campaign determinism -------------------------------------------------

namespace {

CampaignConfig determinismConfig() {
  CampaignConfig Config;
  Config.Algo = FuzzAlgorithm::ClassfuzzStBr;
  Config.Iterations = 120;
  Config.RngSeed = 23;
  Config.NumSeeds = 11;
  return Config;
}

void expectIdenticalResults(const CampaignResult &A,
                            const CampaignResult &B) {
  ASSERT_EQ(A.Iterations, B.Iterations);
  ASSERT_EQ(A.numGenerated(), B.numGenerated());
  for (size_t I = 0; I != A.GenClasses.size(); ++I) {
    EXPECT_EQ(A.GenClasses[I].Name, B.GenClasses[I].Name);
    EXPECT_EQ(A.GenClasses[I].Data, B.GenClasses[I].Data);
    EXPECT_EQ(A.GenClasses[I].Representative,
              B.GenClasses[I].Representative);
  }
  EXPECT_EQ(A.TestClassIndices, B.TestClassIndices);
  EXPECT_EQ(A.MutatorSelected, B.MutatorSelected);
  EXPECT_EQ(A.MutatorSucceeded, B.MutatorSucceeded);
  EXPECT_EQ(A.MutatorInapplicable, B.MutatorInapplicable);
  EXPECT_EQ(A.MutatorNoChange, B.MutatorNoChange);
}

} // namespace

TEST(TelemetryDeterminism, CampaignIsBitIdenticalWithTelemetryOnOrOff) {
  TelemetryGuard Guard;
  tel::setEnabled(false);
  auto Off = runCampaign(determinismConfig());

  tel::setEnabled(true);
  auto Sink = std::make_unique<CapturingSink>();
  CapturingSink *Raw = Sink.get();
  tel::setEventSink(std::move(Sink));
  auto On = runCampaign(determinismConfig());

  expectIdenticalResults(Off, On);
  // One event per committed iteration plus the campaign.end summary.
  EXPECT_EQ(Raw->Events.size(), On.Iterations + 1);
}

TEST(TelemetryDeterminism, StageTimersCountExactlyTheirStage) {
  // Each campaign.stage.* histogram takes one sample per unit of work
  // its stage did for the committed trajectory (DESIGN.md §8): one
  // mutate per iteration, one execute per reference execution (every
  // produced mutant except the pre-filter skips outside the audit
  // sample), one commit per produced mutant. Jobs is set to show that
  // it changes nothing.
  TelemetryGuard Guard;
  tel::setEnabled(true);
  auto &M = tel::metrics();
  tel::Histogram &MutateNs = M.histogram("campaign.stage.mutate_ns");
  tel::Histogram &ExecuteNs = M.histogram("campaign.stage.execute_ns");
  tel::Histogram &CommitNs = M.histogram("campaign.stage.commit_ns");
  MutateNs.reset();
  ExecuteNs.reset();
  CommitNs.reset();

  CampaignConfig Config;
  Config.Algo = FuzzAlgorithm::ClassfuzzDdFine;
  Config.Iterations = 200;
  Config.RngSeed = 7;
  Config.NumSeeds = 16;
  Config.Prefilter = true;
  Config.PrefilterAudit = 0.5;
  Config.Jobs = 4;
  auto R = runCampaign(Config);

  ASSERT_GT(R.PrefilterSkipped, R.PrefilterAudited)
      << "config too easy: no unaudited skip to leave out of execute_ns";
  ASSERT_GT(R.PrefilterAudited, 0u);
  EXPECT_EQ(MutateNs.count(), R.Iterations);
  EXPECT_EQ(ExecuteNs.count(),
            R.numGenerated() - (R.PrefilterSkipped - R.PrefilterAudited));
  EXPECT_EQ(CommitNs.count(), R.numGenerated());
}

TEST(TelemetryDeterminism, MutationAccountingAddsUp) {
  TelemetryGuard Guard;
  tel::setEnabled(false);
  auto R = runCampaign(determinismConfig());
  size_t Selected = 0, Succeeded = 0, Inapplicable = 0, NoChange = 0;
  for (size_t I = 0; I != R.MutatorSelected.size(); ++I) {
    Selected += R.MutatorSelected[I];
    Succeeded += R.MutatorSucceeded[I];
    Inapplicable += R.MutatorInapplicable[I];
    NoChange += R.MutatorNoChange[I];
    EXPECT_LE(R.MutatorInapplicable[I] + R.MutatorNoChange[I],
              R.MutatorSelected[I]);
  }
  EXPECT_EQ(Selected, R.Iterations);
  EXPECT_EQ(Succeeded, R.numTests());
  // Inapplicable draws cannot produce a mutant.
  EXPECT_LE(R.numGenerated(), Selected - Inapplicable);
  EXPECT_GT(Inapplicable, 0u) << "config too easy to exercise the path";
}

// ---- histogram quantile edges ---------------------------------------------

TEST(Telemetry, QuantileOfAnEmptyHistogramIsZero) {
  tel::Histogram H;
  EXPECT_EQ(H.quantile(0.0), 0u);
  EXPECT_EQ(H.quantile(0.5), 0u);
  EXPECT_EQ(H.quantile(1.0), 0u);
  EXPECT_EQ(H.percentileUpperBound(0.99), 0u);
}

TEST(Telemetry, QuantileOfASingleSampleIsExactForEveryQ) {
  tel::Histogram H;
  H.record(100);
  EXPECT_EQ(H.quantile(0.0), 100u);
  EXPECT_EQ(H.quantile(0.5), 100u);
  EXPECT_EQ(H.quantile(1.0), 100u);
  // Out-of-range Q clamps instead of misbehaving.
  EXPECT_EQ(H.quantile(-3.0), 100u);
  EXPECT_EQ(H.quantile(7.0), 100u);
}

TEST(Telemetry, QuantileOfASingleBucketClampsIntoTheSampleRange) {
  // 65 and 127 share the [64,128) log2 bucket: interpolation is
  // bucket-resolution but can never leave [min, max].
  tel::Histogram H;
  H.record(65);
  H.record(127);
  EXPECT_EQ(H.quantile(1.0), 127u) << "Q=1 is the exact maximum";
  uint64_t Q0 = H.quantile(0.0);
  EXPECT_GE(Q0, 65u);
  EXPECT_LE(Q0, 127u);
  // Identical samples collapse the range: exact for every Q.
  tel::Histogram I;
  for (int N = 0; N != 5; ++N)
    I.record(100);
  EXPECT_EQ(I.quantile(0.0), 100u);
  EXPECT_EQ(I.quantile(0.25), 100u);
  EXPECT_EQ(I.quantile(1.0), 100u);
}

TEST(Telemetry, QuantileOfZerosStaysZero) {
  tel::Histogram H;
  for (int N = 0; N != 3; ++N)
    H.record(0);
  EXPECT_EQ(H.quantile(0.0), 0u);
  EXPECT_EQ(H.quantile(1.0), 0u);
}

// ---- comma-separated snapshot prefixes ------------------------------------

TEST(Telemetry, SnapshotJsonAcceptsACommaSeparatedPrefixList) {
  tel::metrics().counter("sfa.x").inc(1);
  tel::metrics().counter("sfb.y").inc(2);
  tel::metrics().gauge("sfc.z").set(3);

  std::string Two = tel::metrics().snapshotJson("sfa.,sfc.");
  EXPECT_NE(Two.find("\"sfa.x\":1"), std::string::npos);
  EXPECT_EQ(Two.find("sfb.y"), std::string::npos);
  EXPECT_NE(Two.find("\"sfc.z\":3"), std::string::npos);
  // A single prefix still behaves as before.
  std::string One = tel::metrics().snapshotJson("sfb.");
  EXPECT_EQ(One.find("sfa.x"), std::string::npos);
  EXPECT_NE(One.find("\"sfb.y\":2"), std::string::npos);
  // Stray commas and empty segments are ignored, not prefix-matched.
  std::string Stray = tel::metrics().snapshotJson(",sfa.,");
  EXPECT_NE(Stray.find("sfa.x"), std::string::npos);
  EXPECT_EQ(Stray.find("sfb.y"), std::string::npos);
}

TEST(Telemetry, ScalarValuesFilterByIncludePrefixes) {
  tel::metrics().counter("sv.keep.a").inc(4);
  tel::metrics().gauge("sv.keep.b").set(5);
  tel::metrics().counter("sv_other.c").inc(6);
  tel::metrics().histogram("sv.keep.h").record(9); // Never sampled.

  auto Vals = tel::metrics().scalarValues({"sv."});
  EXPECT_EQ(Vals.count("sv.keep.a"), 1u);
  EXPECT_EQ(Vals.at("sv.keep.a"), 4);
  EXPECT_EQ(Vals.at("sv.keep.b"), 5);
  EXPECT_EQ(Vals.count("sv_other.c"), 0u);
  EXPECT_EQ(Vals.count("sv.keep.h"), 0u)
      << "histograms are out of scalarValues' scope";
}

// ---- sink failure accounting ----------------------------------------------

TEST(Telemetry, SinkWriteFailuresSurfaceInMetrics) {
  TelemetryGuard Guard;
  tel::setEnabled(true);
  tel::metrics().counter("telemetry.sink_dropped_events").reset();
  tel::metrics().gauge("telemetry.sink_failed").set(0);

  // A read-only stream makes every fwrite fail deterministically.
  std::string Path = testing::TempDir() + "/cf_sink_failure_test";
  {
    std::FILE *Create = std::fopen(Path.c_str(), "w");
    ASSERT_NE(Create, nullptr);
    std::fclose(Create);
  }
  std::FILE *ReadOnly = std::fopen(Path.c_str(), "r");
  ASSERT_NE(ReadOnly, nullptr);
  {
    tel::FileEventSink Sink(ReadOnly, /*Close=*/true, "test sink");
    Sink.write("{\"ev\":1}"); // Fails and latches.
    Sink.write("{\"ev\":2}"); // Dropped by the latch.
  }
  EXPECT_EQ(tel::metrics().gauge("telemetry.sink_failed").value(), 1);
  EXPECT_EQ(tel::metrics().counter("telemetry.sink_dropped_events").value(),
            2u);
  // Both appear in the --stats-json snapshot under telemetry.*.
  std::string Snap = tel::metrics().snapshotJson("telemetry.");
  EXPECT_NE(Snap.find("\"telemetry.sink_dropped_events\":2"),
            std::string::npos);
  EXPECT_NE(Snap.find("\"telemetry.sink_failed\":1"), std::string::npos);
  std::remove(Path.c_str());
}
