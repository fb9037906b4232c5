//===- tests/telemetry/timeseries_test.cpp ---------------------------------===//
//
// The deterministic campaign time series: sampling cadence on committed
// iterations, delta-encoding (first row carries the non-zero state,
// later rows only changed keys), prefix include/exclude filtering, the
// final row, and the windowed saturation detector's latch semantics.
//
//===----------------------------------------------------------------------===//

#include "telemetry/TimeSeries.h"

#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace classfuzz;
namespace tel = classfuzz::telemetry;

namespace {

tel::TimeSeriesSampler::Options optsFor(const std::string &Prefix,
                                        uint64_t Every) {
  tel::TimeSeriesSampler::Options Opts;
  Opts.SampleEvery = Every;
  Opts.Prefixes = {Prefix};
  return Opts;
}

} // namespace

TEST(TimeSeries, SamplesOnTheStrideAndDeltaEncodes) {
  // Registry names are process-global; a test-unique prefix isolates us.
  tel::Counter &A = tel::metrics().counter("ts_a.hits");
  tel::Gauge &G = tel::metrics().gauge("ts_a.depth");
  A.reset();
  G.set(0);
  tel::metrics().counter("ts_a.zero").reset(); // Stays 0 throughout.

  tel::TimeSeriesSampler S(optsFor("ts_a.", 2));
  A.inc(5);
  G.set(3);
  S.onCommit(1); // Off-stride: no row.
  EXPECT_TRUE(S.rows().empty());
  S.onCommit(2);
  ASSERT_EQ(S.rows().size(), 1u);
  EXPECT_EQ(S.rows()[0],
            "{\"type\":\"ts\",\"iter\":2,\"m\":{\"ts_a.depth\":3,"
            "\"ts_a.hits\":5}}")
      << "first row: every non-zero metric, keys sorted, zeros omitted";

  S.onCommit(4); // Nothing changed: row with an empty delta map.
  ASSERT_EQ(S.rows().size(), 2u);
  EXPECT_EQ(S.rows()[1], "{\"type\":\"ts\",\"iter\":4,\"m\":{}}");

  A.inc(2);
  S.onCommit(6); // Only the changed key appears.
  ASSERT_EQ(S.rows().size(), 3u);
  EXPECT_EQ(S.rows()[2],
            "{\"type\":\"ts\",\"iter\":6,\"m\":{\"ts_a.hits\":7}}");
}

TEST(TimeSeries, FinishEmitsAFinalRowOffStrideAndStopsSampling) {
  tel::Counter &A = tel::metrics().counter("ts_b.hits");
  A.reset();
  tel::TimeSeriesSampler S(optsFor("ts_b.", 100));
  A.inc();
  S.finish(7);
  ASSERT_EQ(S.rows().size(), 1u);
  EXPECT_EQ(S.rows()[0], "{\"type\":\"ts\",\"iter\":7,\"final\":true,"
                         "\"m\":{\"ts_b.hits\":1}}");
  S.onCommit(200); // After finish: ignored.
  S.finish(300);
  EXPECT_EQ(S.rows().size(), 1u);
}

TEST(TimeSeries, ZerothCommitNeverSamplesAndPeriodZeroClampsToOne) {
  tel::metrics().counter("ts_c.hits").reset();
  tel::TimeSeriesSampler S(optsFor("ts_c.", 0));
  S.onCommit(0); // Iteration 0 = nothing committed yet.
  EXPECT_TRUE(S.rows().empty());
  S.onCommit(1);
  S.onCommit(2);
  EXPECT_EQ(S.rows().size(), 2u) << "period 0 behaves as every-commit";
}

TEST(TimeSeries, StreamsRowsToTheAttachedFile) {
  std::string Path = testing::TempDir() + "/cf_timeseries_test.jsonl";
  tel::metrics().counter("ts_e.hits").reset();
  {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    tel::TimeSeriesSampler S(optsFor("ts_e.", 1), F);
    tel::metrics().counter("ts_e.hits").inc();
    S.onCommit(1);
    S.finish(2);
  } // Destructor closed the stream.
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), "{\"type\":\"ts\",\"iter\":1,\"m\":"
                       "{\"ts_e.hits\":1}}\n"
                       "{\"type\":\"ts\",\"iter\":2,\"final\":true,"
                       "\"m\":{}}\n");
  std::remove(Path.c_str());
}

// ---- saturation detector --------------------------------------------------

TEST(Saturation, LatchesOnceAfterAFullSilentWindow) {
  tel::SaturationDetector D({/*Window=*/4, /*MinDiscoveries=*/1});
  tel::SaturationDetector::Signals Hit;
  Hit.NewBranches = 1;
  tel::SaturationDetector::Signals Silent;

  EXPECT_FALSE(D.onCommit(Hit));
  // Three silent commits: the window still holds the discovery.
  for (int I = 0; I != 3; ++I)
    EXPECT_FALSE(D.onCommit(Silent)) << "commit " << I;
  EXPECT_FALSE(D.plateaued());
  // Fourth silent commit evicts it: a full window with nothing new.
  EXPECT_TRUE(D.onCommit(Silent));
  EXPECT_TRUE(D.plateaued());
  EXPECT_EQ(D.plateauIteration(), 5u);
  // Latched for good: further commits (even discoveries) change nothing.
  EXPECT_FALSE(D.onCommit(Hit));
  EXPECT_TRUE(D.plateaued());
  EXPECT_EQ(D.plateauIteration(), 5u);
}

TEST(Saturation, NeverLatchesBeforeTheWindowFills) {
  tel::SaturationDetector D({/*Window=*/8, /*MinDiscoveries=*/1});
  tel::SaturationDetector::Signals Silent;
  for (int I = 0; I != 7; ++I)
    EXPECT_FALSE(D.onCommit(Silent));
  EXPECT_FALSE(D.plateaued()) << "7 commits cannot fill a window of 8";
  EXPECT_TRUE(D.onCommit(Silent));
  EXPECT_EQ(D.plateauIteration(), 8u);
}

TEST(Saturation, MinDiscoveriesRaisesTheBar) {
  tel::SaturationDetector D({/*Window=*/4, /*MinDiscoveries=*/3});
  tel::SaturationDetector::Signals Two;
  Two.NewTuples = 1;
  Two.Discrepancies = 1;
  // Every window holds exactly 2 discoveries < 3: latches as soon as
  // the window is full.
  EXPECT_FALSE(D.onCommit(Two));
  tel::SaturationDetector::Signals Silent;
  EXPECT_FALSE(D.onCommit(Silent));
  EXPECT_FALSE(D.onCommit(Silent));
  EXPECT_TRUE(D.onCommit(Silent));
  EXPECT_EQ(D.plateauIteration(), 4u);
}

TEST(Saturation, DiscoveryRateTracksTheWindow) {
  tel::SaturationDetector D({/*Window=*/10, /*MinDiscoveries=*/1});
  tel::SaturationDetector::Signals Hit;
  Hit.NewBranches = 2;
  D.onCommit(Hit);
  D.onCommit(Hit);
  // 4 discoveries over 2 commits-in-window.
  EXPECT_DOUBLE_EQ(D.discoveryRatePerK(), 2000.0);
}
