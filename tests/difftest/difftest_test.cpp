//===- tests/difftest/difftest_test.cpp ------------------------------------===//
//
// Differential harness: outcome encoding, discrepancy detection,
// distinct-discrepancy categorization, and environment modes
// (Definitions 1 and 2).
//
//===----------------------------------------------------------------------===//

#include "../TestHelpers.h"
#include "difftest/DiffTest.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

using namespace classfuzz;
using namespace classfuzz::testhelpers;

namespace {

ClassPath corpusOf(
    const std::vector<std::pair<std::string, Bytes>> &Classes) {
  ClassPath Out;
  for (const auto &[Name, Data] : Classes)
    Out.add(Name, Data);
  return Out;
}

/// Figure 2's discrepancy class.
ClassFile makeFigure2Class() {
  ClassFile CF = makeHelloClass("M1436188543");
  MethodInfo Clinit;
  Clinit.Name = "<clinit>";
  Clinit.Descriptor = "()V";
  Clinit.AccessFlags = ACC_PUBLIC | ACC_ABSTRACT;
  CF.Methods.push_back(std::move(Clinit));
  return CF;
}

} // namespace

TEST(DiffOutcome, ConstantSequenceIsNoDiscrepancy) {
  DiffOutcome O;
  O.Encoded = {0, 0, 0, 0, 0};
  EXPECT_FALSE(O.isDiscrepancy());
  O.Encoded = {2, 2, 2, 2, 2};
  EXPECT_FALSE(O.isDiscrepancy());
  O.Encoded = {0, 0, 0, 1, 2};
  EXPECT_TRUE(O.isDiscrepancy());
  EXPECT_EQ(O.encodedString(), "00012");
}

TEST(DiffTest, HelloClassAgreesEverywhere) {
  Bytes Hello = serialize(makeHelloClass("Hello"));
  auto Tester = DifferentialTester::withAllProfiles(
      corpusOf({{"Hello", Hello}}), EnvironmentMode::Shared);
  DiffOutcome O = Tester.testClass("Hello");
  ASSERT_EQ(O.Encoded.size(), 5u);
  EXPECT_FALSE(O.isDiscrepancy()) << O.encodedString();
  EXPECT_EQ(O.encodedString(), "00000");
}

TEST(DiffTest, Figure2ClassProducesThePaperDiscrepancy) {
  // HotSpot 7/8/9 invoke normally; J9 rejects while loading. GIJ also
  // runs it (no strict clinit rule). Shared environment => a defect-
  // indicative discrepancy (Definition 2).
  Bytes Data = serialize(makeFigure2Class());
  auto Tester = DifferentialTester::withAllProfiles(
      corpusOf({{"M1436188543", Data}}), EnvironmentMode::Shared);
  DiffOutcome O = Tester.testClass("M1436188543");
  EXPECT_TRUE(O.isDiscrepancy());
  EXPECT_EQ(O.Encoded[0], 0); // HotSpot 7
  EXPECT_EQ(O.Encoded[1], 0); // HotSpot 8
  EXPECT_EQ(O.Encoded[2], 0); // HotSpot 9
  EXPECT_EQ(O.Encoded[3], 1); // J9: rejected during loading
  EXPECT_EQ(O.Encoded[4], 0); // GIJ
}

TEST(DiffTest, SharedEnvironmentSuppressesCompatibilityDiscrepancies) {
  // A class extending a sun/* internal: with per-JVM environments the
  // jre9/jre5 profiles cannot load it (compatibility discrepancy); with
  // a shared jre8 environment all five agree.
  ClassFile CF = makeHelloClass("UsesSun");
  CF.SuperClass = "sun/misc/BASE64Encoder";
  Bytes Data = serialize(CF);
  ClassPath Corpus = corpusOf({{"UsesSun", Data}});

  auto PerJvm = DifferentialTester::withAllProfiles(
      Corpus, EnvironmentMode::PerJvm);
  EXPECT_TRUE(PerJvm.testClass("UsesSun").isDiscrepancy());

  auto Shared = DifferentialTester::withAllProfiles(
      Corpus, EnvironmentMode::Shared, "jre8");
  DiffOutcome O = Shared.testClass("UsesSun");
  EXPECT_FALSE(O.isDiscrepancy()) << O.encodedString();
}

TEST(DiffTest, TestClassOverloadOverlaysBytes) {
  Bytes Hello = serialize(makeHelloClass("Late"));
  auto Tester = DifferentialTester::withAllProfiles(
      ClassPath(), EnvironmentMode::Shared);
  DiffOutcome O = Tester.testClass("Late", Hello);
  EXPECT_EQ(O.encodedString(), "00000");
}

TEST(DiffStats, AggregationMatchesTable6Semantics) {
  DiffStats Stats;
  DiffOutcome AllOk;
  AllOk.Encoded = {0, 0, 0, 0, 0};
  DiffOutcome AllRejected;
  AllRejected.Encoded = {2, 2, 2, 2, 2};
  DiffOutcome DiscA;
  DiscA.Encoded = {0, 0, 0, 1, 2};
  DiffOutcome DiscB;
  DiscB.Encoded = {0, 0, 0, 1, 2}; // Same category as DiscA.
  DiffOutcome DiscC;
  DiscC.Encoded = {2, 2, 2, 2, 0}; // New category.

  for (const DiffOutcome *O : {&AllOk, &AllRejected, &DiscA, &DiscB,
                               &DiscC})
    Stats.add(*O);

  EXPECT_EQ(Stats.Total, 5u);
  EXPECT_EQ(Stats.AllInvoked, 1u);
  EXPECT_EQ(Stats.AllRejectedSameStage, 1u);
  EXPECT_EQ(Stats.Discrepancies, 3u);
  EXPECT_EQ(Stats.DistinctDiscrepancies.size(), 2u);
  EXPECT_DOUBLE_EQ(Stats.diffRatePercent(), 60.0);
}

TEST(DiffStats, OutOfRangeCodesAreClampedAndReported) {
  // Encoded outcomes are 0..4 by construction, but add() must not index
  // past PhaseCounts[I] when handed a corrupt code: clamp and count.
  DiffStats Stats;
  DiffOutcome Corrupt;
  Corrupt.Encoded = {0, 9, -3};
  Stats.add(Corrupt);

  EXPECT_EQ(Stats.Total, 1u);
  EXPECT_EQ(Stats.EncodingErrors, 2u);
  ASSERT_EQ(Stats.PhaseCounts.size(), 3u);
  EXPECT_EQ(Stats.PhaseCounts[0][0], 1u);
  EXPECT_EQ(Stats.PhaseCounts[1][4], 1u) << "9 clamps to 4";
  EXPECT_EQ(Stats.PhaseCounts[2][0], 1u) << "-3 clamps to 0";
  // The corrupt sequence is still a (non-constant) discrepancy.
  EXPECT_EQ(Stats.Discrepancies, 1u);

  DiffOutcome Clean;
  Clean.Encoded = {1, 1, 1};
  Stats.add(Clean);
  EXPECT_EQ(Stats.EncodingErrors, 2u) << "clean outcomes add no errors";
}

TEST(DiffStats, PhaseCountsFeedTable7) {
  DiffStats Stats;
  DiffOutcome O;
  O.Encoded = {0, 0, 0, 1, 2};
  Stats.add(O);
  Stats.add(O);
  ASSERT_EQ(Stats.PhaseCounts.size(), 5u);
  EXPECT_EQ(Stats.PhaseCounts[0][0], 2u) << "JVM 0 invoked twice";
  EXPECT_EQ(Stats.PhaseCounts[3][1], 2u) << "JVM 3 rejected at loading";
  EXPECT_EQ(Stats.PhaseCounts[4][2], 2u) << "JVM 4 rejected at linking";
}

TEST(DiffStats, MergeEqualsAddingEveryOutcomeToOneObject) {
  DiffOutcome AllOk;
  AllOk.Encoded = {0, 0, 0, 0, 0};
  DiffOutcome Rejected;
  Rejected.Encoded = {2, 2, 2, 2, 2};
  DiffOutcome DiscA;
  DiscA.Encoded = {0, 0, 0, 1, 2};
  DiffOutcome DiscB;
  DiscB.Encoded = {2, 2, 2, 2, 0};
  DiffOutcome Corrupt;
  Corrupt.Encoded = {0, 9, -3, 0, 0};

  // Two shards, each adding a disjoint slice...
  DiffStats ShardOne, ShardTwo;
  ShardOne.add(AllOk);
  ShardOne.add(DiscA);
  ShardTwo.add(Rejected);
  ShardTwo.add(DiscA);
  ShardTwo.add(DiscB);
  ShardTwo.add(Corrupt);
  DiffStats Merged = ShardOne;
  Merged.merge(ShardTwo);

  // ...must equal one object that saw every outcome.
  DiffStats Direct;
  for (const DiffOutcome *O :
       {&AllOk, &DiscA, &Rejected, &DiscA, &DiscB, &Corrupt})
    Direct.add(*O);

  EXPECT_EQ(Merged.Total, Direct.Total);
  EXPECT_EQ(Merged.AllInvoked, Direct.AllInvoked);
  EXPECT_EQ(Merged.AllRejectedSameStage, Direct.AllRejectedSameStage);
  EXPECT_EQ(Merged.Discrepancies, Direct.Discrepancies);
  EXPECT_EQ(Merged.DistinctDiscrepancies, Direct.DistinctDiscrepancies);
  EXPECT_EQ(Merged.PhaseCounts, Direct.PhaseCounts);
  EXPECT_EQ(Merged.EncodingErrors, Direct.EncodingErrors);
  EXPECT_DOUBLE_EQ(Merged.diffRatePercent(), Direct.diffRatePercent());
}

TEST(DiffStats, MergeIntoEmptyAndFromEmpty) {
  DiffOutcome Disc;
  Disc.Encoded = {0, 0, 0, 1, 2};
  DiffStats Full;
  Full.add(Disc);

  DiffStats Empty;
  DiffStats FromEmpty = Full;
  FromEmpty.merge(Empty); // No-op.
  EXPECT_EQ(FromEmpty.Total, 1u);
  EXPECT_EQ(FromEmpty.Discrepancies, 1u);

  DiffStats IntoEmpty;
  IntoEmpty.merge(Full); // Adopts everything, including PhaseCounts size.
  EXPECT_EQ(IntoEmpty.Total, 1u);
  ASSERT_EQ(IntoEmpty.PhaseCounts.size(), 5u);
  EXPECT_EQ(IntoEmpty.PhaseCounts[4][2], 1u);
  EXPECT_EQ(IntoEmpty.DistinctDiscrepancies.count("00012"), 1u);
}

TEST(DiffStats, DiffRateIsZeroWithoutOutcomes) {
  // Regression: diffRatePercent on a fresh (or merged-empty) object must
  // return 0.0, not divide by Total == 0.
  DiffStats Empty;
  EXPECT_DOUBLE_EQ(Empty.diffRatePercent(), 0.0);

  DiffStats AlsoEmpty;
  AlsoEmpty.merge(Empty);
  EXPECT_DOUBLE_EQ(AlsoEmpty.diffRatePercent(), 0.0);
}

TEST(DiffTest, CollectCoverageFillsPerProfileTraces) {
  Bytes Hello = serialize(makeHelloClass("Hello"));
  auto Tester = DifferentialTester::withAllProfiles(
      corpusOf({{"Hello", Hello}}), EnvironmentMode::Shared);

  // Off by default: no tracefiles are materialized.
  EXPECT_FALSE(Tester.collectCoverage());
  EXPECT_TRUE(Tester.testClass("Hello").Traces.empty());

  Tester.setCollectCoverage(true);
  DiffOutcome O = Tester.testClass("Hello");
  ASSERT_EQ(O.Traces.size(), Tester.policies().size());
  for (const Tracefile &T : O.Traces)
    EXPECT_GT(T.stmtCount(), 0u) << "every profile executed Hello";
}

TEST(DiffTest, FlightEventsAreDeferredUntilCommitted) {
  namespace tel = classfuzz::telemetry;
  struct RecorderGuard {
    RecorderGuard() { tel::flightRecorder().disable(); }
    ~RecorderGuard() { tel::flightRecorder().disable(); }
  } Guard;

  Bytes Hello = serialize(makeHelloClass("Hello"));
  auto Tester = DifferentialTester::withAllProfiles(
      corpusOf({{"Hello", Hello}}), EnvironmentMode::Shared);

  // Disarmed recorder: nothing is even deferred.
  EXPECT_TRUE(Tester.testClass("Hello").FlightEvents.empty());

  tel::FlightRecorder &FR = tel::flightRecorder();
  FR.enable(64);
  DiffOutcome O = Tester.testClass("Hello");
  ASSERT_FALSE(O.FlightEvents.empty());
  EXPECT_TRUE(FR.snapshot().empty())
      << "testClass must not write the global stream";

  O.commit();
  auto Events = FR.snapshot();
  ASSERT_EQ(Events.size(), O.FlightEvents.size());
  EXPECT_EQ(Events.back().Kind, tel::FlightKind::DiffOutcome);

  // Committing is the caller's choice: a second commit replays again
  // (the reducer's oracle simply never commits).
  O.commit();
  EXPECT_EQ(FR.snapshot().size(), 2 * O.FlightEvents.size());
}

TEST(DiffStats, MergeHandlesDifferentJvmCounts) {
  // Shards produced with different profile counts (e.g. a three-JVM
  // smoke shard merged into a five-JVM run): PhaseCounts grows to the
  // larger shape and sums elementwise.
  DiffOutcome Three;
  Three.Encoded = {0, 1, 2};
  DiffOutcome Five;
  Five.Encoded = {0, 0, 0, 1, 2};

  DiffStats A;
  A.add(Five);
  DiffStats B;
  B.add(Three);
  A.merge(B);

  ASSERT_EQ(A.PhaseCounts.size(), 5u);
  EXPECT_EQ(A.PhaseCounts[0][0], 2u);
  EXPECT_EQ(A.PhaseCounts[1][0], 1u);
  EXPECT_EQ(A.PhaseCounts[1][1], 1u);
  EXPECT_EQ(A.PhaseCounts[2][2], 1u);
  EXPECT_EQ(A.PhaseCounts[4][2], 1u);
}

TEST(DiffTestTiers, WithoutTierDiffMatchesAllProfiles) {
  Bytes Hello = serialize(makeHelloClass("Hello"));
  auto Tester = DifferentialTester::withTieredProfiles(
      corpusOf({{"Hello", Hello}}), EnvironmentMode::PerJvm,
      ExecTier::Baseline, /*TierDiff=*/false);
  EXPECT_EQ(Tester.profiles().size(), 5u);
  EXPECT_FALSE(Tester.tierPair().has_value());
  for (const ProfileDesc &P : Tester.profiles())
    EXPECT_EQ(P.Tier, ExecTier::Baseline) << P.Name;
  DiffOutcome O = Tester.testClass("Hello");
  ASSERT_EQ(O.Encoded.size(), 5u);
  EXPECT_FALSE(O.isDiscrepancy()) << O.encodedString();
  EXPECT_FALSE(O.TierDisagreement);
}

TEST(DiffTestTiers, TierDiffAppendsInterpAndBaselineProfiles) {
  Bytes Hello = serialize(makeHelloClass("Hello"));
  auto Tester = DifferentialTester::withTieredProfiles(
      corpusOf({{"Hello", Hello}}), EnvironmentMode::PerJvm,
      ExecTier::Threaded, /*TierDiff=*/true);
  ASSERT_EQ(Tester.profiles().size(), 7u);
  ASSERT_TRUE(Tester.tierPair().has_value());
  EXPECT_EQ(Tester.tierPair()->first, 5u);
  EXPECT_EQ(Tester.tierPair()->second, 6u);

  const ProfileDesc &Interp = Tester.profiles()[5];
  const ProfileDesc &Base = Tester.profiles()[6];
  const std::string RefName = referenceJvmPolicy().Name;
  EXPECT_EQ(Interp.Name, RefName + "~threaded");
  EXPECT_EQ(Interp.Tier, ExecTier::Threaded);
  EXPECT_EQ(Base.Name, RefName + "~baseline");
  EXPECT_EQ(Base.Tier, ExecTier::Baseline);
  // No profile publishes jit.* counters: the campaign commit stage is
  // their only source, so they stay jobs-invariant and count no
  // difftest or reducer work.
  for (const ProfileDesc &D : Tester.profiles())
    EXPECT_FALSE(D.Policy.JitTelemetry) << D.Name;
  // The PolicyView keeps legacy policies() callers (report rendering,
  // replay output) printing tier-qualified names.
  EXPECT_EQ(Tester.policies()[5].Name, Interp.Name);
  EXPECT_EQ(Tester.policies()[6].Name, Base.Name);

  DiffOutcome O = Tester.testClass("Hello");
  ASSERT_EQ(O.Encoded.size(), 7u);
  EXPECT_EQ(O.encodedString(), "0000000");
  EXPECT_FALSE(O.TierDisagreement);
}

TEST(DiffTestTiers, BaselineTierTesterPublishesNoJitCounters) {
  // The counters only count while telemetry is on.
  telemetry::setEnabled(true);
  Bytes Hello = serialize(makeHelloClass("Hello"));
  auto Tester = DifferentialTester::withTieredProfiles(
      corpusOf({{"Hello", Hello}}), EnvironmentMode::PerJvm,
      ExecTier::Baseline, /*TierDiff=*/false);
  for (const ProfileDesc &D : Tester.profiles()) {
    EXPECT_EQ(D.Tier, ExecTier::Baseline) << D.Name;
    EXPECT_FALSE(D.Policy.JitTelemetry) << D.Name;
  }
  telemetry::Counter &Compiles = telemetry::metrics().counter("jit.compiles");
  const uint64_t Before = Compiles.value();
  DiffOutcome O = Tester.testClass("Hello");
  EXPECT_EQ(O.encodedString(), "00000");
  EXPECT_EQ(Compiles.value(), Before);
  telemetry::setEnabled(false);
}

TEST(DiffTestTiers, Figure2ClassKeepsTiersAgreeing) {
  // A class the reference JVM rejects is rejected identically on both
  // tiers: the pair encodes the same phase, no tier disagreement.
  Bytes Data = serialize(makeFigure2Class());
  auto Tester = DifferentialTester::withTieredProfiles(
      corpusOf({{"M1436188543", Data}}), EnvironmentMode::PerJvm,
      ExecTier::Threaded, /*TierDiff=*/true);
  DiffOutcome O = Tester.testClass("M1436188543");
  ASSERT_EQ(O.Encoded.size(), 7u);
  EXPECT_EQ(O.Encoded[5], O.Encoded[6]);
  EXPECT_FALSE(O.TierDisagreement);
}

TEST(DiffStats, TierDisagreementsAreCounted) {
  DiffStats Stats;
  DiffOutcome Agree;
  Agree.Encoded = {0, 0, 0, 0, 0, 0, 0};
  DiffOutcome Disagree;
  Disagree.Encoded = {0, 0, 0, 0, 0, 0, 4};
  Disagree.TierDisagreement = true;
  Stats.add(Agree);
  Stats.add(Disagree);
  EXPECT_EQ(Stats.TierDisagreements, 1u);

  DiffStats Other;
  Other.add(Disagree);
  Stats.merge(Other);
  EXPECT_EQ(Stats.TierDisagreements, 2u);
}

TEST(DiffTest, TestClassParsesTheClassUnderTestOncePerCall) {
  // The parse counter only counts while telemetry is on.
  telemetry::setEnabled(true);
  auto Parsed = [] {
    return telemetry::metrics().counter("work.classes_parsed").value();
  };
  Bytes Hello = serialize(makeHelloClass("Hello"));
  ClassPath Corpus = corpusOf({{"Hello", Hello}});
  const ClassEntry &CorpusEntry = **Corpus.entry("Hello");

  std::vector<DifferentialTester> Testers;
  Testers.emplace_back(std::vector<JvmPolicy>{referenceJvmPolicy()}, Corpus,
                       EnvironmentMode::PerJvm);
  Testers.push_back(DifferentialTester::withAllProfiles(
      Corpus, EnvironmentMode::PerJvm));
  Testers.push_back(DifferentialTester::withTieredProfiles(
      Corpus, EnvironmentMode::PerJvm, ExecTier::Threaded,
      /*TierDiff=*/true));
  for (const DifferentialTester &Tester : Testers) {
    const size_t NumProfiles = Tester.profiles().size();
    // The first call also parses the library classes Hello loads, once
    // per environment; from then on only the class under test parses.
    (void)Tester.testClass("Hello");
    for (int Call = 0; Call != 3; ++Call) {
      const uint64_t Before = Parsed();
      DiffOutcome O = Tester.testClass("Hello");
      EXPECT_EQ(Parsed() - Before, 1u) << NumProfiles << " profiles";
      EXPECT_EQ(O.encodedString(), std::string(NumProfiles, '0'));
    }
    const uint64_t Before = Parsed();
    DiffOutcome O = Tester.testClass("Hello", Hello);
    EXPECT_EQ(Parsed() - Before, 1u) << NumProfiles << " profiles";
    EXPECT_EQ(O.encodedString(), std::string(NumProfiles, '0'));
  }
  // testClass(Name) shadowed the corpus entry instead of parsing it, so
  // reading it now is its first parse.
  const uint64_t Before = Parsed();
  (void)CorpusEntry.parsed();
  EXPECT_EQ(Parsed() - Before, 1u) << "the corpus entry was parsed";
  telemetry::setEnabled(false);
}
