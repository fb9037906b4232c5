//===- tests/fuzzing/seedsched_test.cpp ------------------------------------===//
//
// The seed scheduler (fuzzing/SeedScheduler.h) and its campaign wiring.
// The load-bearing property is the determinism contract: every policy
// consumes exactly one nextBelow(entries()) per pick, so switching
// --seed-sched never perturbs the Rng stream feeding mutator selection.
//
//===----------------------------------------------------------------------===//

#include "fuzzing/Campaign.h"
#include "fuzzing/SeedScheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <vector>

using namespace classfuzz;

namespace {

Tracefile traceOf(std::initializer_list<uint32_t> Sites) {
  Tracefile T;
  for (uint32_t S : Sites)
    T.addBranch(S, true);
  return T;
}

CampaignConfig schedConfig(FuzzAlgorithm Algo, SeedSchedPolicy Policy,
                           size_t Iterations = 150) {
  CampaignConfig Config;
  Config.Algo = Algo;
  Config.Iterations = Iterations;
  Config.RngSeed = 11;
  Config.NumSeeds = 13;
  Config.SeedSched = Policy;
  return Config;
}

/// Trajectory equality plus the scheduler census.
void expectIdenticalSchedResults(const CampaignResult &A,
                                 const CampaignResult &B) {
  ASSERT_EQ(A.Iterations, B.Iterations);
  ASSERT_EQ(A.numGenerated(), B.numGenerated());
  for (size_t I = 0; I != A.GenClasses.size(); ++I) {
    EXPECT_EQ(A.GenClasses[I].Name, B.GenClasses[I].Name);
    EXPECT_EQ(A.GenClasses[I].Data, B.GenClasses[I].Data);
    EXPECT_EQ(A.GenClasses[I].MutatorIndex, B.GenClasses[I].MutatorIndex);
  }
  EXPECT_EQ(A.TestClassIndices, B.TestClassIndices);
  EXPECT_EQ(A.MutatorSelected, B.MutatorSelected);
  EXPECT_EQ(A.SchedDraws, B.SchedDraws);
  EXPECT_EQ(A.SchedRareDraws, B.SchedRareDraws);
  EXPECT_EQ(A.SchedEpochs, B.SchedEpochs);
}

/// From-scratch reference scorer: rescans every entry's branches at
/// every rebuild and rebuilds the full slot table (identity included),
/// the way the scheduler worked before its state became incremental.
class ReferenceScheduler {
public:
  explicit ReferenceScheduler(SeedScheduler::Options Opts) : Opts(Opts) {}

  void addEntry(const Tracefile &Trace) {
    Branches.emplace_back(Trace.branches().begin(), Trace.branches().end());
    Prints.push_back(Trace.fingerprint());
  }

  void noteTrace(const Tracefile &Trace) {
    for (uint32_t B : Trace.branches())
      ++Hits[B];
  }

  void rebuild() {
    const size_t N = Branches.size();
    Scores.assign(N, 0);
    size_t Total = 0;
    RareCount = 0;
    for (size_t I = 0; I != N; ++I) {
      for (uint32_t B : Branches[I]) {
        auto It = Hits.find(B);
        Scores[I] += (It == Hits.end() ? 0 : It->second) <= Opts.RareThreshold;
      }
      Total += Scores[I];
      RareCount += Scores[I] > 0;
    }
    std::vector<std::vector<size_t>> Clusters;
    std::unordered_map<uint64_t, size_t> KeyToCluster;
    for (size_t I = 0; I != N; ++I) {
      auto [It, Fresh] = KeyToCluster.try_emplace(Prints[I], Clusters.size());
      if (Fresh)
        Clusters.emplace_back();
      Clusters[It->second].push_back(I);
    }
    ClusterCount = Clusters.size();

    DrawMap.resize(N);
    std::iota(DrawMap.begin(), DrawMap.end(), 0);
    if (Opts.Policy == SeedSchedPolicy::Rare && Total != 0) {
      std::vector<size_t> Slots(N);
      std::vector<uint64_t> Rem(N);
      size_t Assigned = 0;
      for (size_t I = 0; I != N; ++I) {
        Slots[I] = N * Scores[I] / Total;
        Rem[I] = N * Scores[I] % Total;
        Assigned += Slots[I];
      }
      std::vector<size_t> Order(N);
      std::iota(Order.begin(), Order.end(), 0);
      std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
        return Rem[A] != Rem[B] ? Rem[A] > Rem[B] : A < B;
      });
      for (size_t K = 0; Assigned < N; ++K, ++Assigned)
        ++Slots[Order[K % N]];
      DrawMap.clear();
      for (size_t I = 0; I != N; ++I)
        DrawMap.insert(DrawMap.end(), Slots[I], I);
    } else if (Opts.Policy == SeedSchedPolicy::Cluster && N != 0) {
      DrawMap.clear();
      const size_t C = Clusters.size();
      for (size_t Cl = 0; Cl != C; ++Cl)
        for (size_t K = 0; K != N / C + (Cl < N % C); ++K)
          DrawMap.push_back(Clusters[Cl][K % Clusters[Cl].size()]);
    }
  }

  size_t pick(Rng &R) const {
    size_t Draw = static_cast<size_t>(R.nextBelow(Branches.size()));
    return DrawMap.size() == Branches.size() ? DrawMap[Draw] : Draw;
  }

  size_t rareScore(size_t I) const { return I < Scores.size() ? Scores[I] : 0; }
  size_t rareEntries() const { return RareCount; }
  size_t clusters() const { return ClusterCount; }
  size_t entries() const { return Branches.size(); }

private:
  SeedScheduler::Options Opts;
  std::vector<std::vector<uint32_t>> Branches;
  std::vector<uint64_t> Prints;
  std::unordered_map<uint32_t, uint64_t> Hits;
  std::vector<size_t> Scores; ///< As of the last rebuild.
  std::vector<size_t> DrawMap;
  size_t RareCount = 0;
  size_t ClusterCount = 0;
};

/// A random trace over a small site universe, so branches repeat across
/// entries and cross the rarity threshold at varied times; some traces
/// are empty (coverage-free entries) and some repeat exactly (shared
/// cluster fingerprints).
Tracefile randomTrace(Rng &Gen) {
  Tracefile T;
  if (Gen.nextBool(0.1))
    return T;
  if (Gen.nextBool(0.2))
    return traceOf({1, 2, 3});
  const uint64_t Sites = 1 + Gen.nextBelow(8);
  for (uint64_t K = 0; K != Sites; ++K)
    T.addBranch(static_cast<uint32_t>(Gen.nextBelow(40)), Gen.nextBool());
  return T;
}

} // namespace

TEST(SeedSchedPolicyNames, ParseAndPrintRoundTrip) {
  for (SeedSchedPolicy P :
       {SeedSchedPolicy::Uniform, SeedSchedPolicy::Rare,
        SeedSchedPolicy::Cluster}) {
    SeedSchedPolicy Parsed;
    ASSERT_TRUE(parseSeedSchedPolicy(seedSchedPolicyName(P), Parsed));
    EXPECT_EQ(Parsed, P);
  }
  SeedSchedPolicy Out;
  EXPECT_FALSE(parseSeedSchedPolicy("greedy", Out));
  EXPECT_FALSE(parseSeedSchedPolicy("", Out));
}

TEST(SeedScheduler, UniformIsBitCompatibleWithChoiceIndex) {
  // The uniform policy must reproduce the historical
  // R.choiceIndex(Pool.size()) draw exactly -- same picks, same Rng
  // state afterwards.
  SeedScheduler::Options Opts;
  SeedScheduler Sched(Opts);
  for (uint32_t I = 0; I != 7; ++I)
    Sched.addEntry(traceOf({I, I + 10}));
  Sched.rebuild();
  Rng A(42), B(42);
  for (int I = 0; I != 200; ++I)
    EXPECT_EQ(Sched.pick(A), B.choiceIndex(7));
  EXPECT_EQ(A.state(), B.state());
}

TEST(SeedScheduler, EveryPolicyConsumesIdenticalDraws) {
  // One nextBelow(entries()) per pick for every policy: after any
  // number of picks the three Rng streams are in the same state, so
  // whatever the campaign draws next is policy-independent.
  std::vector<SeedScheduler> Scheds;
  for (SeedSchedPolicy P :
       {SeedSchedPolicy::Uniform, SeedSchedPolicy::Rare,
        SeedSchedPolicy::Cluster}) {
    SeedScheduler::Options Opts;
    Opts.Policy = P;
    Scheds.emplace_back(Opts);
  }
  for (SeedScheduler &S : Scheds) {
    S.addEntry(traceOf({1, 2, 3}));
    S.addEntry(traceOf({1, 2, 3}));
    S.addEntry(traceOf({4}));
    S.addEntry(traceOf({5, 6}));
    S.addEntryNoCoverage();
    for (int I = 0; I != 9; ++I)
      S.noteTrace(traceOf({1, 2, 3}));
    S.rebuild();
  }
  Rng U(9), Ra(9), Cl(9);
  for (int I = 0; I != 300; ++I) {
    size_t PU = Scheds[0].pick(U);
    size_t PR = Scheds[1].pick(Ra);
    size_t PC = Scheds[2].pick(Cl);
    EXPECT_LT(PU, 5u);
    EXPECT_LT(PR, 5u);
    EXPECT_LT(PC, 5u);
    ASSERT_EQ(U.state(), Ra.state());
    ASSERT_EQ(U.state(), Cl.state());
  }
}

TEST(SeedScheduler, RareRoutesAllMassToRareCoveringEntries) {
  // Entry 0 covers a site folded once (rare at the default threshold);
  // entry 1 covers only a site folded far past it. Largest-remainder
  // apportionment then gives entry 0 both slots.
  SeedScheduler::Options Opts;
  Opts.Policy = SeedSchedPolicy::Rare;
  SeedScheduler Sched(Opts);
  Sched.addEntry(traceOf({100}));
  Sched.addEntry(traceOf({200}));
  Sched.noteTrace(traceOf({100}));
  for (int I = 0; I != 50; ++I)
    Sched.noteTrace(traceOf({200}));
  Sched.rebuild();
  EXPECT_GT(Sched.rareScore(0), 0u);
  EXPECT_EQ(Sched.rareScore(1), 0u);
  EXPECT_EQ(Sched.rareEntries(), 1u);
  Rng R(3);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Sched.pick(R), 0u);
}

TEST(SeedScheduler, RareWithNothingRareFallsBackToUniform) {
  SeedScheduler::Options Opts;
  Opts.Policy = SeedSchedPolicy::Rare;
  Opts.RareThreshold = 2;
  SeedScheduler Sched(Opts);
  for (uint32_t I = 0; I != 4; ++I)
    Sched.addEntry(traceOf({I}));
  for (int Fold = 0; Fold != 8; ++Fold)
    Sched.noteTrace(traceOf({0, 1, 2, 3}));
  Sched.rebuild();
  EXPECT_EQ(Sched.rareEntries(), 0u);
  Rng A(5), B(5);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Sched.pick(A), B.choiceIndex(4));
}

TEST(SeedScheduler, ClusterSplitsMassEquallyAcrossFingerprints) {
  // Entries 0-2 share one coverage fingerprint, entry 3 has its own:
  // two clusters, two slots each. The redundant trio shares its
  // cluster's budget (round-robin -> entries 0 and 1), while entry 3
  // fills its cluster's both slots -- half the total mass.
  SeedScheduler::Options Opts;
  Opts.Policy = SeedSchedPolicy::Cluster;
  SeedScheduler Sched(Opts);
  Sched.addEntry(traceOf({1, 2}));
  Sched.addEntry(traceOf({1, 2}));
  Sched.addEntry(traceOf({1, 2}));
  Sched.addEntry(traceOf({9}));
  Sched.rebuild();
  EXPECT_EQ(Sched.clusters(), 2u);
  Rng R(7);
  size_t Counts[4] = {0, 0, 0, 0};
  constexpr int Picks = 4000;
  for (int I = 0; I != Picks; ++I)
    ++Counts[Sched.pick(R)];
  EXPECT_EQ(Counts[2], 0u) << "third redundant member gets no slot";
  EXPECT_GT(Counts[3], Picks / 3) << "singleton cluster holds half the mass";
  EXPECT_EQ(Counts[0] + Counts[1] + Counts[3], static_cast<size_t>(Picks));
}

TEST(SeedScheduler, IncrementalStateMatchesFromScratchReference) {
  // Random add / note / rebuild sequences: after every operation the
  // scores ("as of the last rebuild") match the reference, and after
  // every rebuild so do the census and a long pick() sequence.
  for (SeedSchedPolicy P : {SeedSchedPolicy::Uniform, SeedSchedPolicy::Rare,
                            SeedSchedPolicy::Cluster}) {
    for (size_t Threshold : {0u, 1u, 2u, 5u}) {
      for (uint64_t Seed = 1; Seed != 5; ++Seed) {
        SCOPED_TRACE(std::string(seedSchedPolicyName(P)) + " threshold " +
                     std::to_string(Threshold) + " seed " +
                     std::to_string(Seed));
        SeedScheduler::Options Opts;
        Opts.Policy = P;
        Opts.RareThreshold = Threshold;
        SeedScheduler Sched(Opts);
        ReferenceScheduler Ref(Opts);
        Rng Gen(Seed);
        for (int Op = 0; Op != 400; ++Op) {
          const uint64_t Kind = Gen.nextBelow(10);
          if (Kind < 3) {
            Tracefile T = randomTrace(Gen);
            Sched.addEntry(T);
            Ref.addEntry(T);
          } else if (Kind < 8) {
            Tracefile T = randomTrace(Gen);
            Sched.noteTrace(T);
            Ref.noteTrace(T);
          } else {
            Sched.rebuild();
            Ref.rebuild();
            ASSERT_EQ(Sched.rareEntries(), Ref.rareEntries());
            ASSERT_EQ(Sched.clusters(), Ref.clusters());
            if (Sched.entries() != 0) {
              Rng A(Seed * 31 + Op), B(Seed * 31 + Op);
              for (int K = 0; K != 200; ++K)
                ASSERT_EQ(Sched.pick(A), Ref.pick(B));
              ASSERT_EQ(A.state(), B.state());
            }
          }
          ASSERT_EQ(Sched.entries(), Ref.entries());
          for (size_t I = 0; I != Ref.entries(); ++I)
            ASSERT_EQ(Sched.rareScore(I), Ref.rareScore(I)) << "entry " << I;
        }
      }
    }
  }
}

TEST(SeedSchedCampaign, RareChargesOneDrawPerIteration) {
  auto R = runCampaign(
      schedConfig(FuzzAlgorithm::ClassfuzzDdFine, SeedSchedPolicy::Rare));
  EXPECT_EQ(R.SchedDraws, R.Iterations);
  EXPECT_GE(R.SchedEpochs, 1u);
}

TEST(SeedSchedCampaign, ClusterChargesOneDrawPerIteration) {
  auto R = runCampaign(
      schedConfig(FuzzAlgorithm::ClassfuzzStBr, SeedSchedPolicy::Cluster));
  EXPECT_EQ(R.SchedDraws, R.Iterations);
}

TEST(SeedSchedCampaign, RareWorksWithoutFrontierTracking) {
  // The scheduler owns its hit-count table; --frontier is not required.
  CampaignConfig Config = schedConfig(FuzzAlgorithm::ClassfuzzDdFine,
                                      SeedSchedPolicy::Rare, 80);
  ASSERT_FALSE(Config.TrackFrontier);
  auto R = runCampaign(Config);
  EXPECT_EQ(R.SchedDraws, R.Iterations);
  EXPECT_GE(R.SchedEpochs, 1u);
}

TEST(SeedSchedCampaign, RandfuzzDegradesToUniform) {
  // randfuzz never collects coverage, so a learned policy has no signal
  // to learn from; the campaign runs it as uniform and no draw is ever
  // attributed to a rare entry.
  auto Rare = runCampaign(
      schedConfig(FuzzAlgorithm::Randfuzz, SeedSchedPolicy::Rare, 100));
  auto Uniform = runCampaign(
      schedConfig(FuzzAlgorithm::Randfuzz, SeedSchedPolicy::Uniform, 100));
  expectIdenticalSchedResults(Rare, Uniform);
  EXPECT_EQ(Rare.SchedRareDraws, 0u);
  EXPECT_EQ(Rare.SchedDraws, Rare.Iterations);
}
