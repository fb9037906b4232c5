//===- bench/bench_micro_jvm.cpp -------------------------------------------===//
//
// Microbenchmarks of the JVM substrate: format checking, verification,
// full startup with and without coverage collection (the latter gap is
// what makes randfuzz ~20x cheaper per class in Table 4), and the two
// execution tiers of DESIGN.md §13 over the invoke-heavy workload of
// InvokeHeavyClass.h. These are timings only; that each tier lowers a
// method once per Vm, not once per call, is an exact count checked by
// ExecTiers.InvokeHeavyClassPredecodesEachMethodOncePerVm.
//
//===----------------------------------------------------------------------===//

#include "InvokeHeavyClass.h"
#include "classfile/ClassReader.h"
#include "jvm/Phase.h"
#include "jvm/FormatChecker.h"
#include "jvm/Verifier.h"
#include "jvm/Vm.h"
#include "runtime/RuntimeLib.h"
#include "runtime/SeedCorpus.h"

#include <benchmark/benchmark.h>

using namespace classfuzz;

namespace {

struct Fixture {
  Fixture() : Env(buildRuntimeLibrary("jre9")) {
    Rng R(5);
    auto Seeds = generateSeedCorpus(R, 3);
    Seed = Seeds[2]; // the loop seed
    Env.add(Seed.Name, Seed.Data);
    CF = parseClassFile(Seed.Data).take();
  }
  ClassPath Env;
  SeedClass Seed;
  ClassFile CF;
};

Fixture &fixture() {
  static Fixture F;
  return F;
}

void BM_FormatCheck(benchmark::State &State) {
  Fixture &F = fixture();
  JvmPolicy Policy = makeHotSpot9Policy();
  for (auto _ : State) {
    auto Out = checkClassFormat(F.CF, Policy, nullptr);
    benchmark::DoNotOptimize(Out.has_value());
  }
}
BENCHMARK(BM_FormatCheck);

void BM_VerifyMethod(benchmark::State &State) {
  Fixture &F = fixture();
  JvmPolicy Policy = makeHotSpot9Policy();
  const MethodInfo *Main = F.CF.findMethodByName("main");
  ClassLookupFn Lookup = [](const std::string &) { return nullptr; };
  for (auto _ : State) {
    auto Out = verifyMethod(F.CF, *Main, Policy, Lookup, nullptr);
    benchmark::DoNotOptimize(Out.has_value());
  }
}
BENCHMARK(BM_VerifyMethod);

void BM_FullStartupNoCoverage(benchmark::State &State) {
  Fixture &F = fixture();
  JvmPolicy Policy = makeHotSpot9Policy();
  for (auto _ : State) {
    Vm Jvm(Policy, F.Env);
    JvmResult R = Jvm.run(F.Seed.Name);
    benchmark::DoNotOptimize(R.Invoked);
  }
}
BENCHMARK(BM_FullStartupNoCoverage);

void BM_FullStartupWithCoverage(benchmark::State &State) {
  Fixture &F = fixture();
  JvmPolicy Policy = makeHotSpot9Policy();
  for (auto _ : State) {
    CoverageRecorder Recorder;
    Vm Jvm(Policy, F.Env, &Recorder);
    JvmResult R = Jvm.run(F.Seed.Name);
    benchmark::DoNotOptimize(Recorder.takeTrace().stmtCount());
    benchmark::DoNotOptimize(R.Invoked);
  }
}
BENCHMARK(BM_FullStartupWithCoverage);

void BM_StartupAcrossProfiles(benchmark::State &State) {
  Fixture &F = fixture();
  auto Policies = allJvmPolicies();
  for (auto _ : State) {
    for (const JvmPolicy &P : Policies) {
      Vm Jvm(P, F.Env);
      JvmResult R = Jvm.run(F.Seed.Name);
      benchmark::DoNotOptimize(encodePhase(R));
    }
  }
}
BENCHMARK(BM_StartupAcrossProfiles);

// ---- execution tiers -----------------------------------------------------

struct TierFixture {
  TierFixture() {
    Policy = referenceJvmPolicy();
    Policy.MaxInterpSteps = 10'000'000;
    Policy.JitTelemetry = false;
    Env = runtimeLibraryFor(Policy);
    Env.add("TierBench", makeInvokeHeavyClass());
  }
  JvmPolicy Policy;
  ClassPath Env;
};

TierFixture &tierFixture() {
  static TierFixture F;
  return F;
}

void benchTier(benchmark::State &State, ExecTier Tier) {
  TierFixture &F = tierFixture();
  JvmPolicy P = F.Policy;
  P.Tier = Tier;
  for (auto _ : State) {
    Vm Jvm(P, F.Env);
    JvmResult R = Jvm.run("TierBench");
    benchmark::DoNotOptimize(R.Invoked);
  }
}

void BM_InvokeHeavyThreadedTier(benchmark::State &State) {
  benchTier(State, ExecTier::Threaded);
}
BENCHMARK(BM_InvokeHeavyThreadedTier);

void BM_InvokeHeavyBaselineTier(benchmark::State &State) {
  benchTier(State, ExecTier::Baseline);
}
BENCHMARK(BM_InvokeHeavyBaselineTier);

} // namespace

BENCHMARK_MAIN();
