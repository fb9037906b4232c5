//===- bench/bench_micro_fuzzing.cpp ---------------------------------------===//
//
// Microbenchmarks of the fuzzing machinery: single mutation, MCMC
// selection, coverage uniqueness checks, and the reducer. Together with
// bench_micro_jvm these decompose the per-iteration cost of Table 4.
//
//===----------------------------------------------------------------------===//

#include "coverage/Uniqueness.h"
#include "jvm/ClassPath.h"
#include "mcmc/McmcSelector.h"
#include "mutation/Engine.h"
#include "runtime/RuntimeLib.h"
#include "runtime/SeedCorpus.h"

#include <benchmark/benchmark.h>

#include <map>
#include <string>

using namespace classfuzz;

namespace {

void BM_MutateClass(benchmark::State &State) {
  Rng SeedRng(7);
  auto Seeds = generateSeedCorpus(SeedRng, 1);
  auto Known = buildRuntimeLibrary("jre8").names();
  Rng R(11);
  MutationContext Ctx{R, Known};
  size_t Index = 0;
  for (auto _ : State) {
    MutationOutcome Out =
        mutateClass(Seeds[0].Data, Index % NumMutators, Ctx);
    benchmark::DoNotOptimize(Out.Produced);
    ++Index;
  }
}
BENCHMARK(BM_MutateClass);

void BM_McmcSelectNext(benchmark::State &State) {
  McmcSelector S(NumMutators);
  Rng R(3);
  // Pre-train with a skewed profile so the ranking is non-trivial.
  for (size_t I = 0; I != NumMutators; ++I)
    S.recordOutcome(I, I % 3 == 0);
  for (auto _ : State)
    benchmark::DoNotOptimize(S.selectNext(R));
}
BENCHMARK(BM_McmcSelectNext);

void BM_McmcRecordOutcome(benchmark::State &State) {
  McmcSelector S(NumMutators);
  Rng R(3);
  size_t I = 0;
  for (auto _ : State) {
    S.recordOutcome(I % NumMutators, I % 5 == 0);
    ++I;
  }
}
BENCHMARK(BM_McmcRecordOutcome);

Tracefile makeTrace(uint64_t Salt, size_t Size) {
  Tracefile T;
  for (size_t I = 0; I != Size; ++I) {
    T.addStmt(static_cast<uint32_t>((Salt * 31 + I * 7) % 4096));
    T.addBranch(static_cast<uint32_t>((Salt * 17 + I * 13) % 2048),
                I % 2 == 0);
  }
  return T;
}

void BM_UniquenessCheckStBr(benchmark::State &State) {
  UniquenessChecker C(UniquenessCriterion::StBr);
  for (uint64_t I = 0; I != 1000; ++I)
    C.insert(makeTrace(I, 64 + I % 64));
  uint64_t Salt = 0;
  for (auto _ : State) {
    ++Salt;
    Tracefile T = makeTrace(Salt, 64 + Salt % 64);
    benchmark::DoNotOptimize(C.isUnique(T));
  }
}
BENCHMARK(BM_UniquenessCheckStBr);

void BM_UniquenessCheckTr(benchmark::State &State) {
  UniquenessChecker C(UniquenessCriterion::Tr);
  for (uint64_t I = 0; I != 1000; ++I)
    C.insert(makeTrace(I, 64));
  uint64_t Salt = 0;
  for (auto _ : State) {
    Tracefile T = makeTrace(Salt++, 64);
    benchmark::DoNotOptimize(C.isUnique(T));
  }
}
BENCHMARK(BM_UniquenessCheckTr);

void BM_TracefileMerge(benchmark::State &State) {
  Tracefile A = makeTrace(1, 512);
  Tracefile B = makeTrace(2, 512);
  for (auto _ : State) {
    Tracefile M = A.mergedWith(B);
    benchmark::DoNotOptimize(M.stmtCount());
  }
}
BENCHMARK(BM_TracefileMerge);

void BM_TracefileFingerprint(benchmark::State &State) {
  Tracefile T = makeTrace(5, 1024);
  for (auto _ : State)
    benchmark::DoNotOptimize(T.fingerprint());
}
BENCHMARK(BM_TracefileFingerprint);

/// One reference run's coverage lifecycle: construct a recorder, replay a
/// duplicate-heavy probe stream, materialize the trace. The stream mimics
/// a run's shape (a classfuzz[stbr] run averages ~300 probes over ~70
/// distinct ids): hot per-opcode ids and a loop's branch site repeat,
/// while line and parser-path ids of files 1-3 are hit a few times each.
void BM_CoverageRecorder(benchmark::State &State) {
  struct Probe {
    uint32_t Id;
    bool Branch;
    bool Taken;
  };
  std::vector<Probe> Stream;
  Rng R(5);
  auto Below = [&](uint64_t Bound) {
    return static_cast<uint32_t>(R.nextBelow(Bound));
  };
  for (int64_t I = 0; I != State.range(0); ++I) {
    switch (R.nextBelow(4)) {
    case 0: // Execution loop: 24 hot opcodes of file 4.
      Stream.push_back({(4u << 16) | 0x8000u | Below(24), false, false});
      break;
    case 1: { // Line probes of the format checker, verifier and Vm.
      uint32_t File = 1 + Below(3);
      Stream.push_back({(File << 16) | Below(40) * 7, false, false});
      break;
    }
    case 2: // Parser-path ids.
      Stream.push_back({(3u << 16) | 0xE000u | Below(16), false, false});
      break;
    default: // Branch sites, mostly one direction.
      Stream.push_back({(2u << 16) | Below(30) * 11, true, Below(8) != 0});
      break;
    }
  }
  for (auto _ : State) {
    CoverageRecorder Rec;
    for (const Probe &P : Stream)
      P.Branch ? Rec.branch(P.Id, P.Taken) : Rec.stmt(P.Id);
    Tracefile T = Rec.takeTrace();
    benchmark::DoNotOptimize(T.stmtCount());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_CoverageRecorder)->Arg(300)->Arg(3000);

ClassPath makeCorpus(size_t NumClasses) {
  ClassPath CP;
  for (size_t I = 0; I != NumClasses; ++I) {
    std::string Name = "Seed" + std::to_string(I);
    CP.add(Name, Bytes(256 + I % 512, static_cast<uint8_t>(I)));
  }
  return CP;
}

/// Per-mutant environment setup, old style: a full deep copy of the
/// corpus map. Cost grows linearly with corpus size.
void BM_EnvSetupDeepCopy(benchmark::State &State) {
  ClassPath Corpus = makeCorpus(static_cast<size_t>(State.range(0)));
  std::map<std::string, Bytes> Flat;
  for (const std::string &Name : Corpus.names())
    Flat.emplace(Name, *Corpus.lookup(Name));
  Bytes Mutant(300, 0xCF);
  for (auto _ : State) {
    std::map<std::string, Bytes> Env = Flat;
    Env["Mutant"] = Mutant;
    benchmark::DoNotOptimize(Env.size());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_EnvSetupDeepCopy)->Range(8, 4096)->Complexity();

/// Per-mutant environment setup, current style: copy shares the frozen
/// base; only the single mutant lands in the overlay. Cost is O(1) in
/// corpus size.
void BM_EnvSetupOverlay(benchmark::State &State) {
  ClassPath Corpus = makeCorpus(static_cast<size_t>(State.range(0)));
  Corpus.freeze();
  Bytes Mutant(300, 0xCF);
  for (auto _ : State) {
    ClassPath Env = Corpus;
    Env.add("Mutant", Mutant);
    benchmark::DoNotOptimize(Env.lookup("Mutant"));
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_EnvSetupOverlay)->Range(8, 4096)->Complexity();

} // namespace

BENCHMARK_MAIN();
