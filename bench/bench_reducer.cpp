//===- bench/bench_reducer.cpp - Chunked HDD vs per-element reduction ----===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
//
// Measures the §2.3 reducer on a bloated discrepancy-triggering fixture
// (the Figure 2 <clinit> defect buried under junk fields, noise methods,
// and padded bodies), where every oracle query is a full five-profile
// differential run:
//
//   * legacy     one-element-at-a-time scan (ChunkedHdd = false)
//   * chunked    ddmin chunks n/2, n/4, ..., 1 + memo cache
//
// Prints oracle queries, cache hits, and wall time per configuration,
// and exits non-zero when chunking saves fewer than 30% of the legacy
// queries (so CI enforces it).
//
//   bench_reducer [--write-fixture PATH]   write the fixture classfile
//                                          and exit (for CLI smoke tests)
//
//===----------------------------------------------------------------------===//

#include "classfile/ClassWriter.h"
#include "classfile/CodeBuilder.h"
#include "difftest/DiffTest.h"
#include "reducer/Reducer.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

using namespace classfuzz;

namespace {

constexpr const char *FixtureName = "BloatedFixture";

/// The reduction workload: one real trigger under layers of junk the
/// reducer must strip -- wide member lists so chunking has room to win.
Bytes buildFixture() {
  ClassFile CF;
  CF.ThisClass = FixtureName;
  CF.SuperClass = "java/lang/Object";
  CF.AccessFlags = ACC_PUBLIC | ACC_SUPER;
  CF.Interfaces.push_back("java/io/Serializable");

  for (int I = 0; I != 48; ++I) {
    FieldInfo F;
    F.Name = "junk" + std::to_string(I);
    F.Descriptor = I % 3 == 0 ? "Ljava/lang/String;" : (I % 3 == 1 ? "I" : "J");
    F.AccessFlags = I % 2 ? ACC_PRIVATE : ACC_PUBLIC;
    CF.Fields.push_back(std::move(F));
  }

  for (int I = 0; I != 10; ++I) {
    MethodInfo M;
    M.Name = "noise" + std::to_string(I);
    M.Descriptor = "()I";
    M.AccessFlags = ACC_PUBLIC | ACC_STATIC;
    CodeBuilder B(CF.CP);
    for (int K = 0; K != 4; ++K) {
      B.pushInt(I * 100 + K);
      B.emit(OP_pop);
    }
    B.pushInt(I);
    B.emit(OP_ireturn);
    CodeAttr Code;
    Code.MaxStack = 1;
    Code.MaxLocals = 0;
    Code.Code = B.build();
    M.Code = std::move(Code);
    M.Exceptions.push_back("java/lang/Exception");
    M.Exceptions.push_back("java/lang/RuntimeException");
    CF.Methods.push_back(std::move(M));
  }

  {
    MethodInfo Main;
    Main.Name = "main";
    Main.Descriptor = "([Ljava/lang/String;)V";
    Main.AccessFlags = ACC_PUBLIC | ACC_STATIC;
    CodeBuilder B(CF.CP);
    for (int K = 0; K != 6; ++K)
      B.emit(OP_nop);
    B.getStatic("java/lang/System", "out", "Ljava/io/PrintStream;");
    B.pushString("Completed!");
    B.invokeVirtual("java/io/PrintStream", "println",
                    "(Ljava/lang/String;)V");
    B.emit(OP_return);
    CodeAttr Code;
    Code.MaxStack = 2;
    Code.MaxLocals = 1;
    Code.Code = B.build();
    Main.Code = std::move(Code);
    CF.Methods.push_back(std::move(Main));
  }

  // The trigger (Problem 1): abstract <clinit> splits the five VMs.
  MethodInfo Clinit;
  Clinit.Name = "<clinit>";
  Clinit.Descriptor = "()V";
  Clinit.AccessFlags = ACC_PUBLIC | ACC_ABSTRACT;
  CF.Methods.push_back(std::move(Clinit));

  auto Data = writeClassFile(CF);
  if (!Data) {
    std::fprintf(stderr, "fixture build failed: %s\n",
                 Data.error().c_str());
    std::exit(1);
  }
  return Data.take();
}

struct RunResult {
  ReductionStats Stats;
  Bytes Reduced;
  double WallMs = 0;
};

RunResult runOnce(const Bytes &Input, const ReductionOracle &Oracle,
                  const ReducerOptions &Opts) {
  RunResult R;
  auto T0 = std::chrono::steady_clock::now();
  auto Out = reduceClassfile(Input, Oracle, Opts, &R.Stats);
  auto T1 = std::chrono::steady_clock::now();
  if (!Out) {
    std::fprintf(stderr, "reduction failed: %s\n", Out.error().c_str());
    std::exit(1);
  }
  R.Reduced = Out.take();
  R.WallMs =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          T1 - T0)
          .count();
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  Bytes Fixture = buildFixture();

  if (Argc == 3 && std::strcmp(Argv[1], "--write-fixture") == 0) {
    std::ofstream Out(Argv[2], std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Fixture.data()),
              static_cast<std::streamsize>(Fixture.size()));
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", Argv[2]);
      return 1;
    }
    std::printf("wrote %zu-byte fixture to %s\n", Fixture.size(), Argv[2]);
    return 0;
  }

  auto Tester = DifferentialTester::withAllProfiles(
      ClassPath(), EnvironmentMode::Shared, "jre8");
  const std::string Target =
      Tester.testClass(FixtureName, Fixture).encodedString();
  bool Constant = true;
  for (char C : Target)
    Constant &= C == Target[0];
  if (Constant) {
    std::fprintf(stderr, "fixture triggers no discrepancy (\"%s\")\n",
                 Target.c_str());
    return 1;
  }
  ReductionOracle Oracle = [&](const std::string &Name,
                               const Bytes &Candidate) {
    return Tester.testClass(Name, Candidate).encodedString() == Target;
  };

  ReducerOptions Legacy;
  Legacy.ChunkedHdd = false;
  ReducerOptions Chunked;

  std::printf("reducing a %zu-byte fixture (discrepancy \"%s\"), "
              "oracle = 5-profile differential run\n\n",
              Fixture.size(), Target.c_str());
  RunResult L = runOnce(Fixture, Oracle, Legacy);
  RunResult C = runOnce(Fixture, Oracle, Chunked);

  std::printf("%-22s %8s %8s %8s %10s %9s\n", "configuration", "queries",
              "hits", "kept", "wall-ms", "bytes");
  auto Row = [](const char *Name, const RunResult &R) {
    std::printf("%-22s %8zu %8zu %8zu %10.1f %9zu\n", Name,
                R.Stats.OracleQueries, R.Stats.CacheHits,
                R.Stats.DeletionsKept, R.WallMs, R.Reduced.size());
  };
  Row("legacy per-element", L);
  Row("chunked", C);

  double Savings =
      100.0 * (1.0 - static_cast<double>(C.Stats.OracleQueries) /
                         static_cast<double>(L.Stats.OracleQueries));
  double Speedup = C.WallMs > 0 ? L.WallMs / C.WallMs : 0;
  std::printf("\nchunked saves %.1f%% oracle queries vs legacy "
              "(%.2fx wall)\n",
              Savings, Speedup);

  if (Savings < 30.0) {
    std::fprintf(stderr,
                 "FAIL: chunked HDD saved %.1f%% queries (budget: >= 30%%)\n",
                 Savings);
    return 1;
  }
  return 0;
}
