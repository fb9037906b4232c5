//===- examples/reduce_discrepancy.cpp - §2.3 reduction walkthrough ------===//
//
// Takes a bloated discrepancy-triggering classfile (the Figure 2
// <clinit> defect buried under unrelated members), reduces it with the
// hierarchical delta debugger against a five-JVM oracle, and shows the
// before/after Jimple views -- the workflow an engineer follows before
// reporting a JVM defect.
//
// Run: ./reduce_discrepancy
//
//===----------------------------------------------------------------------===//

#include "classfile/ClassWriter.h"
#include "classfile/CodeBuilder.h"
#include "difftest/DiffTest.h"
#include "jir/Jir.h"
#include "reducer/Reducer.h"

#include <cstdio>

using namespace classfuzz;

namespace {

/// A noisy class: the Problem 1 trigger plus junk fields and methods.
Bytes buildBloatedClass() {
  ClassFile CF;
  CF.ThisClass = "M1436188543";
  CF.SuperClass = "java/lang/Object";
  CF.AccessFlags = ACC_PUBLIC | ACC_SUPER;

  for (int I = 0; I != 5; ++I) {
    FieldInfo F;
    F.Name = "junk" + std::to_string(I);
    F.Descriptor = I % 2 ? "I" : "Ljava/lang/String;";
    F.AccessFlags = ACC_PRIVATE;
    CF.Fields.push_back(std::move(F));
  }
  CF.Interfaces.push_back("java/io/Serializable");

  for (int I = 0; I != 4; ++I) {
    MethodInfo M;
    M.Name = "helper" + std::to_string(I);
    M.Descriptor = "()I";
    M.AccessFlags = ACC_PUBLIC | ACC_STATIC;
    CodeBuilder B(CF.CP);
    B.pushInt(I * 10);
    B.emit(OP_ireturn);
    CodeAttr Code;
    Code.MaxStack = 1;
    Code.MaxLocals = 0;
    Code.Code = B.build();
    M.Code = std::move(Code);
    M.Exceptions.push_back("java/lang/Exception");
    CF.Methods.push_back(std::move(M));
  }

  {
    MethodInfo Main;
    Main.Name = "main";
    Main.Descriptor = "([Ljava/lang/String;)V";
    Main.AccessFlags = ACC_PUBLIC | ACC_STATIC;
    CodeBuilder B(CF.CP);
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

  // The actual trigger (Problem 1).
  MethodInfo Clinit;
  Clinit.Name = "<clinit>";
  Clinit.Descriptor = "()V";
  Clinit.AccessFlags = ACC_PUBLIC | ACC_ABSTRACT;
  CF.Methods.push_back(std::move(Clinit));

  auto Data = writeClassFile(CF);
  if (!Data) {
    std::fprintf(stderr, "build failed: %s\n", Data.error().c_str());
    std::exit(1);
  }
  return Data.take();
}

std::string jirDump(const Bytes &Data) {
  auto J = lowerClassBytes(Data);
  return J ? printJir(*J) : "<unlowerable>";
}

} // namespace

int main() {
  Bytes Input = buildBloatedClass();

  // The oracle: Step 2 of §2.3 -- retest on the five JVMs, keep the
  // candidate only when the same discrepancy category o persists.
  auto Tester = DifferentialTester::withAllProfiles(
      ClassPath(), EnvironmentMode::Shared, "jre8");
  std::string TargetCategory =
      Tester.testClass("M1436188543", Input).encodedString();
  std::printf("discrepancy under study: encoded \"%s\"\n\n",
              TargetCategory.c_str());

  ReductionOracle Oracle = [&](const std::string &Name,
                               const Bytes &Data) {
    DiffOutcome O = Tester.testClass(Name, Data);
    return O.isDiscrepancy() && O.encodedString() == TargetCategory;
  };

  std::printf("=== before reduction (%zu bytes) ===\n%s\n", Input.size(),
              jirDump(Input).c_str());

  ReducerOptions Opts; // Chunked HDD + memo cache.
  ReductionStats Stats;
  auto Reduced = reduceClassfile(Input, Oracle, Opts, &Stats);
  if (!Reduced) {
    std::fprintf(stderr, "reduction failed: %s\n",
                 Reduced.error().c_str());
    return 1;
  }

  std::printf("=== after reduction (%zu bytes) ===\n%s\n",
              Reduced->size(), jirDump(*Reduced).c_str());
  std::printf("reduction: %zu oracle queries (%zu cache hits, %zu "
              "skipped pre-assembly), %zu deletions kept "
              "(%zu methods, %zu fields, %zu statements, %zu "
              "interfaces, %zu throws; %zu chunks, largest %zu)\n",
              Stats.OracleQueries, Stats.CacheHits,
              Stats.SkippedStructural + Stats.AssemblyFailures,
              Stats.DeletionsKept, Stats.MethodsRemoved,
              Stats.FieldsRemoved, Stats.StatementsRemoved,
              Stats.InterfacesRemoved, Stats.ThrowsRemoved,
              Stats.ChunkDeletionsKept, Stats.LargestChunkKept);
  std::printf("\nthe surviving class isolates the <clinit> construct -- "
              "ready to attach to a bug report.\n");
  return 0;
}
