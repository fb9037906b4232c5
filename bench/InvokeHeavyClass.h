//===- bench/InvokeHeavyClass.h - The invoke-heavy tier workload ---------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The invoke-heavy class the execution-tier benchmarks time
/// (bench_micro_jvm) and the predecode-count test counts
/// (tests/jvm/exec_tiers_test.cpp): main calls a ~30-instruction static
/// method `step` 3,000 times. This is the shape fuzzed classfiles
/// actually have (many small methods, many invocations), so it is the
/// fair dispatch comparison, and a tier that lowered per call instead
/// of once per method would pay for every one of those calls.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_BENCH_INVOKEHEAVYCLASS_H
#define CLASSFUZZ_BENCH_INVOKEHEAVYCLASS_H

#include "classfile/ClassWriter.h"
#include "classfile/CodeBuilder.h"
#include "classfile/Opcodes.h"

namespace classfuzz {

/// Number of `step` calls main makes.
constexpr int InvokeHeavyCalls = 3000;

/// Builds class "TierBench": main calls TierBench.step(I)I
/// InvokeHeavyCalls times.
inline Bytes makeInvokeHeavyClass() {
  ClassFile CF;
  CF.ThisClass = "TierBench";
  CF.SuperClass = "java/lang/Object";
  CF.AccessFlags = ACC_PUBLIC | ACC_SUPER;
  CF.MajorVersion = MajorVersionJava7;
  {
    MethodInfo M;
    M.Name = "step";
    M.Descriptor = "(I)I";
    M.AccessFlags = ACC_PUBLIC | ACC_STATIC;
    CodeBuilder B(CF.CP);
    B.loadLocal('i', 0);
    for (int I = 0; I != 9; ++I) {
      B.pushInt(3);
      B.emit(OP_imul);
      B.pushInt(1);
      B.emit(OP_iadd);
      B.pushInt(1000);
      B.emit(OP_irem);
    }
    B.emit(OP_ireturn);
    CodeAttr C;
    C.MaxStack = 3;
    C.MaxLocals = 1;
    C.Code = B.build();
    M.Code = std::move(C);
    CF.Methods.push_back(std::move(M));
  }
  {
    MethodInfo Main;
    Main.Name = "main";
    Main.Descriptor = "([Ljava/lang/String;)V";
    Main.AccessFlags = ACC_PUBLIC | ACC_STATIC;
    CodeBuilder B(CF.CP);
    B.pushInt(1);
    B.storeLocal('i', 1);
    B.pushInt(0);
    B.storeLocal('i', 2);
    auto Head = B.newLabel();
    auto Done = B.newLabel();
    B.bind(Head);
    B.loadLocal('i', 2);
    B.pushInt(InvokeHeavyCalls);
    B.branch(OP_if_icmpge, Done);
    B.loadLocal('i', 1);
    B.invokeStatic("TierBench", "step", "(I)I");
    B.storeLocal('i', 1);
    B.iinc(2, 1);
    B.branch(OP_goto, Head);
    B.bind(Done);
    B.emit(OP_return);
    CodeAttr C;
    C.MaxStack = 2;
    C.MaxLocals = 3;
    C.Code = B.build();
    Main.Code = std::move(C);
    CF.Methods.push_back(std::move(Main));
  }
  return writeClassFile(CF).take();
}

} // namespace classfuzz

#endif // CLASSFUZZ_BENCH_INVOKEHEAVYCLASS_H
