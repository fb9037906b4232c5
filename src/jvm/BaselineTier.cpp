//===- jvm/BaselineTier.cpp - Baseline template compilation tier ---------===//
//
// The baseline tier compiles a method once per Vm into a flat array of
// pre-bound op thunks -- one function pointer per predecoded
// instruction, the template-JIT shape of ART's jit_code_cache.cc without
// emitting machine code -- and executes by indexing that array. The
// thunks call the same op bodies as the threaded tier (ExecHandlers.h);
// only the dispatch differs. Compiles and code-cache hits are published
// as the jit.* telemetry counters.
//
//===----------------------------------------------------------------------===//

#include "jvm/ExecHandlers.h"

#include <map>
#include <memory>

namespace classfuzz {

namespace {

using Thunk = Ctl (*)(ExecContext &, const PInsn &);

Ctl tNop(ExecContext &C, const PInsn &I) { return C.doNop(I); }
Ctl tAconstNull(ExecContext &C, const PInsn &I) { return C.doAconstNull(I); }
Ctl tIPush(ExecContext &C, const PInsn &I) { return C.doIPush(I); }
Ctl tLPush(ExecContext &C, const PInsn &I) { return C.doLPush(I); }
Ctl tFPush(ExecContext &C, const PInsn &I) { return C.doFPush(I); }
Ctl tDPush(ExecContext &C, const PInsn &I) { return C.doDPush(I); }
Ctl tLdc(ExecContext &C, const PInsn &I) { return C.doLdc(I); }
Ctl tIinc(ExecContext &C, const PInsn &I) { return C.doIinc(I); }
Ctl tGoto(ExecContext &C, const PInsn &I) { return C.doGoto(I); }
Ctl tReturn(ExecContext &C, const PInsn &I) { return C.doReturn(I); }
Ctl tVReturn(ExecContext &C, const PInsn &I) { return C.doVReturn(I); }
Ctl tAthrow(ExecContext &C, const PInsn &I) { return C.doAthrow(I); }
Ctl tPop(ExecContext &C, const PInsn &I) { return C.doPop(I); }
Ctl tPop2(ExecContext &C, const PInsn &I) { return C.doPop2(I); }
Ctl tDup(ExecContext &C, const PInsn &I) { return C.doDup(I); }
Ctl tDupX1(ExecContext &C, const PInsn &I) { return C.doDupX1(I); }
Ctl tSwap(ExecContext &C, const PInsn &I) { return C.doSwap(I); }
Ctl tArrayLength(ExecContext &C, const PInsn &I) {
  return C.doArrayLength(I);
}
Ctl tNewArray(ExecContext &C, const PInsn &I) { return C.doNewArray(I); }
Ctl tANewArray(ExecContext &C, const PInsn &I) { return C.doANewArray(I); }
Ctl tALoad(ExecContext &C, const PInsn &I) { return C.doALoad(I); }
Ctl tAStore(ExecContext &C, const PInsn &I) { return C.doAStore(I); }
Ctl tNew(ExecContext &C, const PInsn &I) { return C.doNew(I); }
Ctl tCheckcast(ExecContext &C, const PInsn &I) { return C.doCheckcast(I); }
Ctl tInstanceOf(ExecContext &C, const PInsn &I) { return C.doInstanceOf(I); }
Ctl tMonitor(ExecContext &C, const PInsn &I) { return C.doMonitor(I); }
Ctl tGetStatic(ExecContext &C, const PInsn &I) {
  return C.doStaticField(I, /*IsGet=*/true);
}
Ctl tPutStatic(ExecContext &C, const PInsn &I) {
  return C.doStaticField(I, /*IsGet=*/false);
}
Ctl tGetField(ExecContext &C, const PInsn &I) {
  return C.doInstanceField(I, /*IsGet=*/true);
}
Ctl tPutField(ExecContext &C, const PInsn &I) {
  return C.doInstanceField(I, /*IsGet=*/false);
}
Ctl tInvoke(ExecContext &C, const PInsn &I) { return C.doInvoke(I); }
Ctl tLoad(ExecContext &C, const PInsn &I) { return C.doLoad(I); }
Ctl tStore(ExecContext &C, const PInsn &I) { return C.doStore(I); }
Ctl tIArith(ExecContext &C, const PInsn &I) { return C.doIArith(I); }
Ctl tINeg(ExecContext &C, const PInsn &I) { return C.doINeg(I); }
Ctl tConv(ExecContext &C, const PInsn &I) { return C.doConv(I); }
Ctl tIf(ExecContext &C, const PInsn &I) { return C.doIf(I); }
Ctl tIfICmp(ExecContext &C, const PInsn &I) { return C.doIfICmp(I); }
Ctl tIfACmp(ExecContext &C, const PInsn &I) { return C.doIfACmp(I); }
Ctl tIfNull(ExecContext &C, const PInsn &I) { return C.doIfNull(I); }
Ctl tSwitch(ExecContext &C, const PInsn &I) { return C.doSwitch(I); }
Ctl tUnsupported(ExecContext &C, const PInsn &I) {
  return C.doUnsupported(I);
}

/// Indexed by Handler; must stay in enum order.
const Thunk ThunkTable[NumHandlers] = {
    tNop,        tAconstNull,  tIPush,     tLPush,      tFPush,
    tDPush,      tLdc,         tIinc,      tGoto,       tReturn,
    tVReturn,    tAthrow,      tPop,       tPop2,       tDup,
    tDupX1,      tSwap,        tArrayLength, tNewArray, tANewArray,
    tALoad,      tAStore,      tNew,       tCheckcast,  tInstanceOf,
    tMonitor,    tGetStatic,   tPutStatic, tGetField,   tPutField,
    tInvoke,     tLoad,        tStore,     tIArith,     tINeg,
    tConv,       tIf,          tIfICmp,    tIfACmp,     tIfNull,
    tSwitch,     tUnsupported,
};

} // namespace

/// One method's compiled form: the lowered stream and the pre-bound
/// thunk per instruction.
struct BaselineCompiledMethod {
  PredecodedMethod PM;
  std::vector<Thunk> Thunks;
};

/// The baseline template tier.
class BaselineEngine : public ExecEngine {
public:
  explicit BaselineEngine(Vm &VM) : ExecEngine(VM) {}
  ~BaselineEngine() override {
    // Engine-local stats flush to the global jit.* counters at teardown;
    // campaigns set JitTelemetry=false and republish committed runs at
    // the commit stage instead, keeping counters --jobs-invariant.
    if (VM.Policy.JitTelemetry)
      Stats.publish();
  }

  ExecTier tier() const override { return ExecTier::Baseline; }
  const JitStats *jitStats() const override { return &Stats; }

  bool invoke(Vm::LoadedClass &LC, const MethodInfo &M,
              std::vector<Value> Args, Value &Ret) override {
    const BaselineCompiledMethod *CM = nullptr;
    auto Fetch = [&]() -> const PredecodedMethod & {
      CM = &fetchCompiled(LC, M);
      return CM->PM;
    };
    auto Dispatch = [&](ExecContext &C) -> Ctl {
      return CM->Thunks[C.Index](C, C.PM.Insns[C.Index]);
    };
    return ExecContext::execInvoke(VM, LC, M, std::move(Args), Ret, Fetch,
                                   Dispatch);
  }

private:
  const BaselineCompiledMethod &fetchCompiled(Vm::LoadedClass &LC,
                                              const MethodInfo &M) {
    auto It = Cache.find(&M);
    if (It != Cache.end()) {
      ++Stats.CacheHits;
      return It->second;
    }
    BaselineCompiledMethod &CM = Cache[&M];
    CM.PM = predecodeMethod(LC.CF, M);
    CM.Thunks.reserve(CM.PM.Insns.size());
    for (const PInsn &P : CM.PM.Insns)
      CM.Thunks.push_back(ThunkTable[P.Handler]);
    ++Stats.Compiles;
    return CM;
  }

  JitStats Stats;
  /// Compiled methods, one per MethodInfo. MethodInfo objects live in the
  /// Vm's class registry and are never moved or freed, so the pointer key
  /// is stable; std::map never moves its values, so a frame's reference
  /// survives the compiles of nested invokes.
  std::map<const MethodInfo *, BaselineCompiledMethod> Cache;
};

std::unique_ptr<ExecEngine> makeBaselineEngine(Vm &VM) {
  return std::make_unique<BaselineEngine>(VM);
}

} // namespace classfuzz
