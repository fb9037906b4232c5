//===- jvm/ThreadedInterp.cpp - Token-threaded interpreter tier ----------===//
//
// The default execution tier: token-threaded dispatch over the shared
// predecoded instruction stream (jvm/Predecode.h). Where the compiler
// supports it (GCC/Clang), dispatch is a computed goto straight from one
// handler into the next -- the classic direct-threaded loop of ART's
// interpreter_goto_table_impl.h; elsewhere a dense jump table over the
// handler tokens is used. Either way each method is decoded once per Vm
// (work.methods_predecoded counts it) and every later instruction costs
// an array index.
//
//===----------------------------------------------------------------------===//

#include "jvm/ExecHandlers.h"

#include <map>

namespace classfuzz {

namespace {

/// Jump-table dispatch of one instruction, used by the non-GNU fallback
/// loop and shared with nothing else -- the baseline tier binds thunks
/// instead.
[[maybe_unused]] Ctl dispatchToken(ExecContext &C, const PInsn &I) {
  switch (static_cast<Handler>(I.Handler)) {
  case H_Nop:
    return C.doNop(I);
  case H_AconstNull:
    return C.doAconstNull(I);
  case H_IPush:
    return C.doIPush(I);
  case H_LPush:
    return C.doLPush(I);
  case H_FPush:
    return C.doFPush(I);
  case H_DPush:
    return C.doDPush(I);
  case H_Ldc:
    return C.doLdc(I);
  case H_Iinc:
    return C.doIinc(I);
  case H_Goto:
    return C.doGoto(I);
  case H_Return:
    return C.doReturn(I);
  case H_VReturn:
    return C.doVReturn(I);
  case H_Athrow:
    return C.doAthrow(I);
  case H_Pop:
    return C.doPop(I);
  case H_Pop2:
    return C.doPop2(I);
  case H_Dup:
    return C.doDup(I);
  case H_DupX1:
    return C.doDupX1(I);
  case H_Swap:
    return C.doSwap(I);
  case H_ArrayLength:
    return C.doArrayLength(I);
  case H_NewArray:
    return C.doNewArray(I);
  case H_ANewArray:
    return C.doANewArray(I);
  case H_ALoad:
    return C.doALoad(I);
  case H_AStore:
    return C.doAStore(I);
  case H_New:
    return C.doNew(I);
  case H_Checkcast:
    return C.doCheckcast(I);
  case H_InstanceOf:
    return C.doInstanceOf(I);
  case H_Monitor:
    return C.doMonitor(I);
  case H_GetStatic:
    return C.doStaticField(I, /*IsGet=*/true);
  case H_PutStatic:
    return C.doStaticField(I, /*IsGet=*/false);
  case H_GetField:
    return C.doInstanceField(I, /*IsGet=*/true);
  case H_PutField:
    return C.doInstanceField(I, /*IsGet=*/false);
  case H_Invoke:
    return C.doInvoke(I);
  case H_Load:
    return C.doLoad(I);
  case H_Store:
    return C.doStore(I);
  case H_IArith:
    return C.doIArith(I);
  case H_INeg:
    return C.doINeg(I);
  case H_Conv:
    return C.doConv(I);
  case H_If:
    return C.doIf(I);
  case H_IfICmp:
    return C.doIfICmp(I);
  case H_IfACmp:
    return C.doIfACmp(I);
  case H_IfNull:
    return C.doIfNull(I);
  case H_Switch:
    return C.doSwitch(I);
  case H_Unsupported:
  default:
    return C.doUnsupported(I);
  }
}

#if defined(__GNUC__) || defined(__clang__)
#define CF_THREADED_GOTO 1
#else
#define CF_THREADED_GOTO 0
#endif

#if CF_THREADED_GOTO

/// The computed-goto loop: each handler jumps directly to the next
/// instruction's label. The label table is indexed by Handler and must
/// stay in enum order. Entered with the loop head already run for the
/// current instruction (execInvoke does it), so the first dispatch goes
/// straight to the handler; every later one re-runs the head itself.
/// Always returns Ctl::Return: the whole frame executes in here.
Ctl runThreaded(ExecContext &C) {
  static const void *Table[NumHandlers] = {
      &&L_Nop,         &&L_AconstNull, &&L_IPush,     &&L_LPush,
      &&L_FPush,       &&L_DPush,      &&L_Ldc,       &&L_Iinc,
      &&L_Goto,        &&L_Return,     &&L_VReturn,   &&L_Athrow,
      &&L_Pop,         &&L_Pop2,       &&L_Dup,       &&L_DupX1,
      &&L_Swap,        &&L_ArrayLength, &&L_NewArray, &&L_ANewArray,
      &&L_ALoad,       &&L_AStore,     &&L_New,       &&L_Checkcast,
      &&L_InstanceOf,  &&L_Monitor,    &&L_GetStatic, &&L_PutStatic,
      &&L_GetField,    &&L_PutField,   &&L_Invoke,    &&L_Load,
      &&L_Store,       &&L_IArith,     &&L_INeg,      &&L_Conv,
      &&L_If,          &&L_IfICmp,     &&L_IfACmp,    &&L_IfNull,
      &&L_Switch,      &&L_Unsupported,
  };

  Ctl Act;
#define CF_DISPATCH()                                                        \
  do {                                                                       \
    if (!C.loopHead())                                                       \
      return Ctl::Return;                                                    \
    goto *Table[C.insn().Handler];                                           \
  } while (0)
#define CF_HANDLE(Label, Call)                                               \
  Label:                                                                     \
  Act = (Call);                                                              \
  if (Act == Ctl::Return)                                                    \
    return Ctl::Return;                                                      \
  if (Act == Ctl::Next) {                                                    \
    if (C.aborted()) {                                                       \
      C.Ok = false;                                                          \
      return Ctl::Return;                                                    \
    }                                                                        \
    C.Index = C.NextIndex;                                                   \
  }                                                                          \
  CF_DISPATCH();

  goto *Table[C.insn().Handler];
  CF_HANDLE(L_Nop, C.doNop(C.insn()))
  CF_HANDLE(L_AconstNull, C.doAconstNull(C.insn()))
  CF_HANDLE(L_IPush, C.doIPush(C.insn()))
  CF_HANDLE(L_LPush, C.doLPush(C.insn()))
  CF_HANDLE(L_FPush, C.doFPush(C.insn()))
  CF_HANDLE(L_DPush, C.doDPush(C.insn()))
  CF_HANDLE(L_Ldc, C.doLdc(C.insn()))
  CF_HANDLE(L_Iinc, C.doIinc(C.insn()))
  CF_HANDLE(L_Goto, C.doGoto(C.insn()))
  CF_HANDLE(L_Return, C.doReturn(C.insn()))
  CF_HANDLE(L_VReturn, C.doVReturn(C.insn()))
  CF_HANDLE(L_Athrow, C.doAthrow(C.insn()))
  CF_HANDLE(L_Pop, C.doPop(C.insn()))
  CF_HANDLE(L_Pop2, C.doPop2(C.insn()))
  CF_HANDLE(L_Dup, C.doDup(C.insn()))
  CF_HANDLE(L_DupX1, C.doDupX1(C.insn()))
  CF_HANDLE(L_Swap, C.doSwap(C.insn()))
  CF_HANDLE(L_ArrayLength, C.doArrayLength(C.insn()))
  CF_HANDLE(L_NewArray, C.doNewArray(C.insn()))
  CF_HANDLE(L_ANewArray, C.doANewArray(C.insn()))
  CF_HANDLE(L_ALoad, C.doALoad(C.insn()))
  CF_HANDLE(L_AStore, C.doAStore(C.insn()))
  CF_HANDLE(L_New, C.doNew(C.insn()))
  CF_HANDLE(L_Checkcast, C.doCheckcast(C.insn()))
  CF_HANDLE(L_InstanceOf, C.doInstanceOf(C.insn()))
  CF_HANDLE(L_Monitor, C.doMonitor(C.insn()))
  CF_HANDLE(L_GetStatic, C.doStaticField(C.insn(), /*IsGet=*/true))
  CF_HANDLE(L_PutStatic, C.doStaticField(C.insn(), /*IsGet=*/false))
  CF_HANDLE(L_GetField, C.doInstanceField(C.insn(), /*IsGet=*/true))
  CF_HANDLE(L_PutField, C.doInstanceField(C.insn(), /*IsGet=*/false))
  CF_HANDLE(L_Invoke, C.doInvoke(C.insn()))
  CF_HANDLE(L_Load, C.doLoad(C.insn()))
  CF_HANDLE(L_Store, C.doStore(C.insn()))
  CF_HANDLE(L_IArith, C.doIArith(C.insn()))
  CF_HANDLE(L_INeg, C.doINeg(C.insn()))
  CF_HANDLE(L_Conv, C.doConv(C.insn()))
  CF_HANDLE(L_If, C.doIf(C.insn()))
  CF_HANDLE(L_IfICmp, C.doIfICmp(C.insn()))
  CF_HANDLE(L_IfACmp, C.doIfACmp(C.insn()))
  CF_HANDLE(L_IfNull, C.doIfNull(C.insn()))
  CF_HANDLE(L_Switch, C.doSwitch(C.insn()))
  CF_HANDLE(L_Unsupported, C.doUnsupported(C.insn()))
#undef CF_HANDLE
#undef CF_DISPATCH
}

#endif // CF_THREADED_GOTO

} // namespace

/// The threaded tier, and the campaign default: one predecode per method,
/// then token-threaded dispatch.
class ThreadedEngine : public ExecEngine {
public:
  explicit ThreadedEngine(Vm &VM) : ExecEngine(VM) {}

  ExecTier tier() const override { return ExecTier::Threaded; }

  bool invoke(Vm::LoadedClass &LC, const MethodInfo &M,
              std::vector<Value> Args, Value &Ret) override {
    auto Fetch = [&]() -> const PredecodedMethod & {
      auto It = Cache.find(&M);
      if (It == Cache.end())
        It = Cache.emplace(&M, predecodeMethod(LC.CF, M)).first;
      return It->second;
    };
    auto Dispatch = [](ExecContext &C) -> Ctl {
#if CF_THREADED_GOTO
      return runThreaded(C);
#else
      return dispatchToken(C, C.insn());
#endif
    };
    return ExecContext::execInvoke(VM, LC, M, std::move(Args), Ret, Fetch,
                                   Dispatch);
  }

private:
  /// Predecoded methods, one per MethodInfo. MethodInfo objects live in
  /// the Vm's class registry and are never moved or freed, so the
  /// pointer key is stable.
  std::map<const MethodInfo *, PredecodedMethod> Cache;
};

std::unique_ptr<ExecEngine> makeThreadedEngine(Vm &VM) {
  return std::make_unique<ThreadedEngine>(VM);
}

} // namespace classfuzz
