//===- jvm/ExecHandlers.h - Shared op handlers of the fast tiers ---------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one source of bytecode semantics: every op body, the loop head
/// and the invoke prologue, written once as inline ExecContext methods
/// over the predecoded stream. The threaded and baseline tiers differ
/// only in how they *dispatch* to these bodies (computed goto vs
/// pre-bound thunk arrays), so they are equivalent by construction; the
/// cross-tier suite checks both against the per-input results pinned in
/// tests/golden/exec_tiers.jsonl.
///
/// Internal header: include only from ThreadedInterp.cpp and
/// BaselineTier.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_JVM_EXECHANDLERS_H
#define CLASSFUZZ_JVM_EXECHANDLERS_H

#include "classfile/Opcodes.h"
#include "coverage/Probes.h"
#include "jvm/ExecEngine.h"
#include "jvm/ExecProbes.h"
#include "jvm/Predecode.h"

#include <cstdint>
#include <string>
#include <vector>

namespace classfuzz {

/// What a handler asks the dispatch loop to do next.
enum class Ctl : uint8_t {
  Next,   ///< Continue at ExecContext::NextIndex (set to fall-through
          ///< before dispatch; branch handlers overwrite it).
  Unwind, ///< Re-enter the loop head at the *current* instruction: a
          ///< pending exception (or a fresh abort) gets examined there
          ///< before anything else runs.
  Return, ///< Frame is done; ExecContext::Ok carries success.
};

/// One executing frame over a predecoded method.
struct ExecContext {
  Vm &VM;
  Vm::LoadedClass &LC;
  const MethodInfo &M;
  const PredecodedMethod &PM;
  CoverageRecorder *Cov;

  std::vector<Value> Stack;
  std::vector<Value> Locals;
  uint32_t Index = 0;     ///< Current instruction.
  uint32_t NextIndex = 0; ///< Where Ctl::Next goes.
  Value RetVal;
  bool Ok = false; ///< Frame result, valid once a handler returns Return.

  ExecContext(Vm &VM, Vm::LoadedClass &LC, const MethodInfo &M,
              const PredecodedMethod &PM)
      : VM(VM), LC(LC), M(M), PM(PM), Cov(VM.Cov) {}

  // --- frame plumbing ------------------------------------------------------

  /// Lays out the argument slots (wide values take two).
  void bindArgs(const std::vector<Value> &Args) {
    size_t ArgSlots = 0;
    for (const Value &V : Args)
      ArgSlots +=
          (V.T == Value::Tag::Long || V.T == Value::Tag::Double) ? 2 : 1;
    Locals.resize(std::max<size_t>(M.Code->MaxLocals, ArgSlots));
    size_t Slot = 0;
    for (const Value &V : Args) {
      Locals[Slot] = V;
      Slot += (V.T == Value::Tag::Long || V.T == Value::Tag::Double) ? 2 : 1;
    }
  }

  Value popv() {
    if (Stack.empty()) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::InternalError,
               "operand stack underflow at runtime");
      return Value();
    }
    Value V = Stack.back();
    Stack.pop_back();
    return V;
  }

  Ctl fail() {
    Ok = false;
    return Ctl::Return;
  }
  Ctl ret(bool Success) {
    Ok = Success;
    return Ctl::Return;
  }
  Ctl branchTo(uint32_t Target) {
    NextIndex = Target;
    return Ctl::Next;
  }

  const PInsn &insn() const { return PM.Insns[Index]; }
  /// Abort flag, readable by the dispatch skins (which are not friends
  /// of Vm themselves).
  bool aborted() const { return VM.Aborted; }

  // --- handlers ------------------------------------------------------------
  // One per Handler token; families take the PInsn for Op/operands.

  Ctl doNop(const PInsn &) { return Ctl::Next; }

  Ctl doAconstNull(const PInsn &) {
    Stack.push_back(Value::null());
    return Ctl::Next;
  }

  Ctl doIPush(const PInsn &I) {
    Stack.push_back(Value::makeInt(I.A));
    return Ctl::Next;
  }

  Ctl doLPush(const PInsn &I) {
    Stack.push_back(Value::makeLong(I.A));
    return Ctl::Next;
  }

  Ctl doFPush(const PInsn &I) {
    Stack.push_back(Value::makeFloat(I.A));
    return Ctl::Next;
  }

  Ctl doDPush(const PInsn &I) {
    Stack.push_back(Value::makeDouble(I.A));
    return Ctl::Next;
  }

  Ctl doLdc(const PInsn &I) {
    uint16_t CpIndex = static_cast<uint16_t>(I.A);
    if (!LC.CF.CP.isValidIndex(CpIndex)) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::VerifyError,
               "ldc of invalid constant pool index");
      return fail();
    }
    const CpEntry &E = LC.CF.CP.at(CpIndex);
    switch (E.Tag) {
    case CpTag::Integer:
      Stack.push_back(Value::makeInt(E.IntValue));
      break;
    case CpTag::Float:
      Stack.push_back(Value::makeFloat(E.FloatValue));
      break;
    case CpTag::Long:
      Stack.push_back(Value::makeLong(E.LongValue));
      break;
    case CpTag::Double:
      Stack.push_back(Value::makeDouble(E.DoubleValue));
      break;
    case CpTag::String: {
      auto S = LC.CF.CP.getUtf8(E.Ref1);
      Stack.push_back(Value::makeRef(VM.allocString(S ? *S : "")));
      break;
    }
    case CpTag::Class:
      Stack.push_back(Value::makeRef(VM.allocObject("java/lang/Class")));
      break;
    default:
      VM.abort(VM.CurrentPhase, JvmErrorKind::VerifyError,
               "ldc of unloadable constant");
      return fail();
    }
    return Ctl::Next;
  }

  Ctl doIinc(const PInsn &I) {
    if (static_cast<size_t>(I.A) < Locals.size())
      Locals[I.A].I += I.B;
    return Ctl::Next;
  }

  Ctl doGoto(const PInsn &I) { return branchTo(I.Target); }

  Ctl doReturn(const PInsn &) { return ret(true); }

  Ctl doVReturn(const PInsn &) {
    RetVal = popv();
    return ret(!VM.Aborted);
  }

  Ctl doAthrow(const PInsn &) {
    Value V = popv();
    if (V.isNull())
      VM.throwBuiltin(JvmErrorKind::NullPointerException,
                      "java/lang/NullPointerException", "athrow of null");
    else
      VM.PendingException = V.R;
    return Ctl::Unwind;
  }

  Ctl doPop(const PInsn &) {
    popv();
    return Ctl::Next;
  }

  Ctl doPop2(const PInsn &) {
    popv();
    if (!Stack.empty() && Stack.back().T != Value::Tag::Long &&
        Stack.back().T != Value::Tag::Double)
      popv();
    return Ctl::Next;
  }

  Ctl doDup(const PInsn &) {
    Value V = popv();
    Stack.push_back(V);
    Stack.push_back(V);
    return Ctl::Next;
  }

  Ctl doDupX1(const PInsn &) {
    Value A = popv(), B = popv();
    Stack.push_back(A);
    Stack.push_back(B);
    Stack.push_back(A);
    return Ctl::Next;
  }

  Ctl doSwap(const PInsn &) {
    Value A = popv(), B = popv();
    Stack.push_back(A);
    Stack.push_back(B);
    return Ctl::Next;
  }

  Ctl doArrayLength(const PInsn &) {
    Value V = popv();
    HeapObject *Arr = VM.deref(V.R);
    if (!Arr) {
      VM.throwBuiltin(JvmErrorKind::NullPointerException,
                      "java/lang/NullPointerException", "arraylength");
      return Ctl::Unwind;
    }
    Stack.push_back(Value::makeInt(static_cast<int32_t>(Arr->Elems.size())));
    return Ctl::Next;
  }

  Ctl doNewArray(const PInsn &) {
    Value Len = popv();
    if (Len.asInt() < 0) {
      VM.throwBuiltin(JvmErrorKind::NegativeArraySizeException,
                      "java/lang/NegativeArraySizeException",
                      std::to_string(Len.asInt()));
      return Ctl::Unwind;
    }
    int32_t Ref = VM.allocObject("[I");
    if (VM.Aborted)
      return fail();
    VM.Heap[Ref - 1].IsArray = true;
    VM.Heap[Ref - 1].Elems.assign(static_cast<size_t>(Len.asInt()),
                                  Value::makeInt(0));
    Stack.push_back(Value::makeRef(Ref));
    return Ctl::Next;
  }

  Ctl doANewArray(const PInsn &I) {
    Value Len = popv();
    const ClassSite &S = PM.ClassSites[I.A];
    if (Len.asInt() < 0) {
      VM.throwBuiltin(JvmErrorKind::NegativeArraySizeException,
                      "java/lang/NegativeArraySizeException",
                      std::to_string(Len.asInt()));
      return Ctl::Unwind;
    }
    int32_t Ref =
        VM.allocArray(S.Ok ? S.Name : "java/lang/Object", Len.asInt());
    if (VM.Aborted)
      return fail();
    Stack.push_back(Value::makeRef(Ref));
    return Ctl::Next;
  }

  Ctl doALoad(const PInsn &) {
    Value Index = popv();
    Value ArrV = popv();
    HeapObject *Arr = VM.deref(ArrV.R);
    if (!Arr) {
      VM.throwBuiltin(JvmErrorKind::NullPointerException,
                      "java/lang/NullPointerException", "array load");
      return Ctl::Unwind;
    }
    int32_t Idx = Index.asInt();
    if (Idx < 0 || static_cast<size_t>(Idx) >= Arr->Elems.size()) {
      VM.throwBuiltin(JvmErrorKind::ArrayIndexOutOfBoundsException,
                      "java/lang/ArrayIndexOutOfBoundsException",
                      std::to_string(Idx));
      return Ctl::Unwind;
    }
    Stack.push_back(Arr->Elems[Idx]);
    return Ctl::Next;
  }

  Ctl doAStore(const PInsn &) {
    Value V = popv();
    Value Index = popv();
    Value ArrV = popv();
    HeapObject *Arr = VM.deref(ArrV.R);
    if (!Arr) {
      VM.throwBuiltin(JvmErrorKind::NullPointerException,
                      "java/lang/NullPointerException", "array store");
      return Ctl::Unwind;
    }
    int32_t Idx = Index.asInt();
    if (Idx < 0 || static_cast<size_t>(Idx) >= Arr->Elems.size()) {
      VM.throwBuiltin(JvmErrorKind::ArrayIndexOutOfBoundsException,
                      "java/lang/ArrayIndexOutOfBoundsException",
                      std::to_string(Idx));
      return Ctl::Unwind;
    }
    Arr->Elems[Idx] = V;
    return Ctl::Next;
  }

  Ctl doNew(const PInsn &I) {
    const ClassSite &S = PM.ClassSites[I.A];
    if (!S.Ok) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::VerifyError,
               "new of invalid class constant");
      return fail();
    }
    Vm::LoadedClass *Target = VM.loadClass(S.Name);
    if (!Target)
      return fail();
    if (!VM.initializeClass(*Target))
      return fail();
    if (Target->CF.isInterface() ||
        (Target->CF.AccessFlags & ACC_ABSTRACT)) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::InstantiationError, S.Name);
      return fail();
    }
    int32_t Ref = VM.allocObject(S.Name);
    if (VM.Aborted)
      return fail();
    Stack.push_back(Value::makeRef(Ref));
    return Ctl::Next;
  }

  Ctl doCheckcast(const PInsn &I) {
    const ClassSite &S = PM.ClassSites[I.A];
    // Resolution happens when the instruction executes (JVMS §5.4.3):
    // a missing class raises NoClassDefFoundError even for null.
    if (S.Ok && !VM.loadClass(S.Name))
      return fail();
    Value V = popv();
    if (!V.isNull() && S.Ok && !VM.refInstanceOf(V.R, S.Name)) {
      VM.throwBuiltin(JvmErrorKind::ClassCastException,
                      "java/lang/ClassCastException",
                      VM.classOfRef(V.R) + " cannot be cast to " + S.Name);
      return Ctl::Unwind;
    }
    Stack.push_back(V);
    return Ctl::Next;
  }

  Ctl doInstanceOf(const PInsn &I) {
    const ClassSite &S = PM.ClassSites[I.A];
    if (S.Ok && !VM.loadClass(S.Name))
      return fail();
    Value V = popv();
    Stack.push_back(Value::makeInt(
        !V.isNull() && S.Ok && VM.refInstanceOf(V.R, S.Name) ? 1 : 0));
    return Ctl::Next;
  }

  Ctl doMonitor(const PInsn &) {
    popv(); // Single-threaded model: monitors are no-ops.
    return Ctl::Next;
  }

  Ctl doStaticField(const PInsn &I, bool IsGet) {
    const MemberSite &S = PM.MemberSites[I.A];
    if (!S.Ok) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::VerifyError, S.Error);
      return fail();
    }
    Vm::LoadedClass *Holder =
        VM.resolveField(S.Ref.ClassName, S.Ref.Name, S.Ref.Descriptor);
    if (VM.Aborted)
      return fail();
    if (covBranch(Cov, exec_probes::id(exec_probes::FieldMissing),
                  !Holder)) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::NoSuchFieldError,
               S.Ref.ClassName + "." + S.Ref.Name);
      return fail();
    }
    const FieldInfo *Field = Holder->CF.findField(S.Ref.Name);
    if (covBranch(Cov, exec_probes::id(exec_probes::FieldStaticMismatch),
                  Field && !Field->isStatic())) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::IncompatibleClassChangeError,
               "expected static field " + S.Ref.Name);
      return fail();
    }
    if (Field &&
        !VM.checkMemberAccess(LC.CF.ThisClass, Holder->CF.ThisClass,
                              Field->AccessFlags, S.Ref.Name))
      return fail();
    if (!VM.initializeClass(*Holder))
      return fail();
    std::string Key = S.Ref.Name + ":" + S.Ref.Descriptor;
    if (IsGet)
      Stack.push_back(Holder->Statics[Key]);
    else
      Holder->Statics[Key] = popv();
    return Ctl::Next;
  }

  Ctl doInstanceField(const PInsn &I, bool IsGet) {
    const MemberSite &S = PM.MemberSites[I.A];
    if (!S.Ok) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::VerifyError, S.Error);
      return fail();
    }
    Value Stored;
    if (!IsGet)
      Stored = popv();
    Value Receiver = popv();
    HeapObject *Obj = VM.deref(Receiver.R);
    if (!Obj) {
      VM.throwBuiltin(JvmErrorKind::NullPointerException,
                      "java/lang/NullPointerException",
                      "field access on null");
      return Ctl::Unwind;
    }
    std::string Key = S.Ref.Name + ":" + S.Ref.Descriptor;
    if (IsGet) {
      auto FieldIt = Obj->Fields.find(Key);
      Stack.push_back(FieldIt != Obj->Fields.end() ? FieldIt->second
                                                   : Value::null());
    } else {
      Obj->Fields[Key] = Stored;
    }
    return Ctl::Next;
  }

  Ctl doInvoke(const PInsn &I) {
    uint8_t Op = I.Op;
    const MemberSite &S = PM.MemberSites[I.A];
    if (!S.Ok) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::VerifyError, S.Error);
      return fail();
    }
    if (!S.DescOk) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::VerifyError,
               "malformed descriptor at invoke: " + S.Ref.Descriptor);
      return fail();
    }
    const MethodDescriptor &MD = S.Desc;
    // Pop arguments (right to left), then the receiver if any.
    std::vector<Value> CallArgs(MD.Params.size());
    for (size_t K = MD.Params.size(); K-- > 0;)
      CallArgs[K] = popv();
    std::string DispatchClass = S.Ref.ClassName;
    if (Op != OP_invokestatic) {
      Value Receiver = popv();
      if (Receiver.isNull()) {
        VM.throwBuiltin(JvmErrorKind::NullPointerException,
                        "java/lang/NullPointerException",
                        "invoke on null receiver");
        return Ctl::Unwind;
      }
      if (Op == OP_invokevirtual || Op == OP_invokeinterface)
        DispatchClass = VM.classOfRef(Receiver.R);
      if (DispatchClass.size() > 0 && DispatchClass[0] == '[')
        DispatchClass = "java/lang/Object"; // Array methods.
      CallArgs.insert(CallArgs.begin(), Receiver);
    }
    if (VM.Aborted)
      return fail();

    bool WantStatic = Op == OP_invokestatic;
    Vm::ResolvedMethod Resolved =
        VM.resolveMethod(DispatchClass, S.Ref.Name, S.Ref.Descriptor);
    if (VM.Aborted)
      return fail();
    if (!Resolved.Method && Op != OP_invokestatic)
      Resolved =
          VM.resolveMethod(S.Ref.ClassName, S.Ref.Name, S.Ref.Descriptor);
    if (VM.Aborted)
      return fail();
    if (covBranch(Cov, exec_probes::id(exec_probes::MethodMissing),
                  !Resolved.Method)) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::NoSuchMethodError,
               S.Ref.ClassName + "." + S.Ref.Name + S.Ref.Descriptor);
      return fail();
    }
    if (covBranch(Cov, exec_probes::id(exec_probes::MethodStaticMismatch),
                  Resolved.Method->isStatic() != WantStatic)) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::IncompatibleClassChangeError,
               S.Ref.Name + " static-ness mismatch");
      return fail();
    }
    if (!VM.checkMemberAccess(LC.CF.ThisClass, Resolved.Holder->CF.ThisClass,
                              Resolved.Method->AccessFlags, S.Ref.Name))
      return fail();
    if (WantStatic && !VM.initializeClass(*Resolved.Holder))
      return fail();
    if (!VM.ensureInvocable(*Resolved.Holder, *Resolved.Method))
      return fail();

    Value CallRet;
    if (!VM.invoke(*Resolved.Holder, *Resolved.Method, std::move(CallArgs),
                   CallRet)) {
      if (VM.PendingException != 0)
        return Ctl::Unwind; // Exception propagates; search handlers here.
      return fail();
    }
    if (MD.ReturnType.Kind != TypeKind::Void)
      Stack.push_back(CallRet);
    return Ctl::Next;
  }

  Ctl doLoad(const PInsn &I) {
    size_t Slot = static_cast<size_t>(I.A);
    Stack.push_back(Slot < Locals.size() ? Locals[Slot] : Value());
    return Ctl::Next;
  }

  Ctl doStore(const PInsn &I) {
    size_t Slot = static_cast<size_t>(I.A);
    Value V = popv();
    if (Slot < Locals.size())
      Locals[Slot] = V;
    return Ctl::Next;
  }

  Ctl doIArith(const PInsn &I) {
    uint8_t Op = I.Op;
    Value B = popv(), A = popv();
    int32_t X = A.asInt(), Y = B.asInt();
    int32_t Out = 0;
    if ((Op == OP_idiv || Op == OP_irem) && Y == 0) {
      VM.throwBuiltin(JvmErrorKind::ArithmeticException,
                      "java/lang/ArithmeticException", "/ by zero");
      return Ctl::Unwind;
    }
    switch (Op) {
    case OP_iadd:
      Out = static_cast<int32_t>(static_cast<uint32_t>(X) +
                                 static_cast<uint32_t>(Y));
      break;
    case OP_isub:
      Out = static_cast<int32_t>(static_cast<uint32_t>(X) -
                                 static_cast<uint32_t>(Y));
      break;
    case OP_imul:
      Out = static_cast<int32_t>(static_cast<uint32_t>(X) *
                                 static_cast<uint32_t>(Y));
      break;
    case OP_idiv:
      Out = (X == INT32_MIN && Y == -1) ? INT32_MIN : X / Y;
      break;
    case OP_irem:
      Out = (X == INT32_MIN && Y == -1) ? 0 : X % Y;
      break;
    case OP_ishl:
      Out = static_cast<int32_t>(static_cast<uint32_t>(X) << (Y & 31));
      break;
    case OP_ishr:
      Out = X >> (Y & 31);
      break;
    case 0x7C: // iushr
      Out = static_cast<int32_t>(static_cast<uint32_t>(X) >> (Y & 31));
      break;
    case OP_iand:
      Out = X & Y;
      break;
    case OP_ior:
      Out = X | Y;
      break;
    case OP_ixor:
      Out = X ^ Y;
      break;
    }
    Stack.push_back(Value::makeInt(Out));
    return Ctl::Next;
  }

  Ctl doINeg(const PInsn &) {
    Value A = popv();
    Stack.push_back(Value::makeInt(-A.asInt()));
    return Ctl::Next;
  }

  Ctl doConv(const PInsn &I) {
    Value A = popv();
    switch (I.Op) {
    case OP_i2l:
      Stack.push_back(Value::makeLong(A.asInt()));
      break;
    case 0x86: // i2f
      Stack.push_back(Value::makeFloat(A.asInt()));
      break;
    case 0x87: // i2d
      Stack.push_back(Value::makeDouble(A.asInt()));
      break;
    case 0x88: // l2i
      Stack.push_back(Value::makeInt(static_cast<int32_t>(A.I)));
      break;
    case OP_i2b:
      Stack.push_back(Value::makeInt(static_cast<int8_t>(A.asInt())));
      break;
    case 0x92: // i2c
      Stack.push_back(Value::makeInt(static_cast<uint16_t>(A.asInt())));
      break;
    case 0x93: // i2s
      Stack.push_back(Value::makeInt(static_cast<int16_t>(A.asInt())));
      break;
    default:
      // Other fp/long conversions: pass through payload coarsely.
      Stack.push_back(A);
      break;
    }
    return Ctl::Next;
  }

  Ctl doIf(const PInsn &I) {
    int32_t V = popv().asInt();
    bool Taken = false;
    switch (I.Op) {
    case OP_ifeq:
      Taken = V == 0;
      break;
    case OP_ifne:
      Taken = V != 0;
      break;
    case OP_iflt:
      Taken = V < 0;
      break;
    case OP_ifge:
      Taken = V >= 0;
      break;
    case OP_ifgt:
      Taken = V > 0;
      break;
    case OP_ifle:
      Taken = V <= 0;
      break;
    }
    return Taken ? branchTo(I.Target) : Ctl::Next;
  }

  Ctl doIfICmp(const PInsn &I) {
    int32_t B = popv().asInt();
    int32_t A = popv().asInt();
    bool Taken = false;
    switch (I.Op) {
    case OP_if_icmpeq:
      Taken = A == B;
      break;
    case OP_if_icmpne:
      Taken = A != B;
      break;
    case OP_if_icmplt:
      Taken = A < B;
      break;
    case OP_if_icmpge:
      Taken = A >= B;
      break;
    case OP_if_icmpgt:
      Taken = A > B;
      break;
    case OP_if_icmple:
      Taken = A <= B;
      break;
    }
    return Taken ? branchTo(I.Target) : Ctl::Next;
  }

  Ctl doIfACmp(const PInsn &I) {
    Value B = popv(), A = popv();
    bool Equal = A.R == B.R;
    return ((I.Op == OP_if_acmpeq) == Equal) ? branchTo(I.Target)
                                             : Ctl::Next;
  }

  Ctl doIfNull(const PInsn &I) {
    Value V = popv();
    return ((I.Op == OP_ifnull) == V.isNull()) ? branchTo(I.Target)
                                               : Ctl::Next;
  }

  Ctl doSwitch(const PInsn &I) {
    popv();
    return branchTo(I.Target); // Default target.
  }

  Ctl doUnsupported(const PInsn &I) {
    VM.abort(VM.CurrentPhase, JvmErrorKind::InternalError,
             "unsupported opcode at runtime: " + opcodeName(I.Op));
    return fail();
  }

  // --- the shared loop head ------------------------------------------------

  /// Runs the per-instruction loop head, in this order: abort check,
  /// pending-exception handler search (no step charge), budget charge,
  /// fell-off-the-code check, per-opcode dispatch probe. Returns false when the
  /// frame must exit (Ok is already set); true when the instruction at Index
  /// should be dispatched (NextIndex holds the fall-through).
  bool loopHead() {
    for (;;) {
      if (VM.Aborted) {
        Ok = false;
        return false;
      }
      if (VM.PendingException != 0) {
        // Search this frame's exception table. Index is always a valid
        // instruction here: every path that raises an exception unwinds
        // without advancing.
        bool Handled = false;
        uint32_t Pc = PM.Insns[Index].Offset;
        for (const ExceptionTableEntry &E : M.Code->ExceptionTable) {
          if (Pc < E.StartPc || Pc >= E.EndPc)
            continue;
          if (!E.CatchType.empty() &&
              !VM.refInstanceOf(VM.PendingException, E.CatchType))
            continue;
          Stack.clear();
          Stack.push_back(Value::makeRef(VM.PendingException));
          VM.PendingException = 0;
          // A handler pc that is not an instruction start becomes the
          // fell-off VerifyError on the next iteration.
          Index = PM.indexOfOffset(E.HandlerPc);
          Handled = true;
          break;
        }
        if (!Handled) {
          Ok = false; // Unwind to the caller.
          return false;
        }
        continue;
      }

      if (covBranch(Cov, exec_probes::id(exec_probes::BudgetExhausted),
                    VM.StepsRemaining == 0)) {
        VM.abort(VM.CurrentPhase, JvmErrorKind::InternalError,
                 "interpreter step budget exhausted");
        Ok = false;
        return false;
      }
      --VM.StepsRemaining;

      if (covBranch(Cov, exec_probes::id(exec_probes::FellOffCode),
                    Index >= PM.Insns.size())) {
        VM.abort(VM.CurrentPhase, JvmErrorKind::VerifyError,
                 "execution fell off the code of " + M.Name);
        Ok = false;
        return false;
      }

      // Per-opcode statement probe (the interpreter dispatch analog of
      // statement coverage over bytecodeInterpreter.cpp).
      covStmt(Cov, exec_probes::opcodeId(PM.Insns[Index].Op));
      NextIndex = Index + 1;
      return true;
    }
  }

  // --- the shared invoke path ----------------------------------------------

  /// The invoke path shared by both tiers: the prologue (entry probe,
  /// depth limit, native dispatch, missing-code and malformed-bytecode
  /// checks) followed by the dispatch loop. A static member so it shares
  /// ExecContext's friendship with Vm. \p Fetch supplies the tier's
  /// cached lowering (called only for non-native methods with code);
  /// \p Dispatch executes one instruction (or, for the computed-goto
  /// skin, the rest of the frame) and returns its Ctl.
  template <typename FetchFn, typename DispatchFn>
  static bool execInvoke(Vm &VM, Vm::LoadedClass &LC, const MethodInfo &M,
                         std::vector<Value> Args, Value &Ret, FetchFn Fetch,
                         DispatchFn Dispatch) {
    CoverageRecorder *Cov = VM.Cov;
    covStmt(Cov, exec_probes::id(exec_probes::InvokeEntry));
    if (VM.Aborted)
      return false;
    if (covBranch(Cov, exec_probes::id(exec_probes::DepthExceeded),
                  VM.CallDepth >= VM.Policy.MaxCallDepth)) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::StackOverflowError,
               "call depth exceeded in " + LC.CF.ThisClass + "." + M.Name);
      return false;
    }

    if (M.isNative())
      return VM.callNative(LC, M, Args, Ret);

    if (covBranch(Cov, exec_probes::id(exec_probes::MissingCode),
                  !M.Code)) {
      // ensureInvocable should have rejected this; raise the deferred
      // error.
      VM.abort(VM.CurrentPhase, JvmErrorKind::ClassFormatError,
               "method " + M.Name + M.Descriptor +
                   " lacks a Code attribute");
      return false;
    }

    const PredecodedMethod &PM = Fetch();
    // The malformed-bytecode branch fires per invocation, not per
    // predecode: lowering never raises (jvm/Predecode.h), so the abort
    // lands at execution time, after the prologue's earlier checks.
    if (covBranch(Cov, exec_probes::id(exec_probes::MalformedBytecode),
                  !PM.Valid)) {
      VM.abort(VM.CurrentPhase, JvmErrorKind::VerifyError,
               "malformed bytecode reached execution in " + M.Name);
      return false;
    }

    ++VM.CallDepth;
    ExecContext C(VM, LC, M, PM);
    C.bindArgs(Args);
    for (;;) {
      if (!C.loopHead())
        break;
      Ctl Act = Dispatch(C);
      if (Act == Ctl::Return)
        break;
      if (Act == Ctl::Next) {
        if (VM.Aborted) {
          C.Ok = false;
          break;
        }
        C.Index = C.NextIndex;
      }
      // Ctl::Unwind: re-enter the loop head at the current instruction.
    }
    --VM.CallDepth;
    if (C.Ok)
      Ret = C.RetVal;
    return C.Ok;
  }
};

} // namespace classfuzz

#endif // CLASSFUZZ_JVM_EXECHANDLERS_H
