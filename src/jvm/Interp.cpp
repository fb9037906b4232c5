//===- jvm/Interp.cpp - Object model and runtime services ----------------===//
//
// What the execution tiers call back into during the invocation phase:
// the modeled heap, built-in exception throwing, method and field
// resolution, member access control, and a native-method registry for
// the runtime library's primitives (println, Object.<init>, ...). The
// op semantics themselves live once, in jvm/ExecHandlers.h.
//
//===----------------------------------------------------------------------===//

#include "jvm/Vm.h"

#include "classfile/Descriptor.h"
#include "coverage/Probes.h"
#include "jvm/Verifier.h"

CF_COV_FILE(4)

using namespace classfuzz;

int32_t Vm::allocObject(const std::string &ClassName) {
  if (Heap.size() >= Policy.MaxHeapObjects) {
    abort(CurrentPhase, JvmErrorKind::OutOfMemoryError, "Java heap space");
    return 0;
  }
  HeapObject Obj;
  Obj.ClassName = ClassName;
  Heap.push_back(std::move(Obj));
  return static_cast<int32_t>(Heap.size());
}

int32_t Vm::allocString(const std::string &S) {
  int32_t Ref = allocObject("java/lang/String");
  if (Ref != 0) {
    Heap[Ref - 1].IsString = true;
    Heap[Ref - 1].Str = S;
  }
  return Ref;
}

int32_t Vm::allocArray(const std::string &ElemClassName, int32_t Length) {
  int32_t Ref = allocObject("[L" + ElemClassName + ";");
  if (Ref != 0) {
    Heap[Ref - 1].IsArray = true;
    Heap[Ref - 1].Elems.assign(static_cast<size_t>(Length), Value::null());
  }
  return Ref;
}

HeapObject *Vm::deref(int32_t Ref) {
  if (Ref <= 0 || static_cast<size_t>(Ref) > Heap.size())
    return nullptr;
  return &Heap[Ref - 1];
}

std::string Vm::classOfRef(int32_t Ref) {
  HeapObject *Obj = deref(Ref);
  return Obj ? Obj->ClassName : "java/lang/Object";
}

bool Vm::refInstanceOf(int32_t Ref, const std::string &ClassName) {
  HeapObject *Obj = deref(Ref);
  if (!Obj)
    return false;
  if (ClassName == "java/lang/Object")
    return true;
  if (Obj->IsArray)
    return Obj->ClassName == ClassName;
  ClassLookupFn Lookup = [this](const std::string &N) {
    return lookupClassFile(N);
  };
  return isRefAssignable(Obj->ClassName, ClassName, Lookup);
}

void Vm::throwBuiltin(JvmErrorKind Kind, const std::string &ClassName,
                      const std::string &Message) {
  (void)Kind; // Classified again from the class name when uncaught.
  int32_t Ref = allocObject(ClassName);
  if (Ref == 0)
    return; // OutOfMemoryError abort already recorded.
  Heap[Ref - 1].Fields["message:Ljava/lang/String;"] =
      Value::makeRef(allocString(Message));
  PendingException = Ref;
}

Vm::ResolvedMethod Vm::resolveMethod(const std::string &ClassName,
                                     const std::string &Name,
                                     const std::string &Desc) {
  COV_STMT(Cov);
  ResolvedMethod Out;
  std::string Cur = ClassName;
  for (int Depth = 0; Depth < 64 && !Cur.empty(); ++Depth) {
    LoadedClass *LC = loadClass(Cur);
    if (!LC)
      return Out; // Abort recorded by loadClass.
    if (const MethodInfo *M = LC->CF.findMethod(Name, Desc)) {
      Out.Holder = LC;
      Out.Method = M;
      return Out;
    }
    Cur = LC->CF.SuperClass;
  }
  // Search superinterfaces (abstract interface methods).
  LoadedClass *Start = loadClass(ClassName);
  if (Start) {
    for (const std::string &Iface : Start->CF.Interfaces) {
      ResolvedMethod R = resolveMethod(Iface, Name, Desc);
      if (R.Method)
        return R;
    }
  }
  return Out;
}

Vm::LoadedClass *Vm::resolveField(const std::string &ClassName,
                                  const std::string &Name,
                                  const std::string &Desc) {
  COV_STMT(Cov);
  std::string Cur = ClassName;
  for (int Depth = 0; Depth < 64 && !Cur.empty(); ++Depth) {
    LoadedClass *LC = loadClass(Cur);
    if (!LC)
      return nullptr;
    for (const FieldInfo &F : LC->CF.Fields)
      if (F.Name == Name && F.Descriptor == Desc)
        return LC;
    for (const std::string &Iface : LC->CF.Interfaces)
      if (LoadedClass *Holder = resolveField(Iface, Name, Desc))
        return Holder;
    Cur = LC->CF.SuperClass;
  }
  return nullptr;
}

bool Vm::checkMemberAccess(const std::string &Referencing,
                           const std::string &Holder,
                           uint16_t MemberFlags,
                           const std::string &MemberName) {
  if (!Policy.CheckMemberAccess || Referencing == Holder)
    return true;
  if (COV_BRANCH(Cov, MemberFlags & ACC_PRIVATE)) {
    abort(CurrentPhase, JvmErrorKind::IllegalAccessError,
          Referencing + " cannot access private member " + Holder + "." +
              MemberName);
    return false;
  }
  if (MemberFlags & ACC_PUBLIC)
    return true;
  // Protected (simplified to the package rule) and package-private.
  if (COV_BRANCH(Cov, packageOf(Referencing) != packageOf(Holder))) {
    abort(CurrentPhase, JvmErrorKind::IllegalAccessError,
          Referencing + " cannot access member " + Holder + "." +
              MemberName);
    return false;
  }
  return true;
}

bool Vm::callNative(LoadedClass &LC, const MethodInfo &M,
                    std::vector<Value> &Args, Value &Ret) {
  COV_STMT(Cov);
  const std::string &Cls = LC.CF.ThisClass;
  const std::string &Name = M.Name;

  auto stringOf = [this](const Value &V) -> std::string {
    if (V.T != Value::Tag::Ref)
      return std::to_string(V.I);
    HeapObject *Obj = deref(V.R);
    if (!Obj)
      return "null";
    if (Obj->IsString)
      return Obj->Str;
    return "<" + Obj->ClassName + ">";
  };

  // --- java/io/PrintStream ------------------------------------------------
  if (Cls == "java/io/PrintStream" &&
      (Name == "println" || Name == "print")) {
    // Receiver is Args[0]; the printed value (if any) is Args[1].
    Result.Output.push_back(Args.size() > 1 ? stringOf(Args[1])
                                            : std::string());
    return true;
  }

  // --- native constructors ---------------------------------------------------
  if (Name == "<init>") {
    // Throwable-family (String) constructors store the message; every
    // other native constructor is a no-op.
    if (M.Descriptor == "(Ljava/lang/String;)V" && Args.size() > 1) {
      HeapObject *Self = deref(Args[0].R);
      if (Self)
        Self->Fields["message:Ljava/lang/String;"] = Args[1];
    }
    return true;
  }
  if (Cls == "java/lang/Object" || Name == "hashCode") {
    if (Name == "hashCode") {
      Ret = Value::makeInt(Args.empty() ? 0 : Args[0].R);
      return true;
    }
    if (Name == "equals") {
      Ret = Value::makeInt(Args.size() > 1 && Args[0].R == Args[1].R);
      return true;
    }
    if (Name == "toString") {
      Ret = Value::makeRef(allocString(stringOf(Args[0])));
      return true;
    }
  }

  // --- java/lang/String -----------------------------------------------------
  if (Cls == "java/lang/String") {
    HeapObject *Self = Args.empty() ? nullptr : deref(Args[0].R);
    if (Name == "length") {
      Ret = Value::makeInt(
          Self ? static_cast<int32_t>(Self->Str.size()) : 0);
      return true;
    }
    if (Name == "concat") {
      std::string Other = Args.size() > 1 ? stringOf(Args[1]) : "";
      Ret = Value::makeRef(allocString((Self ? Self->Str : "") + Other));
      return true;
    }
    if (Name == "equals") {
      HeapObject *Other = Args.size() > 1 ? deref(Args[1].R) : nullptr;
      Ret = Value::makeInt(Self && Other && Other->IsString &&
                           Self->Str == Other->Str);
      return true;
    }
  }

  // --- java/lang/StringBuilder ----------------------------------------------
  if (Cls == "java/lang/StringBuilder") {
    HeapObject *Self = Args.empty() ? nullptr : deref(Args[0].R);
    if (Name == "append") {
      if (Self)
        Self->Str += Args.size() > 1 ? stringOf(Args[1]) : "";
      Ret = Args.empty() ? Value::null() : Args[0]; // Returns this.
      return true;
    }
    if (Name == "toString") {
      Ret = Value::makeRef(allocString(Self ? Self->Str : ""));
      return true;
    }
  }

  // --- java/lang/Throwable ---------------------------------------------------
  if (Name == "getMessage" && !Args.empty()) {
    HeapObject *Self = deref(Args[0].R);
    if (Self) {
      auto It = Self->Fields.find("message:Ljava/lang/String;");
      Ret = It != Self->Fields.end() ? It->second : Value::null();
      return true;
    }
  }

  // Unknown native: return the default value of the return type. This
  // keeps mutated natives from derailing whole campaigns (matching the
  // robustness of real JVMs whose natives we do not model).
  MethodDescriptor MD;
  if (parseMethodDescriptor(M.Descriptor, MD) &&
      MD.ReturnType.Kind != TypeKind::Void) {
    if (MD.ReturnType.isReferenceLike())
      Ret = Value::null();
    else if (MD.ReturnType.Kind == TypeKind::Long)
      Ret = Value::makeLong(0);
    else if (MD.ReturnType.Kind == TypeKind::Float)
      Ret = Value::makeFloat(0);
    else if (MD.ReturnType.Kind == TypeKind::Double)
      Ret = Value::makeDouble(0);
    else
      Ret = Value::makeInt(0);
  }
  return true;
}
