//===- jvm/Vm.cpp - Startup pipeline: load, link, initialize, invoke -----===//

#include "jvm/Vm.h"

#include "classfile/Descriptor.h"
#include "coverage/Probes.h"
#include "jvm/ExecEngine.h"
#include "jvm/FormatChecker.h"
#include "jvm/Verifier.h"
#include "telemetry/Telemetry.h"

CF_COV_FILE(3)

using namespace classfuzz;

Vm::Vm(const JvmPolicy &Policy, const ClassPath &Env, CoverageRecorder *Cov)
    : Policy(Policy), Env(Env), Cov(Cov) {
  StepsRemaining = Policy.MaxInterpSteps;
  Engine = makeExecEngine(*this, Policy.Tier);
}

bool Vm::invoke(LoadedClass &LC, const MethodInfo &M, std::vector<Value> Args,
                Value &Ret) {
  return Engine->invoke(LC, M, std::move(Args), Ret);
}

Vm::~Vm() {
  // Per-run resource telemetry, recorded at teardown so every exit path
  // (normal completion and aborts alike) is covered. Observation only;
  // worker threads record concurrently through relaxed atomics.
  if (!telemetry::enabled())
    return;
  static telemetry::Counter &Runs = telemetry::metrics().counter("jvm.instances");
  static telemetry::Counter &Steps =
      telemetry::metrics().counter("jvm.interp_steps");
  static telemetry::Gauge &HeapHighWater =
      telemetry::metrics().gauge("jvm.heap.high_water");
  Runs.inc();
  Steps.inc(Policy.MaxInterpSteps - StepsRemaining);
  HeapHighWater.recordMax(static_cast<int64_t>(Heap.size()));
}

namespace {

constexpr size_t NumPhases = static_cast<size_t>(JvmPhase::Completed) + 1;
constexpr size_t NumErrorKinds =
    static_cast<size_t>(JvmErrorKind::InternalError) + 1;

/// Maps an error kind to the canonical startup phase it belongs to
/// (Table 1). The paper's 0..4 encoding classifies by error type, so a
/// lazily-thrown VerifyError (J9) still counts as a linking rejection.
JvmPhase canonicalPhase(JvmErrorKind Kind, JvmPhase Current) {
  switch (Kind) {
  case JvmErrorKind::ClassFormatError:
  case JvmErrorKind::UnsupportedClassVersionError:
  case JvmErrorKind::ClassCircularityError:
    return JvmPhase::Loading;
  case JvmErrorKind::NoClassDefFoundError:
    // Listed under both loading and initializing in Table 1: keep the
    // phase it actually occurred in, but never later than execution.
    return Current;
  case JvmErrorKind::VerifyError:
  case JvmErrorKind::IncompatibleClassChangeError:
  case JvmErrorKind::AbstractMethodError:
  case JvmErrorKind::IllegalAccessError:
  case JvmErrorKind::InstantiationError:
  case JvmErrorKind::NoSuchFieldError:
  case JvmErrorKind::NoSuchMethodError:
  case JvmErrorKind::UnsatisfiedLinkError:
    return JvmPhase::Linking;
  case JvmErrorKind::ExceptionInInitializerError:
    return JvmPhase::Initialization;
  default:
    return Current;
  }
}

/// Default value for a static field slot.
Value defaultValueFor(const std::string &Descriptor) {
  JType T;
  if (!parseFieldDescriptor(Descriptor, T) || T.isReferenceLike())
    return Value::null();
  switch (T.Kind) {
  case TypeKind::Long:
    return Value::makeLong(0);
  case TypeKind::Float:
    return Value::makeFloat(0);
  case TypeKind::Double:
    return Value::makeDouble(0);
  default:
    return Value::makeInt(0);
  }
}

} // namespace

std::string Vm::packageOf(const std::string &InternalName) {
  size_t Slash = InternalName.rfind('/');
  return Slash == std::string::npos ? std::string()
                                    : InternalName.substr(0, Slash);
}

void Vm::abort(JvmPhase Phase, JvmErrorKind Kind, std::string Message) {
  if (Aborted)
    return;
  // Error-reporting probe: which error path of the reference JVM fired
  // (errors funnel through shared reporting code in real VMs too).
  covStmt(Cov, (CovFileId << 16) | 0x4000u |
                   static_cast<uint32_t>(Kind) << 3 |
                   static_cast<uint32_t>(Phase));
  Aborted = true;
  Result.Invoked = false;
  Result.Phase = canonicalPhase(Kind, Phase);
  Result.Error = Kind;
  Result.Message = std::move(Message);

  // Abort census keyed (canonical phase, error kind) -- the Table 1 cell
  // this rejection lands in. One relaxed increment when enabled.
  if (telemetry::enabled()) {
    static telemetry::CounterGrid &Aborts = telemetry::metrics().grid(
        "jvm.aborts", NumPhases, NumErrorKinds,
        [](size_t Row) {
          return std::string(phaseName(static_cast<JvmPhase>(Row)));
        },
        [](size_t Col) {
          return std::string(errorKindName(static_cast<JvmErrorKind>(Col)));
        });
    Aborts.inc(static_cast<size_t>(Result.Phase),
               static_cast<size_t>(Result.Error));
  }
}

const ClassFile *Vm::lookupClassFile(const std::string &Name) {
  const ClassEntryRef *Entry = Env.entry(Name);
  if (!Entry)
    return nullptr;
  const auto &Parsed = (*Entry)->parsed();
  return Parsed.ok() ? &*Parsed : nullptr;
}

Vm::LoadedClass *Vm::loadClass(const std::string &Name) {
  COV_STMT(Cov);
  auto It = Classes.find(Name);
  if (It != Classes.end())
    return It->second.get();

  if (COV_BRANCH(Cov, LoadingInProgress.count(Name))) {
    abort(JvmPhase::Loading, JvmErrorKind::ClassCircularityError, Name);
    return nullptr;
  }

  const ClassEntryRef *Entry = Env.entry(Name);
  if (COV_BRANCH(Cov, !Entry)) {
    abort(CurrentPhase, JvmErrorKind::NoClassDefFoundError, Name);
    return nullptr;
  }

  const auto &Parsed = (*Entry)->parsed();
  if (COV_BRANCH(Cov, !Parsed.ok())) {
    abort(JvmPhase::Loading, JvmErrorKind::ClassFormatError, Parsed.error());
    return nullptr;
  }
  const ClassFile &CF = *Parsed;

  if (COV_BRANCH(Cov, CF.ThisClass != Name)) {
    abort(JvmPhase::Loading, JvmErrorKind::NoClassDefFoundError,
          Name + " (wrong name: " + CF.ThisClass + ")");
    return nullptr;
  }

  // Parser-path probes: which cases of the classfile parser ran for
  // this class (constant-pool tag cases, flag-bit handling, member-count
  // loop trip buckets) -- the statement-coverage analog of HotSpot's
  // classFileParser.cpp.
  if (Cov) {
    for (uint16_t I = 1; I < CF.CP.count(); ++I) {
      CpTag Tag = CF.CP.at(I).Tag;
      if (Tag != CpTag::Invalid)
        covStmt(Cov, (CovFileId << 16) | 0xE000u |
                         static_cast<uint32_t>(Tag));
    }
    for (uint32_t Bit = 0; Bit != 16; ++Bit)
      if (CF.AccessFlags & (1u << Bit))
        covStmt(Cov, (CovFileId << 16) | 0xE100u | Bit);
    covStmt(Cov, (CovFileId << 16) | 0xE200u |
                     std::min<uint32_t>(
                         static_cast<uint32_t>(CF.Methods.size()), 15));
    covStmt(Cov, (CovFileId << 16) | 0xE300u |
                     std::min<uint32_t>(
                         static_cast<uint32_t>(CF.Fields.size()), 15));
    covStmt(Cov, (CovFileId << 16) | 0xE400u |
                     std::min<uint32_t>(
                         static_cast<uint32_t>(CF.Interfaces.size()), 7));
    for (const MethodInfo &M : CF.Methods) {
      for (uint32_t Bit = 0; Bit != 16; ++Bit)
        if (M.AccessFlags & (1u << Bit))
          covStmt(Cov, (CovFileId << 16) | 0xE500u | Bit);
      covBranch(Cov, (CovFileId << 16) | 0xE600u, M.Code.has_value());
      covBranch(Cov, (CovFileId << 16) | 0xE601u, !M.Exceptions.empty());
    }
    for (const FieldInfo &F : CF.Fields)
      for (uint32_t Bit = 0; Bit != 16; ++Bit)
        if (F.AccessFlags & (1u << Bit))
          covStmt(Cov, (CovFileId << 16) | 0xE700u | Bit);
  }

  if (auto Failure = checkClassFormat(CF, Policy, Cov)) {
    abort(JvmPhase::Loading, Failure->Kind, Failure->Message);
    return nullptr;
  }

  // Load the supertypes (with circularity detection).
  LoadingInProgress.insert(Name);
  if (!CF.SuperClass.empty() && !loadClass(CF.SuperClass)) {
    LoadingInProgress.erase(Name);
    return nullptr;
  }
  for (const std::string &Iface : CF.Interfaces) {
    if (!loadClass(Iface)) {
      LoadingInProgress.erase(Name);
      return nullptr;
    }
  }
  LoadingInProgress.erase(Name);

  auto LC = std::make_unique<LoadedClass>(CF);
  // Prepare static field slots (JVMS "preparation", done here for
  // simplicity; observable behavior is identical). ConstantValue
  // attributes initialize their slot without running <clinit>.
  for (const FieldInfo &F : LC->CF.Fields) {
    if (!F.isStatic())
      continue;
    Value V = defaultValueFor(F.Descriptor);
    if (F.ConstantValue) {
      COV_STMT(Cov);
      switch (F.ConstantValue->Kind) {
      case 'i':
        V = Value::makeInt(static_cast<int32_t>(F.ConstantValue->IntValue));
        break;
      case 'j':
        V = Value::makeLong(F.ConstantValue->IntValue);
        break;
      case 'f':
        V = Value::makeFloat(F.ConstantValue->FpValue);
        break;
      case 'd':
        V = Value::makeDouble(F.ConstantValue->FpValue);
        break;
      default:
        V = Value::makeRef(allocString(F.ConstantValue->StrValue));
        break;
      }
    }
    LC->Statics[F.Name + ":" + F.Descriptor] = V;
  }

  LoadedClass *Out = LC.get();
  Classes[Name] = std::move(LC);
  return Out;
}

bool Vm::verifyWholeClass(LoadedClass &LC) {
  COV_STMT(Cov);
  if (LC.Verified)
    return true;
  ClassLookupFn Lookup = [this](const std::string &N) {
    return lookupClassFile(N);
  };
  for (const MethodInfo &M : LC.CF.Methods) {
    if (auto Failure = verifyMethod(LC.CF, M, Policy, Lookup, Cov)) {
      abort(JvmPhase::Linking, Failure->Kind, Failure->Message);
      return false;
    }
    LC.VerifiedMethods.insert(M.Name + M.Descriptor);
  }
  LC.Verified = true;
  return true;
}

bool Vm::linkClass(LoadedClass &LC) {
  COV_STMT(Cov);
  if (LC.State != ClassState::Loaded)
    return true;

  // Link supers first.
  if (!LC.CF.SuperClass.empty()) {
    auto It = Classes.find(LC.CF.SuperClass);
    if (It != Classes.end() && !linkClass(*It->second))
      return false;
  }
  for (const std::string &Iface : LC.CF.Interfaces) {
    auto It = Classes.find(Iface);
    if (It != Classes.end() && !linkClass(*It->second))
      return false;
  }

  const ClassFile *Super =
      LC.CF.SuperClass.empty() ? nullptr : lookupClassFile(LC.CF.SuperClass);

  if (Policy.CheckHierarchyKinds && Super) {
    if (COV_BRANCH(Cov, !LC.CF.isInterface() &&
                            (Super->AccessFlags & ACC_INTERFACE))) {
      abort(JvmPhase::Linking, JvmErrorKind::IncompatibleClassChangeError,
            "class " + LC.CF.ThisClass + " has interface " +
                LC.CF.SuperClass + " as super class");
      return false;
    }
    for (const std::string &IfaceName : LC.CF.Interfaces) {
      const ClassFile *Iface = lookupClassFile(IfaceName);
      if (COV_BRANCH(Cov, Iface && !(Iface->AccessFlags & ACC_INTERFACE))) {
        abort(JvmPhase::Linking, JvmErrorKind::IncompatibleClassChangeError,
              "class " + LC.CF.ThisClass + " implements non-interface " +
                  IfaceName);
        return false;
      }
    }
  }

  if (Policy.CheckFinalSuperclass && Super &&
      COV_BRANCH(Cov, Super->AccessFlags & ACC_FINAL)) {
    abort(JvmPhase::Linking, JvmErrorKind::VerifyError,
          "Cannot inherit from final class " + LC.CF.SuperClass);
    return false;
  }

  // Problem 3: accessibility of classes named in throws clauses.
  if (Policy.CheckThrowsAccessibility) {
    for (const MethodInfo &M : LC.CF.Methods) {
      for (const std::string &ExcName : M.Exceptions) {
        const ClassFile *Exc = lookupClassFile(ExcName);
        if (!Exc)
          continue; // Unresolvable: deferred (lazy resolution).
        bool SamePackage =
            packageOf(ExcName) == packageOf(LC.CF.ThisClass);
        if (COV_BRANCH(Cov, !(Exc->AccessFlags & ACC_PUBLIC) &&
                                !SamePackage)) {
          abort(JvmPhase::Linking, JvmErrorKind::IllegalAccessError,
                "class " + LC.CF.ThisClass + " cannot access class " +
                    ExcName + " declared in throws clause");
          return false;
        }
      }
    }
  }

  if (Policy.Verification == CheckMode::Eager && !verifyWholeClass(LC))
    return false;
  if (Policy.Verification == CheckMode::Lazy &&
      Policy.StructuralVerifyOnLink) {
    for (const MethodInfo &M : LC.CF.Methods) {
      if (auto Failure = verifyMethodStructural(LC.CF, M, Policy, Cov)) {
        abort(JvmPhase::Linking, Failure->Kind, Failure->Message);
        return false;
      }
    }
  }

  LC.State = ClassState::Linked;
  return true;
}

bool Vm::ensureInvocable(LoadedClass &LC, const MethodInfo &M) {
  COV_STMT(Cov);
  if (auto Failure = checkMethodInvocable(LC.CF, M, Policy, Cov)) {
    abort(CurrentPhase, Failure->Kind, Failure->Message);
    return false;
  }
  if (Policy.Verification == CheckMode::Lazy &&
      !LC.VerifiedMethods.count(M.Name + M.Descriptor)) {
    ClassLookupFn Lookup = [this](const std::string &N) {
      return lookupClassFile(N);
    };
    if (auto Failure = verifyMethod(LC.CF, M, Policy, Lookup, Cov)) {
      abort(CurrentPhase, Failure->Kind, Failure->Message);
      return false;
    }
    LC.VerifiedMethods.insert(M.Name + M.Descriptor);
  }
  return true;
}

bool Vm::initializeClass(LoadedClass &LC) {
  COV_STMT(Cov);
  if (LC.State == ClassState::Initialized ||
      LC.State == ClassState::Initializing)
    return true;
  if (LC.State == ClassState::Loaded && !linkClass(LC))
    return false;

  LC.State = ClassState::Initializing;

  // Initialize the superclass chain first (JVMS §5.5).
  if (!LC.CF.SuperClass.empty()) {
    auto It = Classes.find(LC.CF.SuperClass);
    if (It != Classes.end() && !initializeClass(*It->second)) {
      LC.State = ClassState::Linked;
      return false;
    }
  }

  // Run the class initializer, if this policy recognizes one.
  for (const MethodInfo &M : LC.CF.Methods) {
    if (!isInitializationMethod(M, Policy))
      continue;
    if (!M.Code)
      break; // Strict policies rejected this at format check already.
    if (!ensureInvocable(LC, M))
      return false;
    Value Ret;
    if (!invoke(LC, M, {}, Ret)) {
      if (PendingException != 0) {
        HeapObject *Exc = deref(PendingException);
        std::string What = Exc ? Exc->ClassName : "exception";
        PendingException = 0;
        abort(JvmPhase::Initialization,
              JvmErrorKind::ExceptionInInitializerError,
              "initialization of " + LC.CF.ThisClass + " threw " + What);
      }
      return false;
    }
    break;
  }

  LC.State = ClassState::Initialized;
  return true;
}

JvmResult Vm::run(const std::string &MainClassName) {
  COV_STMT(Cov);
  Result = JvmResult();
  Aborted = false;
  CurrentPhase = JvmPhase::Loading;

  LoadedClass *LC = loadClass(MainClassName);
  if (!LC)
    return Result;

  CurrentPhase = JvmPhase::Linking;
  if (!linkClass(*LC))
    return Result;

  CurrentPhase = JvmPhase::Initialization;
  if (!initializeClass(*LC))
    return Result;

  CurrentPhase = JvmPhase::Execution;

  if (COV_BRANCH(Cov, LC->CF.isInterface() && !Policy.AllowInterfaceMain)) {
    abort(JvmPhase::Execution, JvmErrorKind::MainMethodNotFound,
          "interface " + MainClassName + " cannot be executed");
    return Result;
  }

  const MethodInfo *Main =
      LC->CF.findMethod("main", "([Ljava/lang/String;)V");
  if (COV_BRANCH(Cov, !Main)) {
    abort(JvmPhase::Execution, JvmErrorKind::MainMethodNotFound,
          "main method not found in class " + MainClassName);
    return Result;
  }
  if (Policy.RequireStaticMain &&
      COV_BRANCH(Cov, !Main->isStatic() ||
                          !(Main->AccessFlags & ACC_PUBLIC))) {
    abort(JvmPhase::Execution, JvmErrorKind::MainMethodNotFound,
          "main method is not public static");
    return Result;
  }

  if (!ensureInvocable(*LC, *Main))
    return Result;

  // java <class>: argument is an empty String[].
  int32_t ArgsRef = allocArray("java/lang/String", 0);
  if (Aborted)
    return Result;

  Value Ret;
  std::vector<Value> Args;
  if (Main->isStatic()) {
    Args.push_back(Value::makeRef(ArgsRef));
  } else {
    // Lenient policies (GIJ) instantiate the class and call main on it.
    int32_t Receiver = allocObject(MainClassName);
    Args.push_back(Value::makeRef(Receiver));
    Args.push_back(Value::makeRef(ArgsRef));
  }

  if (!invoke(*LC, *Main, std::move(Args), Ret)) {
    if (PendingException != 0) {
      HeapObject *Exc = deref(PendingException);
      std::string ClassName = Exc ? Exc->ClassName : "java/lang/Throwable";
      PendingException = 0;
      JvmErrorKind Kind = JvmErrorKind::UserException;
      if (ClassName == "java/lang/NullPointerException")
        Kind = JvmErrorKind::NullPointerException;
      else if (ClassName == "java/lang/ArithmeticException")
        Kind = JvmErrorKind::ArithmeticException;
      else if (ClassName == "java/lang/ClassCastException")
        Kind = JvmErrorKind::ClassCastException;
      else if (ClassName == "java/lang/ArrayIndexOutOfBoundsException")
        Kind = JvmErrorKind::ArrayIndexOutOfBoundsException;
      else if (ClassName == "java/lang/NegativeArraySizeException")
        Kind = JvmErrorKind::NegativeArraySizeException;
      abort(JvmPhase::Execution, Kind,
            "uncaught exception " + ClassName + " in main");
    }
    return Result;
  }

  Result.Invoked = true;
  Result.Phase = JvmPhase::Completed;
  return Result;
}
