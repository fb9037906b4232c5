//===- jvm/Vm.h - The mini JVM: startup pipeline + execution engine ------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vm implements a JVM startup (Table 1 of the paper): creation/loading,
/// linking (format checks, bytecode verification, hierarchy checks),
/// initialization (<clinit> interpretation), and invocation of main.
/// Behavior is parameterized by a JvmPolicy; coverage probes fire into an
/// optional CoverageRecorder, which the fuzzing campaigns attach only for
/// the reference JVM.
///
/// Bytecode execution itself lives behind the ExecEngine interface
/// (jvm/ExecEngine.h): the policy's ExecTier selects the token-threaded
/// interpreter or the baseline template tier. The Vm owns the pipeline,
/// the heap, the class registry, and the step budget; engines drive them
/// through a friend surface, so callers of run() see no interpreter
/// internals.
///
/// Usage:
/// \code
///   ClassPath Env = buildRuntimeLibrary("jre8").overlaidWith(TestClasses);
///   Vm Jvm(makeJ9Policy(), Env);
///   JvmResult R = Jvm.run("M1436188543");   // the `java M1436188543` cmd
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_JVM_VM_H
#define CLASSFUZZ_JVM_VM_H

#include "classfile/ClassFile.h"
#include "coverage/Tracefile.h"
#include "jvm/ClassPath.h"
#include "jvm/JvmTypes.h"
#include "jvm/Policy.h"
#include "jvm/Value.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace classfuzz {

class ExecEngine;

/// One JVM instance bound to a policy and an environment. A Vm is
/// single-shot per class under test: create, run(), inspect, discard.
///
/// The Vm keeps a reference to its ClassPath and borrows every parsed
/// class from the environment's entries (ClassEntry::parsed()), so the
/// ClassPath must outlive the Vm.
class Vm {
public:
  Vm(const JvmPolicy &Policy, const ClassPath &Env,
     CoverageRecorder *Cov = nullptr);
  ~Vm();

  Vm(const Vm &) = delete;
  Vm &operator=(const Vm &) = delete;

  /// Starts the JVM on \p MainClassName: load, link, initialize, invoke
  /// public static void main(String[]).
  JvmResult run(const std::string &MainClassName);

  const JvmPolicy &policy() const { return Policy; }

  /// The execution engine the policy's tier selected. Exposed for tests
  /// and telemetry (code-cache statistics); never needed to run a class.
  ExecEngine &engine() { return *Engine; }
  const ExecEngine &engine() const { return *Engine; }

  enum class ClassState : uint8_t {
    Loaded,
    Linked,
    Initializing,
    Initialized,
  };

  /// A class in this Vm's registry. Public so execution engines can name
  /// it in their interfaces; its mutation stays inside jvm/.
  struct LoadedClass {
    explicit LoadedClass(const ClassFile &CF) : CF(CF) {}

    /// Borrowed from the environment's ClassEntry, which owns it and may
    /// share it with other Vms (and threads): never written.
    const ClassFile &CF;
    ClassState State = ClassState::Loaded;
    /// Static field slots, keyed "name:descriptor".
    std::map<std::string, Value> Statics;
    /// Methods already verified (lazy-verification memo), "name+desc".
    std::set<std::string> VerifiedMethods;
    /// Whole-class verification already done (eager policies).
    bool Verified = false;
  };

private:
  // Execution engines (and only they) reach the pipeline, heap, and
  // budget through this friendship; the public API stays run()-shaped.
  friend class ExecEngine;
  friend class ThreadedEngine;
  friend class BaselineEngine;
  friend struct ExecContext;

  // --- pipeline (Vm.cpp) --------------------------------------------------
  /// Loads (and links) \p Name and its supertypes. Returns nullptr after
  /// recording the failure in Result.
  LoadedClass *loadClass(const std::string &Name);
  bool linkClass(LoadedClass &LC);
  bool verifyWholeClass(LoadedClass &LC);
  /// Lazy per-method verification + deferred format checks at invoke time.
  bool ensureInvocable(LoadedClass &LC, const MethodInfo &M);
  /// Ensures <clinit> of \p LC (and supers) ran (JVMS §5.5).
  bool initializeClass(LoadedClass &LC);
  /// Hierarchy oracle handed to the verifier: the environment's parse of
  /// \p Name, loaded or not; nullptr when absent or unparseable.
  const ClassFile *lookupClassFile(const std::string &Name);

  /// Records an abort (VM error) unless one is already recorded.
  void abort(JvmPhase Phase, JvmErrorKind Kind, std::string Message);
  bool aborted() const { return Aborted; }

  // --- execution dispatch --------------------------------------------------
  /// Invokes \p M with \p Args through the configured engine; places the
  /// return value in \p Ret. Returns false when an exception is pending
  /// or the VM aborted. All recursive invocation (invoke* bytecodes,
  /// <clinit>, main) funnels through here, so one tier executes the
  /// whole run.
  bool invoke(LoadedClass &LC, const MethodInfo &M, std::vector<Value> Args,
              Value &Ret);
  bool callNative(LoadedClass &LC, const MethodInfo &M,
                  std::vector<Value> &Args, Value &Ret);
  /// Allocates a heap object; returns its ref id (0 on heap exhaustion,
  /// which also aborts with OutOfMemoryError).
  int32_t allocObject(const std::string &ClassName);
  int32_t allocString(const std::string &S);
  int32_t allocArray(const std::string &ElemClassName, int32_t Length);
  HeapObject *deref(int32_t Ref);
  /// Throws a built-in exception object (NPE, ...) as a catchable value.
  void throwBuiltin(JvmErrorKind Kind, const std::string &ClassName,
                    const std::string &Message);
  /// Runtime class of a heap reference ("java/lang/String" for strings).
  std::string classOfRef(int32_t Ref);
  /// Dynamic assignability used by checkcast/instanceof/catch matching.
  bool refInstanceOf(int32_t Ref, const std::string &ClassName);
  /// Resolves a virtual method against the runtime class hierarchy.
  struct ResolvedMethod {
    LoadedClass *Holder = nullptr;
    const MethodInfo *Method = nullptr;
  };
  ResolvedMethod resolveMethod(const std::string &ClassName,
                               const std::string &Name,
                               const std::string &Desc);
  /// Resolves a field (walking supers); returns the holder class, or
  /// nullptr when absent.
  LoadedClass *resolveField(const std::string &ClassName,
                            const std::string &Name,
                            const std::string &Desc);
  /// Member access control (JVMS §5.4.4): may code in \p Referencing
  /// access a member of \p Holder with \p MemberFlags? Aborts with
  /// IllegalAccessError and returns false when not (and the policy
  /// checks access).
  bool checkMemberAccess(const std::string &Referencing,
                         const std::string &Holder, uint16_t MemberFlags,
                         const std::string &MemberName);
  /// The package part of an internal class name ("" for the default
  /// package).
  static std::string packageOf(const std::string &InternalName);

  JvmPolicy Policy;
  const ClassPath &Env;
  CoverageRecorder *Cov;
  std::unique_ptr<ExecEngine> Engine;

  std::map<std::string, std::unique_ptr<LoadedClass>> Classes;
  std::set<std::string> LoadingInProgress; ///< Circularity detection.

  std::vector<HeapObject> Heap; ///< Heap[Ref-1]; Ref 0 is null.
  int32_t PendingException = 0; ///< Heap ref of the in-flight throwable.

  JvmResult Result;
  JvmPhase CurrentPhase = JvmPhase::Loading;
  bool Aborted = false;

  uint32_t StepsRemaining = 0;
  uint32_t CallDepth = 0;
};

} // namespace classfuzz

#endif // CLASSFUZZ_JVM_VM_H
