//===- jvm/Policy.h - Per-implementation JVM behavior profiles -----------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A JvmPolicy parameterizes the mini JVM with one implementation's
/// checking and verification behavior. The five built-in profiles model
/// the JVMs of Table 3 (HotSpot 7/8/9, J9 for IBM SDK8, GIJ 5.1.0) with
/// the concrete differences the paper documents:
///
///  * Problem 1: non-static <clinit> — HotSpot treats it as an ordinary
///    method; J9 raises ClassFormatError ("no Code attribute ...").
///  * Problem 2: J9 verifies a method only when invoked, HotSpot verifies
///    eagerly; GIJ flags merged initialized/uninitialized types and
///    unsafe reference parameter casts that HotSpot misses.
///  * Problem 3: HotSpot checks accessibility of classes in throws
///    clauses (IllegalAccessError); J9 and GIJ do not.
///  * Problem 4: GIJ accepts interfaces with non-Object superclasses,
///    non-public interface members, interface main methods, malformed
///    <init> signatures, and duplicate fields that the others reject.
///
/// Each policy also names a runtime-library variant (see runtime/), which
/// models the JRE-version skew behind the compatibility discrepancies of
/// the paper's preliminary study.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_JVM_POLICY_H
#define CLASSFUZZ_JVM_POLICY_H

#include "jvm/ExecTier.h"

#include <cstdint>
#include <string>
#include <vector>

namespace classfuzz {

/// When a given check runs, if at all.
enum class CheckMode : uint8_t {
  Off,   ///< Never checked (lenient).
  Lazy,  ///< Checked only when the construct is actually used/invoked.
  Eager, ///< Checked during loading/linking.
};

/// One JVM implementation's behavior profile.
struct JvmPolicy {
  std::string Name;     ///< "HotSpot for Java 8".
  std::string VendorId; ///< "hotspot", "j9", "gij".
  std::string JavaVersion; ///< "1.8.0".

  /// Highest classfile major version the implementation accepts; above
  /// it the loader raises UnsupportedClassVersionError.
  uint16_t MaxClassFileMajor = 52;

  /// Which runtime-library variant this JVM ships (see runtime module):
  /// "jre5", "jre7", "jre8", "jre9".
  std::string RuntimeLib = "jre8";

  // --- Format checking (loading phase) -----------------------------------
  /// Non-static <clinit> treated as initializer error (J9) vs ordinary
  /// method (HotSpot, and the SE 9 spec clarification).
  bool StrictClinitStatic = false;
  /// Require that every non-abstract, non-native method has a Code
  /// attribute at load time (vs only when invoked).
  CheckMode RequireCode = CheckMode::Eager;
  /// <init> must be non-static, non-final, non-native, non-abstract and
  /// return void (GIJ: Off).
  bool CheckInitShape = true;
  /// Reject classes declaring two fields with the same name+descriptor
  /// (GIJ: false).
  bool CheckDuplicateFields = true;
  /// Reject classes declaring two methods with the same name+descriptor.
  bool CheckDuplicateMethods = true;
  /// Interfaces must extend java/lang/Object (GIJ: false).
  bool CheckInterfaceSuper = true;
  /// Interface methods must be public abstract; interface fields public
  /// static final (GIJ: false).
  bool CheckInterfaceMemberFlags = true;
  /// Classes may not be both final and abstract; conflicting visibility
  /// flags are rejected (GIJ: lenient).
  bool CheckClassFlagConsistency = true;
  /// Member visibility flags: at most one of public/private/protected.
  bool CheckMemberFlagConsistency = true;
  /// Field/method descriptors must parse (GIJ: lenient).
  bool CheckDescriptors = true;
  /// Abstract methods in a non-abstract class: Eager = ClassFormatError
  /// at load (J9), Lazy = AbstractMethodError if ever invoked (HotSpot),
  /// Off = ignored (GIJ).
  CheckMode CheckConcreteAbstractMethod = CheckMode::Lazy;

  // --- Linking phase ------------------------------------------------------
  /// Bytecode verification: Eager = all methods at link time (HotSpot),
  /// Lazy = per method at first invocation (J9), Off = never (no profile
  /// uses Off; kept for ablation experiments).
  CheckMode Verification = CheckMode::Eager;
  /// With lazy verification, still run the *structural* checks (decode,
  /// branch targets, exception table) for every method at link time --
  /// J9 pre-verifies structure eagerly even though type checking waits
  /// for the first invocation.
  bool StructuralVerifyOnLink = false;
  /// Reject merges of mismatched primitive kinds at control-flow joins
  /// immediately ("stack shape inconsistent") instead of merging to an
  /// unusable type -- the paper's preliminary study saw 37 JRE
  /// classfiles fail on J9 with exactly this message because "HotSpot
  /// and J9 adopt different stack frames".
  bool StrictPrimitiveMerge = false;
  /// Reject subclasses of final classes (VerifyError).
  bool CheckFinalSuperclass = true;
  /// VerifyError when initialized and uninitialized types merge at a
  /// control-flow join (GIJ catches this; HotSpot does not).
  bool CheckUninitializedMerge = false;
  /// Strict reference-assignability checking of invoke arguments versus
  /// declared parameter types: detects the unsafe-cast pattern of
  /// Problem 2 (GIJ: true; HotSpot/J9: false).
  bool StrictInvokeArgTypes = false;
  /// Check accessibility of classes named in throws clauses
  /// (HotSpot: true -> IllegalAccessError; J9/GIJ: false).
  bool CheckThrowsAccessibility = false;
  /// Enforce member access control (private / package-private) during
  /// field and method resolution (IllegalAccessError). GIJ is lenient
  /// here, matching its generally looser access policies (§3.3:
  /// JVMs "hold different accessibilities to resources and libraries").
  bool CheckMemberAccess = true;
  /// Superclass of a class (not interface) may not be an interface, and
  /// implemented interfaces must be interfaces
  /// (IncompatibleClassChangeError).
  bool CheckHierarchyKinds = true;

  // --- Invocation ---------------------------------------------------------
  /// main must be public and static (GIJ: lenient).
  bool RequireStaticMain = true;
  /// Allow running an interface's main method (GIJ: true).
  bool AllowInterfaceMain = false;

  // --- Interpreter limits (identical across profiles) ---------------------
  uint32_t MaxInterpSteps = 200000;
  uint32_t MaxCallDepth = 128;
  uint32_t MaxHeapObjects = 65536;

  // --- Execution tier (jvm/ExecEngine.h) -----------------------------------
  /// Which execution pipeline dispatches bytecode. A profile is
  /// (policy × tier); both tiers are observably equivalent by contract,
  /// and the tier-diff campaign mode cross-checks that contract.
  ExecTier Tier = ExecTier::Threaded;
  /// Baseline tier only: publish this Vm's jit.* counters to the global
  /// telemetry registry at teardown. Campaign tier batches disable
  /// this and publish only committed runs, at the commit stage.
  bool JitTelemetry = true;
};

/// Table 3's five implementations.
JvmPolicy makeHotSpot7Policy();
JvmPolicy makeHotSpot8Policy();
JvmPolicy makeHotSpot9Policy();
JvmPolicy makeJ9Policy();
JvmPolicy makeGijPolicy();

/// The five profiles in the paper's column order:
/// HotSpot7, HotSpot8, HotSpot9, J9, GIJ.
std::vector<JvmPolicy> allJvmPolicies();

/// The reference JVM of the evaluation (HotSpot for Java 9).
JvmPolicy referenceJvmPolicy();

} // namespace classfuzz

#endif // CLASSFUZZ_JVM_POLICY_H
