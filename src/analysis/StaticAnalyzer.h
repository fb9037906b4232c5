//===- analysis/StaticAnalyzer.h - Execution-free classfile triage -------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An execution-free static analyzer over parsed ClassFiles. Where the
/// VM pipeline (FormatChecker -> Verifier -> Vm) latches the first
/// failure and aborts, the analyzer runs every lint pass to completion
/// and reports all findings (analysis/Diagnostics.h), then predicts the
/// startup phase the reference VM would observe -- without interpreting
/// a single bytecode.
///
/// The prediction mirrors Vm::loadClass/linkClass exactly: same parse,
/// same format checks (shared runFormatChecks walk), same supertype
/// recursion and circularity detection, same hierarchy checks, and the
/// same verifyMethod over the same class-lookup view, under the same
/// JvmPolicy. Loading and linking rejections are therefore *definite*
/// predictions (the VM must observe encoded phase 1 resp. 2); a class
/// that passes static triage can still die later -- at initialization
/// or at runtime, including runtime resolution errors that canonicalize
/// back to the linking phase -- so "pass" only promises the VM will not
/// reject it while loading. Campaign wiring latches any violation of
/// this contract as a self-check incident (predict-vs-observe oracle).
///
/// Supertype chains that live entirely in the environment are memoized
/// across analyses (the environment is immutable), so analyzing a
/// campaign of mutants re-does only the mutant-specific work. The
/// analyzer is deliberately single-threaded state: share one instance
/// per thread or guard it externally.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_ANALYSIS_STATICANALYZER_H
#define CLASSFUZZ_ANALYSIS_STATICANALYZER_H

#include "analysis/Diagnostics.h"
#include "analysis/TypedHoles.h"
#include "jvm/ClassPath.h"
#include "jvm/FormatChecker.h"
#include "jvm/JvmTypes.h"
#include "jvm/Policy.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace classfuzz {

struct ClassFile;

/// What the analyzer expects the reference VM to observe.
enum class PredictedOutcome : uint8_t {
  RejectLoading, ///< Definite: encoded phase must be 1.
  RejectLinking, ///< Definite: encoded phase must be 2.
  PassStatic,    ///< Loading succeeds: encoded phase must not be 1.
};

const char *predictedOutcomeName(PredictedOutcome Outcome);

/// The analyzer's predict-vs-observe contract for one class.
struct StartupPrediction {
  PredictedOutcome Outcome = PredictedOutcome::PassStatic;
  /// For rejections: the error kind and message the VM will abort with.
  JvmErrorKind Error = JvmErrorKind::None;
  std::string Message;

  /// The encoded phase this prediction pins down: 1, 2, or -1 when the
  /// class passes static triage (no single phase is implied).
  int predictedPhase() const;

  /// True when \p ObservedPhase (0..4) satisfies the contract. A
  /// PassStatic prediction is compatible with everything except 1:
  /// runtime resolution errors legitimately canonicalize to phase 2.
  bool isCompatibleWith(int ObservedPhase) const;
};

/// Everything the analyzer found out about one class.
struct AnalysisReport {
  std::string ClassName;
  bool Parsed = false;
  std::vector<Diagnostic> Diagnostics;
  StartupPrediction Prediction;

  /// Number of Error-severity diagnostics.
  size_t errorCount() const;

  /// Stable single-line JSON: {"class":...,"parsed":...,
  /// "prediction":{...},"counts":{...},"diagnostics":[...]}. Keys and
  /// ordering are fixed so output is byte-diffable across runs.
  std::string toJson() const;
};

/// The execution-free analyzer, bound to an environment and a policy
/// (defaults to the reference policy, matching campaign triage).
class StaticAnalyzer {
public:
  explicit StaticAnalyzer(const ClassPath &Env);
  StaticAnalyzer(const ClassPath &Env, JvmPolicy Policy);

  /// Runs every pass over \p Data (which shadows \p Name in the
  /// environment, like Vm runs on a mutant) and predicts the outcome.
  AnalysisReport analyzeClass(const std::string &Name,
                              const Bytes &Data) const;

  /// analyzeClass(Name, Data) over \p Entry's bytes, reading its parse
  /// instead of making one (the campaign hands in the entry its
  /// execution stage already parsed).
  AnalysisReport analyzeClass(const std::string &Name,
                              const ClassEntry &Entry) const;

  /// Analyzes a class already present in the environment.
  AnalysisReport analyzeClass(const std::string &Name) const;

  /// Adds \p Name to the environment (the campaign feeds accepted
  /// mutants back into the corpus). Memoized chain walks that ever
  /// looked \p Name up -- including misses -- are invalidated; walks
  /// that never touched the name stay valid.
  void addEnvironmentClass(const std::string &Name, Bytes Data);
  /// Same, sharing \p Entry (and its parse) with the caller's
  /// environments.
  void addEnvironmentClass(const std::string &Name, ClassEntryRef Entry);

  /// Prediction only -- the load/link simulation without the exhaustive
  /// lint passes. This is the cheap triage path the paper's filtering
  /// step wants.
  StartupPrediction predictStartupOutcome(const std::string &Name,
                                          const Bytes &Data) const;
  /// Same, over \p Entry's bytes and parse.
  StartupPrediction predictStartupOutcome(const std::string &Name,
                                          const ClassEntry &Entry) const;

  /// Typed mutation sites of an environment class, memoized per name.
  /// Same invalidation contract as the chain memo: addEnvironmentClass
  /// drops every hole list whose extraction touched the redefined name
  /// or whose sibling sets hang off the class's old or new superclass.
  const TypedHoleList &typedHoles(const std::string &Name) const;

  /// Typed mutation sites of \p Data (shadowing \p Name in the
  /// environment, like analyzeClass runs on a mutant). Unmemoized.
  TypedHoleList typedHolesFor(const std::string &Name,
                              const Bytes &Data) const;

  /// Renders \p Report with a javap-style dump of \p Data (annotated
  /// output for `classfuzz analyze --print`).
  static std::string renderAnnotated(const AnalysisReport &Report,
                                     const Bytes &Data);

  const JvmPolicy &policy() const { return Policy; }

private:
  struct SimAbort {
    JvmPhase Phase = JvmPhase::Loading;
    JvmErrorKind Kind = JvmErrorKind::ClassFormatError;
    std::string Message;
    std::string Culprit; ///< The class the abort was raised for.
  };
  struct ChainMemo {
    std::optional<SimAbort> Abort;
    std::set<std::string> Touched; ///< Every name the chain walk used.
  };
  /// Per-environment-class artifacts every simulation shares: the
  /// environment entry (whose parse, made once and shared with every Vm
  /// on the same entries, holds the class or its error) and the
  /// loading-phase format check, computed at most once per class per
  /// analyzer. This is what makes triaging a campaign of mutants cheap
  /// -- the runtime library is parsed and checked once, not once per
  /// mutant.
  struct EnvClassInfo {
    ClassEntryRef Entry;          ///< Null when the class is absent.
    const ClassFile *CF = nullptr; ///< Null when absent or unparseable.
    std::optional<CheckFailure> FormatFailure;
  };
  struct SimState;
  /// Memoized typed-hole extraction for one environment class, plus
  /// the names the extraction looked up (Touched) and the parents
  /// whose child sets fed sibling alternatives (SiblingParents) --
  /// together the exact invalidation footprint.
  struct HoleMemo {
    TypedHoleList Holes;
    std::set<std::string> Touched;
    std::set<std::string> SiblingParents;
  };

  const EnvClassInfo &envClassInfo(const std::string &Name) const;

  /// The env's parent -> sorted children map, built lazily on the
  /// first sibling query and updated incrementally by
  /// addEnvironmentClass.
  const std::map<std::string, std::vector<std::string>> &
  childrenIndex() const;

  /// A HoleEnv whose sibling callback serves from childrenIndex() and
  /// records every touched name / queried parent into the given sets
  /// (either may be null).
  HoleEnv holeEnv(std::set<std::string> *Touched,
                  std::set<std::string> *SiblingParents) const;

  /// \p Overlay, when given, shadows \p Name (a mutant);
  /// \p FirstVerifyFailure, when given, is the precomputed result of
  /// the eager per-method verification loop over its class (points to
  /// the first failure, or to nullopt when every method verifies).
  std::optional<SimAbort>
  simulate(const std::string &Name, const ClassEntry *Overlay,
           const std::optional<CheckFailure> *FirstVerifyFailure =
               nullptr) const;
  std::optional<SimAbort> simulateFresh(const std::string &Name,
                                        std::set<std::string> *Touched) const;
  const ChainMemo &chainMemo(const std::string &Name) const;
  StartupPrediction predictionFrom(const std::optional<SimAbort> &Abort) const;

  void runCpGraphPass(const ClassFile &CF,
                      std::vector<Diagnostic> &Out) const;
  void runFormatPass(const ClassFile &CF,
                     std::vector<Diagnostic> &Out) const;
  void runCodeShapePass(const ClassFile &CF,
                        std::vector<Diagnostic> &Out) const;
  /// \p FirstVerifyFailure, when non-null, receives the first failing
  /// method's failure (or nullopt) so the simulation can reuse it
  /// instead of re-verifying every method.
  void runTypeCheckPass(const ClassFile &CF, const std::string &Name,
                        const ClassEntry *Overlay,
                        std::vector<Diagnostic> &Out,
                        std::optional<CheckFailure> *FirstVerifyFailure =
                            nullptr) const;
  void runHierarchyPass(const ClassFile &CF, const std::string &Name,
                        const std::optional<SimAbort> &Abort,
                        std::vector<Diagnostic> &Out) const;

  JvmPolicy Policy;
  ClassPath Env; ///< Copy-on-write copy of the caller's environment.
  /// Chain-simulation memo for environment classes, keyed by name. An
  /// entry is reusable for a mutant only when the mutant's name is not
  /// in its Touched set (the overlay would shadow that lookup).
  mutable std::map<std::string, ChainMemo> Memo;
  /// Entry/format cache for environment classes (node-stable, so
  /// pointers into it survive later insertions). Invalidated per-name
  /// by addEnvironmentClass.
  mutable std::map<std::string, EnvClassInfo> EnvCache;
  /// Typed-hole memo for environment classes, keyed by name.
  mutable std::map<std::string, HoleMemo> HoleMemos;
  /// Lazily built parent -> sorted children hierarchy index over the
  /// environment (nullopt until the first sibling query).
  mutable std::optional<std::map<std::string, std::vector<std::string>>>
      Children;
};

} // namespace classfuzz

#endif // CLASSFUZZ_ANALYSIS_STATICANALYZER_H
