//===- difftest/DiffTest.h - Differential testing of the JVM profiles ----===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs classfiles on the five JVM profiles and compares the encoded
/// outcomes (§2.3, Figure 3): each run is simplified to
/// {0 = normally invoked, 1 = rejected while loading, 2 = linking,
/// 3 = initialization, 4 = runtime}, the five outputs form a sequence,
/// and a discrepancy is a non-constant sequence. Discrepancies with the
/// same encoded sequence fall into one *distinct discrepancy* category.
///
/// Environments: with PerJvmEnvironments each profile uses its own
/// runtime-library version (Definition 1 discrepancies, including
/// compatibility effects); with a shared environment all profiles see
/// the same library (Definition 2: surviving discrepancies indicate
/// defects or policy differences, not JRE skew).
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_DIFFTEST_DIFFTEST_H
#define CLASSFUZZ_DIFFTEST_DIFFTEST_H

#include "coverage/Tracefile.h"
#include "jvm/ClassPath.h"
#include "jvm/ExecTier.h"
#include "jvm/JvmTypes.h"
#include "jvm/Policy.h"
#include "telemetry/FlightRecorder.h"

#include <array>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace classfuzz {

/// One differential profile: a JVM policy executed on a specific tier.
/// A profile is (policy x tier); plain policy profiles are named after
/// the policy ("hotspot9"), tier-diff profiles carry a tier-qualified
/// name ("hotspot9~baseline") that flows verbatim into outcome
/// encodings, incident outcomes.json, and replay output.
struct ProfileDesc {
  std::string Name;
  JvmPolicy Policy;
  ExecTier Tier = ExecTier::Threaded;
};

/// A flight-recorder event observed during a differential run but not
/// yet recorded. runProfiles defers its events into the DiffOutcome
/// instead of writing the global sequence stream from whatever thread it
/// runs on; the caller replays them (DiffOutcome::commit) at its own
/// deterministic commit point, so armed-recorder dumps are byte-identical
/// across --jobs values.
struct DeferredFlightEvent {
  telemetry::FlightKind Kind = telemetry::FlightKind::None;
  uint64_t A = 0, B = 0, C = 0;
};

/// How the tester provisions environments.
enum class EnvironmentMode {
  PerJvm, ///< Each profile ships its own runtime library (Definition 1).
  Shared, ///< One library for all profiles (Definition 2 defect hunting).
};

/// The outcome of one classfile across all profiles.
struct DiffOutcome {
  std::string ClassName;         ///< The class under test.
  std::vector<int> Encoded;      ///< One 0..4 code per JVM.
  std::vector<JvmResult> Results; ///< Full per-JVM results.
  /// Per-profile coverage tracefiles, filled only when the tester was
  /// constructed with CollectCoverage (empty otherwise). One entry per
  /// JVM, in policy order; feeds the δ-diversity tuple of §2.2.3's
  /// [dd-coarse]/[dd-fine] extensions.
  std::vector<Tracefile> Traces;
  /// Flight events observed during the run, deferred until the caller
  /// commits them (see DeferredFlightEvent). Empty when the recorder is
  /// disarmed.
  std::vector<DeferredFlightEvent> FlightEvents;
  /// True when the tester's tier-diff pair (same policy, interpreter vs
  /// baseline tier) encoded differently -- the distinct "tier
  /// disagreement" discrepancy class. Always false without a tier pair.
  bool TierDisagreement = false;

  /// True when the encoded sequence is not constant.
  bool isDiscrepancy() const;
  /// True when any profile aborted inside the modeled VM with
  /// InternalError -- the "VM abort during differential execution"
  /// trigger for incident bundles (difftest/Incident.h).
  bool anyInternalError() const;
  /// The sequence as a string, e.g. "00012" (the Figure 3 encoding).
  std::string encodedString() const;
  /// Publishes what the run deferred: emits the "difftest" trace event
  /// (when a sink is installed) and replays the flight events into the
  /// global recorder, in observation order. Call from a deterministic
  /// commit point (one caller thread, commit order).
  void commit() const;
};

/// Differential tester over a fixed set of profiles and a corpus.
class DifferentialTester {
public:
  /// \p Extra holds the classes under test plus any helper classes; it
  /// is layered over each profile's runtime library.
  DifferentialTester(std::vector<ProfileDesc> Profiles,
                     const ClassPath &Extra, EnvironmentMode Mode,
                     const std::string &SharedLibVersion = "jre8");

  /// Legacy profile list: one profile per policy, named after it, run on
  /// the policy's own tier.
  DifferentialTester(std::vector<JvmPolicy> Policies,
                     const ClassPath &Extra, EnvironmentMode Mode,
                     const std::string &SharedLibVersion = "jre8");

  /// Convenience: the paper's five JVMs.
  static DifferentialTester
  withAllProfiles(const ClassPath &Extra, EnvironmentMode Mode,
                  const std::string &SharedLibVersion = "jre8");

  /// The paper's five JVMs, every profile forced onto \p Tier. With
  /// \p TierDiff two more profiles are appended -- the reference policy
  /// on the threaded-interpreter and baseline tiers, named
  /// "<ref>~threaded" / "<ref>~baseline" -- and registered as the tier
  /// pair whose disagreement sets DiffOutcome::TierDisagreement. Every
  /// profile has JvmPolicy::JitTelemetry off: difftest and reducer runs
  /// publish no jit.* counters, which count campaign work only.
  static DifferentialTester
  withTieredProfiles(const ClassPath &Extra, EnvironmentMode Mode,
                     ExecTier Tier, bool TierDiff,
                     const std::string &SharedLibVersion = "jre8");

  /// When enabled, every profile's run attaches a CoverageRecorder and
  /// the resulting tracefiles land in DiffOutcome::Traces. Off by
  /// default: coverage collection costs probe dispatch on every
  /// statement/branch of every profile.
  void setCollectCoverage(bool Enable) { CollectCoverage = Enable; }
  bool collectCoverage() const { return CollectCoverage; }

  /// Runs `java <Name>` on every profile.
  ///
  /// The class under test runs from a fresh copy of its corpus entry,
  /// parsed once per call and dropped with it; the corpus and library
  /// classes it loads are parsed once per tester, by whichever call
  /// needs them first.
  ///
  /// Thread-safe: the per-profile environments are frozen at
  /// construction, and each call works on an O(1) copy-on-write
  /// ClassPath copy plus a call-local Vm. The CLI's difftest fan-out
  /// (`--jobs`) relies on this to invoke one tester from many workers
  /// while its main thread calls it as the reducer's oracle.
  /// Flight-recorder and trace events are never written from inside the
  /// call: they are deferred into the returned DiffOutcome, and only the
  /// caller's commit() -- invoked at a deterministic commit point --
  /// touches the global streams.
  DiffOutcome testClass(const std::string &Name) const;

  /// Runs a class not present in the corpus by overlaying its bytes as
  /// one entry shared by every profile (parsed once per call).
  /// Thread-safe under the same contract as testClass(Name).
  DiffOutcome testClass(const std::string &Name, const Bytes &Data) const;

  /// The profile table, in run order.
  const std::vector<ProfileDesc> &profiles() const { return Profiles; }

  /// Legacy view of the profile table: each entry is the profile's
  /// policy with its Name and Tier overridden by the profile's, so
  /// `policies()[I].Name` prints tier-qualified names for tier-diff
  /// profiles.
  const std::vector<JvmPolicy> &policies() const { return PolicyView; }

  /// Indices of the tier-diff pair, when one was registered.
  const std::optional<std::pair<size_t, size_t>> &tierPair() const {
    return TierPair;
  }

private:
  /// Shared run-and-encode loop: profile I runs with \p Entries[I]
  /// overlaid as \p Name (no overlay when null). One entry shared by all
  /// profiles parses the class under test once per batch.
  DiffOutcome runProfiles(const std::string &Name,
                          const std::vector<ClassEntryRef> &Entries) const;

  std::vector<ProfileDesc> Profiles;
  std::vector<JvmPolicy> PolicyView; ///< policies() compatibility view.
  std::vector<ClassPath> Envs;       ///< One per profile.
  std::optional<std::pair<size_t, size_t>> TierPair;
  bool CollectCoverage = false;
};

/// Aggregate statistics over a set of outcomes (the Table 6 rows).
struct DiffStats {
  size_t Total = 0;
  size_t AllInvoked = 0;
  size_t AllRejectedSameStage = 0;
  size_t Discrepancies = 0;
  /// Encoded sequence -> count; its size is |Distinct_Discrepancies|.
  std::map<std::string, size_t> DistinctDiscrepancies;
  /// Per-JVM phase counters (the Table 7 rows): [jvm][encoded 0..4].
  std::vector<std::array<size_t, 5>> PhaseCounts;
  /// Encoded outcomes outside 0..4 seen by add(); such codes are clamped
  /// into range instead of indexing out of bounds.
  size_t EncodingErrors = 0;
  /// Outcomes whose tier-diff pair disagreed (DiffOutcome::
  /// TierDisagreement); 0 for testers without a tier pair.
  size_t TierDisagreements = 0;

  void add(const DiffOutcome &Outcome);
  /// Folds another stats object into this one, so sharded differential
  /// runs can each keep local stats and combine them at the end.
  /// Commutative and associative; merging equals adding every outcome
  /// to one object.
  void merge(const DiffStats &Other);
  /// The diff rate |Discrepancies| / |Classes| in percent.
  double diffRatePercent() const;
};

} // namespace classfuzz

#endif // CLASSFUZZ_DIFFTEST_DIFFTEST_H
