//===- difftest/DiffTest.cpp -----------------------------------------------===//

#include "difftest/DiffTest.h"

#include "jvm/Phase.h"
#include "jvm/Vm.h"
#include "runtime/RuntimeLib.h"
#include "support/Hashing.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Telemetry.h"

#include <array>
#include <map>
#include <optional>

using namespace classfuzz;

bool DiffOutcome::isDiscrepancy() const {
  for (size_t I = 1; I < Encoded.size(); ++I)
    if (Encoded[I] != Encoded[0])
      return true;
  return false;
}

bool DiffOutcome::anyInternalError() const {
  for (const JvmResult &R : Results)
    if (R.Error == JvmErrorKind::InternalError)
      return true;
  return false;
}

std::string DiffOutcome::encodedString() const {
  std::string Out;
  Out.reserve(Encoded.size());
  for (int Code : Encoded)
    Out += static_cast<char>('0' + Code);
  return Out;
}

void DiffOutcome::commit() const {
  namespace tm = classfuzz::telemetry;
  if (tm::enabled() && tm::eventSink())
    tm::EventBuilder("difftest")
        .field("class", ClassName)
        .field("encoded", encodedString())
        .field("discrepancy", isDiscrepancy())
        .emit();
  tm::FlightRecorder &FR = tm::flightRecorder();
  if (!FR.enabled())
    return;
  for (const DeferredFlightEvent &E : FlightEvents)
    FR.record(E.Kind, E.A, E.B, E.C);
}

DifferentialTester::DifferentialTester(std::vector<ProfileDesc> Profiles,
                                       const ClassPath &Extra,
                                       EnvironmentMode Mode,
                                       const std::string &SharedLibVersion)
    : Profiles(std::move(Profiles)) {
  // Pin the invariant profile = (policy x tier): the stored policy's
  // Tier always matches the descriptor's, so runProfiles can hand the
  // policy to Vm as-is. PolicyView additionally takes the profile name,
  // keeping `policies()[I].Name` printable for tier-qualified profiles.
  for (ProfileDesc &P : this->Profiles) {
    P.Policy.Tier = P.Tier;
    JvmPolicy View = P.Policy;
    View.Name = P.Name;
    PolicyView.push_back(std::move(View));
  }
  // freeze() seals each environment's contents into shared COW layers,
  // so the per-testClass "corpus + one extra class" overlay below is an
  // O(1) copy instead of an O(corpus) deep copy.
  if (Mode == EnvironmentMode::Shared) {
    ClassPath Shared =
        buildRuntimeLibrary(SharedLibVersion).overlaidWith(Extra);
    Shared.freeze();
    Envs.assign(this->Profiles.size(), Shared);
    return;
  }
  // Profiles on the same runtime-library version (the tier-diff pair,
  // HotSpot 8 and J9) share one environment, so each library class is
  // built and parsed once per version, not once per profile.
  std::map<std::string, ClassPath> ByLib;
  for (const ProfileDesc &P : this->Profiles) {
    auto [It, New] = ByLib.try_emplace(P.Policy.RuntimeLib);
    if (New) {
      It->second = runtimeLibraryFor(P.Policy).overlaidWith(Extra);
      It->second.freeze();
    }
    Envs.push_back(It->second);
  }
}

namespace {

std::vector<ProfileDesc> wrapPolicies(std::vector<JvmPolicy> Policies) {
  std::vector<ProfileDesc> Out;
  Out.reserve(Policies.size());
  for (JvmPolicy &P : Policies) {
    ProfileDesc D;
    D.Name = P.Name;
    D.Tier = P.Tier;
    D.Policy = std::move(P);
    Out.push_back(std::move(D));
  }
  return Out;
}

} // namespace

DifferentialTester::DifferentialTester(std::vector<JvmPolicy> Policies,
                                       const ClassPath &Extra,
                                       EnvironmentMode Mode,
                                       const std::string &SharedLibVersion)
    : DifferentialTester(wrapPolicies(std::move(Policies)), Extra, Mode,
                         SharedLibVersion) {}

DifferentialTester DifferentialTester::withAllProfiles(
    const ClassPath &Extra, EnvironmentMode Mode,
    const std::string &SharedLibVersion) {
  return DifferentialTester(allJvmPolicies(), Extra, Mode,
                            SharedLibVersion);
}

DifferentialTester DifferentialTester::withTieredProfiles(
    const ClassPath &Extra, EnvironmentMode Mode, ExecTier Tier,
    bool TierDiff, const std::string &SharedLibVersion) {
  // JitTelemetry is off on every profile, so no run here publishes jit.*
  // counters at engine teardown -- neither the difftest workers nor the
  // reducer's oracle calls, whose outcomes are never committed. jit.*
  // then counts campaign work only.
  std::vector<ProfileDesc> Descs;
  for (JvmPolicy P : allJvmPolicies()) {
    P.Tier = Tier;
    P.JitTelemetry = false;
    ProfileDesc D;
    D.Name = P.Name;
    D.Tier = Tier;
    D.Policy = std::move(P);
    Descs.push_back(std::move(D));
  }
  std::optional<std::pair<size_t, size_t>> Pair;
  if (TierDiff) {
    // The tier pair: the reference policy on the threaded-interpreter
    // and baseline tiers.
    JvmPolicy Ref = referenceJvmPolicy();
    Ref.JitTelemetry = false;
    Pair.emplace(Descs.size(), Descs.size() + 1);
    ProfileDesc Interp;
    Interp.Name = Ref.Name + "~threaded";
    Interp.Tier = ExecTier::Threaded;
    Interp.Policy = Ref;
    Descs.push_back(std::move(Interp));
    ProfileDesc Base;
    Base.Name = Ref.Name + "~baseline";
    Base.Tier = ExecTier::Baseline;
    Base.Policy = std::move(Ref);
    Descs.push_back(std::move(Base));
  }
  DifferentialTester T(std::move(Descs), Extra, Mode, SharedLibVersion);
  T.TierPair = Pair;
  return T;
}

DiffOutcome DifferentialTester::runProfiles(
    const std::string &Name, const std::vector<ClassEntryRef> &Entries) const {
  namespace tm = classfuzz::telemetry;
  const bool Telemetry = tm::enabled();
  static tm::Histogram &WallNs =
      tm::metrics().histogram("difftest.wall_ns");
  std::optional<tm::PhaseTimer> Timer;
  if (Telemetry)
    Timer.emplace(WallNs, "difftest");

  // Flight events and the "difftest" trace event are deferred into the
  // outcome instead of written here: runProfiles executes on difftest
  // workers, and direct writes from those threads would interleave
  // nondeterministically. The caller publishes
  // them via commit() at its deterministic commit point.
  const bool Flight = tm::flightRecorder().enabled();
  // Hashed once; flight events identify the class without storing the
  // (variable-length) name in a fixed-size ring entry.
  uint64_t NameHash = 0;
  if (Flight) {
    Hasher H;
    H.addString(Name);
    NameHash = H.value();
  }

  DiffOutcome Out;
  Out.ClassName = Name;
  for (size_t I = 0; I != Profiles.size(); ++I) {
    std::optional<CoverageRecorder> Recorder;
    if (CollectCoverage)
      Recorder.emplace();
    ClassPath Env = Envs[I]; // COW overlay: shares the frozen corpus.
    if (Entries[I])
      Env.add(Name, Entries[I]);
    Vm Jvm(Profiles[I].Policy, Env, Recorder ? &*Recorder : nullptr);
    JvmResult R = Jvm.run(Name);
    const int Code = encodePhase(R);
    Out.Results.push_back(std::move(R));
    if (Recorder)
      Out.Traces.push_back(Recorder->takeTrace());
    if (Flight &&
        Out.Results.back().Error == JvmErrorKind::InternalError)
      Out.FlightEvents.push_back(
          {tm::FlightKind::VmInternalError, I,
           static_cast<uint64_t>(Out.Results.back().Phase), NameHash});
    Out.Encoded.push_back(Code);
    if (Telemetry)
      tm::metrics()
          .counter("difftest.outcome." + Profiles[I].Name + ".phase" +
                   std::to_string(Code))
          .inc();
  }

  if (TierPair) {
    // Same policy, different execution tier: any disagreement is its
    // own discrepancy class (the tier-diff axis), counted separately
    // from cross-JVM discrepancies.
    int A = Out.Encoded[TierPair->first];
    int B = Out.Encoded[TierPair->second];
    Out.TierDisagreement = A != B;
    if (Out.TierDisagreement) {
      if (Telemetry)
        tm::metrics().counter("difftest.tier_disagreements").inc();
      if (Flight)
        Out.FlightEvents.push_back(
            {tm::FlightKind::TierDisagreement, static_cast<uint64_t>(A),
             static_cast<uint64_t>(B), NameHash});
    }
  }

  if (Telemetry) {
    Timer.reset(); // Record wall time before emitting the event.
    tm::metrics().counter("difftest.classes").inc();
    if (Out.isDiscrepancy())
      tm::metrics().counter("difftest.discrepancies").inc();
  }
  if (Flight) {
    uint64_t Packed = 0;
    for (int Code : Out.Encoded)
      Packed = Packed * 10 + static_cast<uint64_t>(Code);
    Out.FlightEvents.push_back({tm::FlightKind::DiffOutcome, Packed,
                                Out.isDiscrepancy() ? uint64_t(1)
                                                    : uint64_t(0),
                                NameHash});
  }
  return Out;
}

DiffOutcome DifferentialTester::testClass(const std::string &Name) const {
  // Shadow the frozen corpus entry with a fresh copy that dies with this
  // call. Parsing through the corpus entry would keep its parse (~11x
  // the bytes) resident for the tester's lifetime. Profiles whose
  // environments hold the same entry share one copy, so the class is
  // parsed once per call whatever the profile count.
  std::vector<ClassEntryRef> Entries(Profiles.size());
  std::map<const ClassEntry *, ClassEntryRef> Copies;
  for (size_t I = 0; I != Profiles.size(); ++I)
    if (const ClassEntryRef *Frozen = Envs[I].entry(Name)) {
      ClassEntryRef &Copy = Copies[Frozen->get()];
      if (!Copy)
        Copy = makeClassEntry((*Frozen)->bytes());
      Entries[I] = Copy;
    }
  return runProfiles(Name, Entries);
}

DiffOutcome DifferentialTester::testClass(const std::string &Name,
                                          const Bytes &Data) const {
  return runProfiles(
      Name, std::vector<ClassEntryRef>(Profiles.size(), makeClassEntry(Data)));
}

void DiffStats::add(const DiffOutcome &Outcome) {
  ++Total;
  if (PhaseCounts.size() < Outcome.Encoded.size())
    PhaseCounts.resize(Outcome.Encoded.size());
  bool AllZero = true;
  for (size_t I = 0; I != Outcome.Encoded.size(); ++I) {
    // Encoded outcomes are 0..4 by construction; clamp anything else
    // (and count it) rather than indexing past PhaseCounts[I].
    int Code = Outcome.Encoded[I];
    if (Code < 0 || Code > 4) {
      ++EncodingErrors;
      Code = Code < 0 ? 0 : 4;
    }
    ++PhaseCounts[I][static_cast<size_t>(Code)];
    if (Code != 0)
      AllZero = false;
  }
  if (Outcome.TierDisagreement)
    ++TierDisagreements;
  if (Outcome.isDiscrepancy()) {
    ++Discrepancies;
    ++DistinctDiscrepancies[Outcome.encodedString()];
    return;
  }
  if (AllZero)
    ++AllInvoked;
  else
    ++AllRejectedSameStage;
}

void DiffStats::merge(const DiffStats &Other) {
  Total += Other.Total;
  AllInvoked += Other.AllInvoked;
  AllRejectedSameStage += Other.AllRejectedSameStage;
  Discrepancies += Other.Discrepancies;
  EncodingErrors += Other.EncodingErrors;
  TierDisagreements += Other.TierDisagreements;
  for (const auto &[Sequence, Count] : Other.DistinctDiscrepancies)
    DistinctDiscrepancies[Sequence] += Count;
  if (PhaseCounts.size() < Other.PhaseCounts.size())
    PhaseCounts.resize(Other.PhaseCounts.size());
  for (size_t Jvm = 0; Jvm != Other.PhaseCounts.size(); ++Jvm)
    for (size_t Code = 0; Code != Other.PhaseCounts[Jvm].size(); ++Code)
      PhaseCounts[Jvm][Code] += Other.PhaseCounts[Jvm][Code];
}

double DiffStats::diffRatePercent() const {
  if (Total == 0)
    return 0.0;
  return 100.0 * static_cast<double>(Discrepancies) /
         static_cast<double>(Total);
}
