//===- fuzzing/Provenance.h - Mutation lineage and deterministic replay --===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mutation provenance (DESIGN.md §9): every mutant the campaign
/// produces carries a compact lineage record -- the root seed it
/// descends from, the ordered chain of mutators applied across
/// generations, and a snapshot of the campaign RNG at each step -- so
/// any outcome can be re-derived byte-for-byte later without replaying
/// the campaign. Incident bundles serialize a lineage (plus the
/// campaign environment spec needed to rebuild the seed corpus and
/// class-name universe) as lineage.json; `classfuzz replay` parses it
/// back and re-runs the chain.
///
/// Capture is always on: a step is a 6-word RNG snapshot plus two
/// indices, copied at the mutation site without drawing from the RNG,
/// so trajectories are unaffected and identical across --jobs values.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_FUZZING_PROVENANCE_H
#define CLASSFUZZ_FUZZING_PROVENANCE_H

#include "mutation/Mutator.h"
#include "runtime/SeedCorpus.h"
#include "support/Result.h"
#include "support/Rng.h"

#include <cstdint>
#include <string>
#include <vector>

namespace classfuzz {

/// One mutation application in a lineage chain.
struct LineageStep {
  /// Index into mutatorRegistry().
  size_t MutatorIndex = 0;
  /// Campaign RNG state immediately before mutateClass() consumed it;
  /// restoring this state replays the step's draws exactly (mutation
  /// site choices and the mutant's fresh name).
  RngState RngBefore;
  /// Raw 64-bit draws the step consumed (diagnostic; replay needs only
  /// RngBefore).
  uint64_t Draws = 0;

  friend bool operator==(const LineageStep &A, const LineageStep &B) {
    return A.MutatorIndex == B.MutatorIndex && A.RngBefore == B.RngBefore &&
           A.Draws == B.Draws;
  }
};

/// The full ancestry of one mutant: which seed it bottoms out in and
/// the mutator chain from that seed to the mutant (earliest first).
struct Provenance {
  size_t RootSeedIndex = 0;   ///< Index into CampaignResult::Seeds.
  std::string RootSeedName;   ///< The seed's internal class name.
  std::vector<LineageStep> Steps;

  friend bool operator==(const Provenance &A, const Provenance &B) {
    return A.RootSeedIndex == B.RootSeedIndex &&
           A.RootSeedName == B.RootSeedName && A.Steps == B.Steps;
  }
};

/// Everything needed to rebuild the mutation environment a lineage ran
/// in: the seed corpus and the class-name universe the "...from a class
/// list" mutators drew from.
struct CampaignEnvSpec {
  uint64_t RngSeed = 1;
  size_t NumSeeds = 64;
  /// Non-empty when the campaign was seeded from --seed-dir; replay
  /// then reloads the directory instead of regenerating seeds.
  std::string SeedDir;
  /// Reference JVM policy name (resolved against allJvmPolicies()).
  std::string ReferencePolicyName;
  /// Execution tier the campaign ran on ("threaded"/"baseline"). Empty
  /// in pre-tier bundles; replay then warns and defaults to threaded,
  /// as it does for a tier it no longer knows (e.g. "switch").
  std::string TierName;
  /// Whether the campaign ran with --tier-diff (the two extra tier
  /// profiles change the encoded-sequence length, so replay must know).
  bool TierDiff = false;
};

/// The outcome of replaying one lineage chain.
struct ReplayedMutant {
  std::string ClassName;
  Bytes Data;
  /// Intermediate ancestors (accepted mutants between the seed and the
  /// final mutant), earliest first; replay difftests overlay these so
  /// class references resolve as they did in the campaign.
  std::vector<std::pair<std::string, Bytes>> Ancestors;
};

/// Supplies the typed-hole list for the classfile bytes a lineage step
/// is about to mutate (the campaign derives holes from the *base*
/// environment -- runtime library + seeds -- which replay can rebuild,
/// so a provider built over that env re-derives typed steps exactly).
/// Returning an empty list makes the typed mutators inapplicable.
using HoleProviderFn = std::function<TypedHoleList(const Bytes &Data)>;

/// Re-derives a mutant from \p RootSeed by applying \p Steps in order
/// against the recorded RNG snapshots. \p KnownClasses must be the
/// class-name universe of the original campaign (runtime library +
/// seed corpus, sorted -- see rebuildKnownClasses); \p Holes, when
/// set, feeds each step's MutationContext the typed-hole list the
/// campaign saw (required to replay "typed.*" steps). Fails when a
/// step's mutation no longer produces a classfile (environment
/// mismatch).
Result<ReplayedMutant>
replayLineage(const Bytes &RootSeed, const std::vector<LineageStep> &Steps,
              const std::vector<std::string> &KnownClasses,
              const HoleProviderFn &Holes = nullptr);

/// Rebuilds the campaign's seed corpus from \p Spec: regenerated from
/// (RngSeed, NumSeeds) or reloaded from SeedDir. The returned Rng draw
/// position matches the campaign's post-seed-generation state.
Result<std::vector<SeedClass>> rebuildSeedCorpus(const CampaignEnvSpec &Spec);

/// The class-name universe a campaign over \p Seeds exposed to
/// mutators: reference runtime library + every seed and helper, sorted
/// (ClassPath::names() order).
std::vector<std::string>
rebuildKnownClasses(const CampaignEnvSpec &Spec,
                    const std::vector<SeedClass> &Seeds);

/// Serializes a lineage (plus environment spec, the mutant's name, and
/// the differential outcome it was recorded with) as the incident
/// bundle's lineage.json. Stable formatting: byte-identical for equal
/// inputs.
std::string lineageJson(const Provenance &Prov, const CampaignEnvSpec &Spec,
                        const std::string &MutantName,
                        const std::string &ExpectedEncoded);

/// Parsed lineage.json contents.
struct ParsedLineage {
  Provenance Prov;
  CampaignEnvSpec Spec;
  std::string MutantName;
  std::string ExpectedEncoded;
};

/// Parses what lineageJson() wrote. Tolerates unknown keys; fails with
/// a diagnostic on malformed JSON or missing required fields.
Result<ParsedLineage> parseLineageJson(const std::string &Json);

} // namespace classfuzz

#endif // CLASSFUZZ_FUZZING_PROVENANCE_H
