//===- coverage/Uniqueness.h - Coverage-uniqueness criteria --------------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three coverage-uniqueness acceptance criteria of §2.2.3:
///
///   [st]   no accepted test has the same statement-coverage statistic;
///   [stbr] no accepted test has the same (stmt, branch) statistic pair;
///   [tr]   no accepted test has a statically identical tracefile
///          (equal statistics AND merging changes nothing, i.e. equal
///          hit sets).
///
/// plus the two Nezha-style δ-diversity criteria (guided differential
/// testing; cf. FuzzerDifferential.h's CumulativeResults):
///
///   [dd-coarse] no accepted test has the same per-profile
///          (encoded outcome, coarse coverage count) tuple;
///   [dd-fine]   no accepted test has the same per-profile
///          (encoded outcome, tracefile hit-set fingerprint) tuple.
///
/// The δ criteria judge the *relative* behavior of all profiles at once:
/// a mutant is representative when the cross-profile tuple is novel,
/// hunting disagreement directly instead of reference-VM coverage
/// novelty.
///
/// Also provides AccumulativeCoverage for the greedyfuzz baseline, which
/// accepts a mutant only when it increases total coverage.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_COVERAGE_UNIQUENESS_H
#define CLASSFUZZ_COVERAGE_UNIQUENESS_H

#include "coverage/Tracefile.h"

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace classfuzz {

/// Which uniqueness discipline a campaign uses.
enum class UniquenessCriterion { St, StBr, Tr, DdCoarse, DdFine };

/// Returns "[st]" / "[stbr]" / "[tr]" / "[dd-coarse]" / "[dd-fine]".
const char *criterionName(UniquenessCriterion C);

/// True for the δ-diversity criteria, which compare per-profile
/// differential tuples (DeltaDiversityChecker) instead of reference-VM
/// tracefiles (UniquenessChecker).
inline bool isDeltaDiversity(UniquenessCriterion C) {
  return C == UniquenessCriterion::DdCoarse ||
         C == UniquenessCriterion::DdFine;
}

/// Tracks the coverage signatures of accepted tests and decides whether a
/// candidate tracefile is representative w.r.t. them. Handles the three
/// tracefile criteria ([st]/[stbr]/[tr]); the δ criteria live in
/// DeltaDiversityChecker.
///
/// The read path (isUnique) is const and side-effect free; the campaign's
/// commit stage relies on that separation: acceptance checks never modify
/// the pool, only insert() does. tryInsert computes the candidate's
/// signature (statistics + [tr] fingerprint) once and shares it between
/// the check and the insertion.
///
/// [tr] compares full hit sets, not just the 64-bit fingerprint: the
/// fingerprint is a fast filter, and on a fingerprint match the stored
/// ground-truth sets break the tie. Two distinct hit sets that collide in
/// the hash are therefore both accepted (and the verified collision is
/// counted, see fingerprintCollisions()).
class UniquenessChecker {
public:
  /// Hash of a tracefile's hit sets; injectable so tests can force
  /// fingerprint collisions. Empty = Tracefile::fingerprint.
  using FingerprintFn = std::function<uint64_t(const Tracefile &)>;

  explicit UniquenessChecker(UniquenessCriterion C,
                             FingerprintFn Fp = FingerprintFn())
      : Criterion(C), Fp(std::move(Fp)) {}

  /// True when \p Trace is unique under the configured criterion.
  bool isUnique(const Tracefile &Trace) const;

  /// Records \p Trace as accepted. Asserts on isUnique in debug builds is
  /// deliberately omitted: callers may insert seeds unconditionally.
  void insert(const Tracefile &Trace);

  /// Convenience: isUnique + insert when unique. Returns acceptance.
  bool tryInsert(const Tracefile &Trace);

  UniquenessCriterion criterion() const { return Criterion; }
  size_t size() const { return NumInserted; }
  /// Total entries across the seen-signature structures. Only the
  /// structure the active criterion reads is populated, so this stays
  /// proportional to distinct signatures under that criterion alone.
  size_t trackedEntries() const;
  /// Verified [tr] fingerprint collisions: candidates whose 64-bit
  /// fingerprint matched an accepted test's but whose hit sets differed.
  /// Before the ground-truth comparison such candidates were silently
  /// (and wrongly) rejected as duplicates.
  size_t fingerprintCollisions() const { return FpCollisions; }

private:
  using StatPair = std::pair<size_t, size_t>;

  /// A candidate's identity under the configured criterion. The hit-set
  /// fingerprint is only computed for [tr], the only criterion that reads
  /// it; the hit sets themselves stay in the candidate's trace and are
  /// copied only when an insert keeps them.
  struct Signature {
    StatPair Stats;
    uint64_t Fingerprint = 0;
    const Tracefile *Trace = nullptr;
  };
  Signature signatureOf(const Tracefile &Trace) const;
  bool isUnique(const Signature &Sig) const;
  void insert(const Signature &Sig);

  UniquenessCriterion Criterion;
  FingerprintFn Fp;
  size_t NumInserted = 0;
  /// Verified-collision count; mutated from the const read path (the
  /// collision is detected during lookup), hence mutable.
  mutable size_t FpCollisions = 0;
  std::set<size_t> SeenStmtCounts;
  std::set<StatPair> SeenStatPairs;
  /// For [tr]: per statistic pair, fingerprint -> the hit sets of every
  /// accepted trace hashing to it (almost always exactly one; more only
  /// under a genuine 64-bit collision).
  std::map<StatPair, std::map<uint64_t, std::vector<Tracefile>>>
      SeenFingerprints;
};

/// One profile's contribution to a differential batch: the encoded
/// {0..4} outcome (§2.3, Figure 3) plus its coverage observation. The
/// coarse statistics feed [dd-coarse]; the hit-set fingerprint feeds
/// [dd-fine].
struct ProfileObservation {
  int Encoded = 0;
  size_t StmtCount = 0;
  size_t BranchCount = 0;
  uint64_t Fingerprint = 0;

  /// Convenience constructor from a run's encoded outcome and trace.
  static ProfileObservation of(int Encoded, const Tracefile &Trace) {
    return {Encoded, Trace.stmtCount(), Trace.branchCount(),
            Trace.fingerprint()};
  }
};

/// Nezha-style δ-diversity acceptance (cf. FuzzerDifferential.h's
/// CumulativeResults / isInterestingRun): every candidate runs on all
/// profiles, each profile yields an (outcome, coverage) signature, and
/// the candidate is accepted iff the hash of the cross-profile signature
/// tuple is new. Profile order is significant -- the same observations
/// attributed to different profiles form a different tuple, exactly as
/// the paper's encoded sequences distinguish "0010" from "0100".
///
/// Alongside the tuple set the checker keeps per-profile signature sets
/// (which behaviors each profile individually exhibited) and an
/// outcome-sequence set; these never gate acceptance but report where
/// novelty came from (tryInsert's Novelty) and feed telemetry.
class DeltaDiversityChecker {
public:
  /// \p C must be DdCoarse or DdFine.
  explicit DeltaDiversityChecker(UniquenessCriterion C);

  /// Where a tuple's novelty came from. Tuple is the acceptance
  /// decision; Outcome/Coverage decompose it for telemetry.
  struct Novelty {
    bool Tuple = false;    ///< Cross-profile tuple hash was new.
    bool Outcome = false;  ///< Encoded outcome sequence was new.
    bool Coverage = false; ///< Some profile's signature was new.
    explicit operator bool() const { return Tuple; }
  };

  /// Hash of the cross-profile signature tuple under the configured
  /// criterion. Pure; shared by the check and the insertion.
  uint64_t tupleHashOf(const std::vector<ProfileObservation> &Obs) const;

  /// True when the cross-profile tuple is novel.
  bool isUnique(const std::vector<ProfileObservation> &Obs) const;

  /// Records \p Obs unconditionally (seed registration).
  void insert(const std::vector<ProfileObservation> &Obs);

  /// isUnique + insert when novel; returns the novelty decomposition
  /// (acceptance iff Novelty.Tuple).
  Novelty tryInsert(const std::vector<ProfileObservation> &Obs);

  UniquenessCriterion criterion() const { return Criterion; }
  /// Number of insert()ed tuples (including duplicates).
  size_t size() const { return NumInserted; }
  /// Distinct tuples + outcome sequences + per-profile signatures
  /// tracked. Proportional to distinct behavior under the active
  /// criterion alone; the other δ criterion's structures do not exist.
  size_t trackedEntries() const;
  /// Distinct signatures profile \p ProfileIndex has exhibited.
  size_t profileSignatures(size_t ProfileIndex) const;
  size_t distinctTuples() const { return TupleHashes.size(); }
  size_t distinctOutcomes() const { return OutcomeHashes.size(); }

private:
  /// One profile's signature under the criterion: [dd-coarse] hashes
  /// (encoded, stmt count, branch count); [dd-fine] hashes (encoded,
  /// hit-set fingerprint).
  uint64_t profileSignatureOf(const ProfileObservation &O) const;
  uint64_t outcomeHashOf(const std::vector<ProfileObservation> &Obs) const;

  UniquenessCriterion Criterion;
  size_t NumInserted = 0;
  std::set<uint64_t> TupleHashes;
  std::set<uint64_t> OutcomeHashes;
  /// Per-profile signature sets, indexed by position in the batch.
  std::vector<std::set<uint64_t>> PerProfile;
};

/// Accumulative-coverage acceptance used by greedyfuzz: a candidate is
/// accepted iff it covers at least one statement or branch never covered
/// by any previously accepted test.
class AccumulativeCoverage {
public:
  /// True when \p Trace adds new coverage (without recording it).
  bool addsNew(const Tracefile &Trace) const;
  /// Merges \p Trace into the accumulated totals, in place.
  void add(const Tracefile &Trace) { Total.merge(Trace); }
  /// Convenience: addsNew + add when new. Returns acceptance.
  bool tryAdd(const Tracefile &Trace);

  const Tracefile &total() const { return Total; }

private:
  Tracefile Total;
};

} // namespace classfuzz

#endif // CLASSFUZZ_COVERAGE_UNIQUENESS_H
