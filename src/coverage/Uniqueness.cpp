//===- coverage/Uniqueness.cpp --------------------------------------------===//

#include "coverage/Uniqueness.h"

#include "support/Hashing.h"
#include "telemetry/Telemetry.h"

#include <cassert>

using namespace classfuzz;

const char *classfuzz::criterionName(UniquenessCriterion C) {
  switch (C) {
  case UniquenessCriterion::St:
    return "[st]";
  case UniquenessCriterion::StBr:
    return "[stbr]";
  case UniquenessCriterion::Tr:
    return "[tr]";
  case UniquenessCriterion::DdCoarse:
    return "[dd-coarse]";
  case UniquenessCriterion::DdFine:
    return "[dd-fine]";
  }
  return "?";
}

UniquenessChecker::Signature
UniquenessChecker::signatureOf(const Tracefile &Trace) const {
  Signature Sig;
  Sig.Stats = {Trace.stmtCount(), Trace.branchCount()};
  // Only [tr] compares full hit sets; skip the O(|trace|) fingerprint
  // walk for the statistic-only criteria.
  if (Criterion == UniquenessCriterion::Tr) {
    Sig.Fingerprint = Fp ? Fp(Trace) : Trace.fingerprint();
    Sig.Trace = &Trace;
  }
  return Sig;
}

bool UniquenessChecker::isUnique(const Signature &Sig) const {
  switch (Criterion) {
  case UniquenessCriterion::St:
    return !SeenStmtCounts.count(Sig.Stats.first);
  case UniquenessCriterion::StBr:
    return !SeenStatPairs.count(Sig.Stats);
  case UniquenessCriterion::Tr: {
    auto It = SeenFingerprints.find(Sig.Stats);
    if (It == SeenFingerprints.end())
      return true;
    auto FpIt = It->second.find(Sig.Fingerprint);
    if (FpIt == It->second.end())
      return true;
    // Equal statistics and equal fingerprint: the fingerprint is only a
    // filter, so break the tie on the stored ground-truth hit sets. A
    // candidate whose sets differ from every accepted one is a verified
    // 64-bit collision -- representative, not a duplicate.
    for (const Tracefile &Stored : FpIt->second)
      if (Stored.sameSets(*Sig.Trace))
        return false;
    ++FpCollisions;
    if (telemetry::enabled())
      telemetry::metrics().counter("coverage.tr_fp_collisions").inc();
    return true;
  }
  case UniquenessCriterion::DdCoarse:
  case UniquenessCriterion::DdFine:
    break; // δ criteria are handled by DeltaDiversityChecker.
  }
  assert(false && "tracefile uniqueness queried for a δ criterion");
  return false;
}

void UniquenessChecker::insert(const Signature &Sig) {
  // Maintain only the structure isUnique reads for the active
  // criterion; populating all three bloats memory at corpus scale for
  // no behavioral difference.
  switch (Criterion) {
  case UniquenessCriterion::St:
    SeenStmtCounts.insert(Sig.Stats.first);
    break;
  case UniquenessCriterion::StBr:
    SeenStatPairs.insert(Sig.Stats);
    break;
  case UniquenessCriterion::Tr: {
    std::vector<Tracefile> &Bucket =
        SeenFingerprints[Sig.Stats][Sig.Fingerprint];
    bool Present = false;
    for (const Tracefile &Stored : Bucket)
      Present |= Stored.sameSets(*Sig.Trace);
    if (!Present)
      Bucket.push_back(*Sig.Trace);
    break;
  }
  case UniquenessCriterion::DdCoarse:
  case UniquenessCriterion::DdFine:
    assert(false && "tracefile insert for a δ criterion");
    break;
  }
  ++NumInserted;
}

size_t UniquenessChecker::trackedEntries() const {
  size_t N = SeenStmtCounts.size() + SeenStatPairs.size();
  for (const auto &KV : SeenFingerprints)
    for (const auto &FpKV : KV.second)
      N += FpKV.second.size();
  return N;
}

bool UniquenessChecker::isUnique(const Tracefile &Trace) const {
  return isUnique(signatureOf(Trace));
}

void UniquenessChecker::insert(const Tracefile &Trace) {
  insert(signatureOf(Trace));
}

bool UniquenessChecker::tryInsert(const Tracefile &Trace) {
  Signature Sig = signatureOf(Trace);
  if (!isUnique(Sig))
    return false;
  insert(Sig);
  return true;
}

// ---- DeltaDiversityChecker ------------------------------------------------

DeltaDiversityChecker::DeltaDiversityChecker(UniquenessCriterion C)
    : Criterion(C) {
  assert(isDeltaDiversity(C) && "not a δ-diversity criterion");
}

uint64_t
DeltaDiversityChecker::profileSignatureOf(const ProfileObservation &O) const {
  Hasher H;
  H.addU32(static_cast<uint32_t>(O.Encoded));
  if (Criterion == UniquenessCriterion::DdCoarse) {
    // Coarse coverage: the (stmt, branch) statistics, the same counts
    // the paper's [stbr] compares (Nezha's "path diversity, coarse").
    H.addU64(O.StmtCount);
    H.addU64(O.BranchCount);
  } else {
    // Fine coverage: the hit-set fingerprint (Nezha's "path diversity,
    // fine" hashes the edge set).
    H.addU64(O.Fingerprint);
  }
  return H.value();
}

uint64_t DeltaDiversityChecker::outcomeHashOf(
    const std::vector<ProfileObservation> &Obs) const {
  Hasher H;
  for (const ProfileObservation &O : Obs)
    H.addU32(static_cast<uint32_t>(O.Encoded));
  return H.value();
}

uint64_t DeltaDiversityChecker::tupleHashOf(
    const std::vector<ProfileObservation> &Obs) const {
  // Position-dependent: profile i's signature lands at position i, so
  // the same behaviors on different profiles form different tuples.
  Hasher H;
  for (const ProfileObservation &O : Obs)
    H.addU64(profileSignatureOf(O));
  return H.value();
}

bool DeltaDiversityChecker::isUnique(
    const std::vector<ProfileObservation> &Obs) const {
  return !TupleHashes.count(tupleHashOf(Obs));
}

void DeltaDiversityChecker::insert(
    const std::vector<ProfileObservation> &Obs) {
  TupleHashes.insert(tupleHashOf(Obs));
  OutcomeHashes.insert(outcomeHashOf(Obs));
  if (PerProfile.size() < Obs.size())
    PerProfile.resize(Obs.size());
  for (size_t I = 0; I != Obs.size(); ++I)
    PerProfile[I].insert(profileSignatureOf(Obs[I]));
  ++NumInserted;
}

DeltaDiversityChecker::Novelty
DeltaDiversityChecker::tryInsert(const std::vector<ProfileObservation> &Obs) {
  Novelty N;
  N.Tuple = !TupleHashes.count(tupleHashOf(Obs));
  N.Outcome = !OutcomeHashes.count(outcomeHashOf(Obs));
  for (size_t I = 0; I != Obs.size() && !N.Coverage; ++I)
    N.Coverage = I >= PerProfile.size() ||
                 !PerProfile[I].count(profileSignatureOf(Obs[I]));
  if (N.Tuple)
    insert(Obs);
  return N;
}

size_t DeltaDiversityChecker::trackedEntries() const {
  size_t N = TupleHashes.size() + OutcomeHashes.size();
  for (const std::set<uint64_t> &Sigs : PerProfile)
    N += Sigs.size();
  return N;
}

size_t DeltaDiversityChecker::profileSignatures(size_t ProfileIndex) const {
  return ProfileIndex < PerProfile.size() ? PerProfile[ProfileIndex].size()
                                          : 0;
}

// ---- AccumulativeCoverage -------------------------------------------------

bool AccumulativeCoverage::addsNew(const Tracefile &Trace) const {
  return !Total.covers(Trace);
}

bool AccumulativeCoverage::tryAdd(const Tracefile &Trace) {
  if (!addsNew(Trace))
    return false;
  add(Trace);
  return true;
}
