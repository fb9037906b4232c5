//===- fuzzing/SeedScheduler.h - Learned seed selection ------------------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-iteration seed selection over the mutation pool. The paper (and
/// this reproduction until now) drew the next parent uniformly; with a
/// 10-100x corpus, seed choice dominates yield ("Selecting Initial
/// Seeds for Better JVM Fuzzing", arxiv 2408.08515), so the campaign
/// can now bias the draw:
///
///  * `uniform` -- the historical policy, bit-compatible with the old
///    `R.choiceIndex(Pool.size())` draw.
///  * `rare` -- FairFuzz-style rare-branch targeting: entries whose
///    reference trace covers branch sites hit at most `RareThreshold`
///    times get selection slots proportional to how many such sites
///    they cover.
///  * `cluster` -- entries are clustered by reference-coverage
///    fingerprint; selection mass is split equally across clusters so
///    behaviorally redundant seeds share one cluster's budget.
///
/// Determinism contract:
///
///  * pick() consumes exactly one logical draw, `nextBelow(N)` with
///    N == entries(), for EVERY policy. The policy only permutes the
///    slot table the drawn index goes through, so the raw Rng draw
///    pattern -- and everything downstream of it -- is identical across
///    policies.
///  * noteTrace() folds hit counts and rebuild() brings scores,
///    clusters, and the slot table up to date; the campaign calls them
///    only at the commit stage (noteTrace() for every produced run,
///    rebuild() only at accepted commits), so scheduler state is a pure
///    function of the committed trajectory.
///
/// Cost model: a rebuild does work proportional to what changed since
/// the previous one, not to the pool. noteTrace() records each branch
/// whose hit count just crossed RareThreshold; rebuild() decrements the
/// scores of the entries on that branch's posting list (kept only while
/// the branch is rare), scores the entries registered since, and folds
/// them into the fingerprint -> cluster map. Only the `rare` slot table
/// is rebuilt in full (O(pool log pool), while anything is rare);
/// `uniform` has no table and pick() computes a `cluster` slot from the
/// cluster lists. `work.sched_entry_visits` counts every entry a
/// rebuild touches.
///
/// The scheduler owns its hit-count table: it never reads the frontier
/// census, so `--seed-sched rare` works without `--frontier`.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_FUZZING_SEEDSCHEDULER_H
#define CLASSFUZZ_FUZZING_SEEDSCHEDULER_H

#include "coverage/Tracefile.h"
#include "support/Rng.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace classfuzz {

enum class SeedSchedPolicy {
  Uniform,
  Rare,
  Cluster,
};

const char *seedSchedPolicyName(SeedSchedPolicy Policy);

/// Parses "uniform" / "rare" / "cluster"; false on anything else.
bool parseSeedSchedPolicy(const std::string &Text, SeedSchedPolicy &Out);

/// Schedules which mutation-pool entry the next iteration mutates.
/// Mirrors the pool 1:1: the campaign calls addEntry (or
/// addEntryNoCoverage) exactly when it pushes a pool entry, so
/// entries() always equals the pool size.
class SeedScheduler {
public:
  struct Options {
    SeedSchedPolicy Policy = SeedSchedPolicy::Uniform;
    /// A branch site with at most this many folded hits is "rare".
    /// 2 is the bench_seedsched sweet spot (see CampaignConfig).
    size_t RareThreshold = 2;
  };

  explicit SeedScheduler(Options Opts) : Opts(Opts) {}

  /// Registers the next pool entry with its reference-trace coverage.
  /// Holds the branch vector and fingerprint until the next rebuild
  /// scores it; does NOT fold hit counts (pair with noteTrace, which
  /// folds every committed run).
  void addEntry(const Tracefile &Trace);

  /// Registers a pool entry with no coverage information (randfuzz, or
  /// coverage-free replay): scores as zero, clusters with its kind.
  void addEntryNoCoverage() { addEntry(Tracefile()); }

  /// Folds one committed run's branch coverage into the hit-count
  /// table; the scores see it at the next rebuild. Commit-stage only.
  void noteTrace(const Tracefile &Trace);

  /// Brings rare scores, clusters, and the selection slot table up to
  /// date with the current entries and hit counts, and publishes the
  /// campaign.sched_* gauges. Commit-stage only, at accepted commits.
  void rebuild();

  /// Draws the next pool index: exactly one nextBelow(entries()) from
  /// \p R regardless of policy.
  size_t pick(Rng &R) const;

  size_t entries() const { return Scores.size(); }
  /// Entries whose trace covers at least one currently-rare branch
  /// site (as of the last rebuild).
  size_t rareEntries() const { return RareCount; }
  /// Coverage-fingerprint clusters (as of the last rebuild).
  size_t clusters() const { return Clusters.size(); }
  /// Number of rebuild() calls so far.
  uint64_t epochs() const { return EpochCount; }
  /// The entry's rare-branch score as of the last rebuild (0 for
  /// entries added since).
  size_t rareScore(size_t Index) const {
    return Index < Scores.size() ? Scores[Index] : 0;
  }

  SeedSchedPolicy policy() const { return Opts.Policy; }

private:
  /// An entry registered since the last rebuild, which scores it and
  /// drops its branch vector.
  struct PendingEntry {
    std::vector<uint32_t> Branches; ///< Sorted distinct branch ids.
    uint64_t Fingerprint = 0;       ///< Coverage cluster key.
  };

  /// Rebuilds the `rare` slot table from the maintained scores.
  void rebuildRareTable();
  /// The `cluster` slot table's entry for slot \p Draw, computed from
  /// the cluster lists instead of materialized.
  size_t clusterSlot(size_t Draw) const;

  Options Opts;
  /// Rare-branch score per entry as of the last rebuild (0 while
  /// pending). Its size is entries().
  std::vector<size_t> Scores;
  /// The last Pending.size() entries, not yet scored.
  std::vector<PendingEntry> Pending;
  static constexpr uint32_t NoPost = UINT32_MAX;
  /// One node of a rare branch's posting list: an entry scored while
  /// the branch was rare.
  struct Post {
    uint32_t Entry = 0;
    uint32_t Next = NoPost;
  };
  struct Branch {
    uint64_t Hits = 0;      ///< Folds of this branch id.
    uint32_t Head = NoPost; ///< Posting list; emptied when it crosses.
  };

  std::unordered_map<uint32_t, Branch> Branches; ///< By branch id.
  /// Branches whose hit count crossed RareThreshold since the last
  /// rebuild.
  std::vector<uint32_t> Crossed;
  /// Posting-list node pool; crossed branches return their nodes to
  /// FreePosts for reuse, so the pool never outgrows the peak number of
  /// live postings.
  std::vector<Post> Posts;
  std::vector<uint32_t> FreePosts;
  std::unordered_map<uint64_t, size_t> ClusterOf; ///< fingerprint -> id.
  /// Scored entries per cluster, in entry order; clusters in
  /// first-appearance order.
  std::vector<std::vector<size_t>> Clusters;
  /// The `rare` slot table: entries() slots, or empty (the identity)
  /// when nothing is rare.
  std::vector<size_t> DrawMap;
  size_t TotalScore = 0;
  size_t RareCount = 0;
  uint64_t EpochCount = 0;
};

} // namespace classfuzz

#endif // CLASSFUZZ_FUZZING_SEEDSCHEDULER_H
