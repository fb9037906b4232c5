//===- fuzzing/SeedScheduler.cpp ------------------------------------------===//

#include "fuzzing/SeedScheduler.h"

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace classfuzz;

const char *classfuzz::seedSchedPolicyName(SeedSchedPolicy Policy) {
  switch (Policy) {
  case SeedSchedPolicy::Uniform:
    return "uniform";
  case SeedSchedPolicy::Rare:
    return "rare";
  case SeedSchedPolicy::Cluster:
    return "cluster";
  }
  return "?";
}

bool classfuzz::parseSeedSchedPolicy(const std::string &Text,
                                     SeedSchedPolicy &Out) {
  if (Text == "uniform") {
    Out = SeedSchedPolicy::Uniform;
    return true;
  }
  if (Text == "rare") {
    Out = SeedSchedPolicy::Rare;
    return true;
  }
  if (Text == "cluster") {
    Out = SeedSchedPolicy::Cluster;
    return true;
  }
  return false;
}

void SeedScheduler::addEntry(const Tracefile &Trace) {
  PendingEntry E;
  E.Branches = Trace.branches();
  E.Fingerprint = Trace.fingerprint();
  Pending.push_back(std::move(E));
  Scores.push_back(0);
}

void SeedScheduler::noteTrace(const Tracefile &Trace) {
  // Hits only grow, so each branch crosses the threshold at most once.
  for (uint32_t B : Trace.branches())
    if (++Branches[B].Hits == Opts.RareThreshold + 1)
      Crossed.push_back(B);
}

void SeedScheduler::rebuild() {
  ++EpochCount;
  uint64_t Visits = 0;

  // Branches that stopped being rare: every entry scored while they
  // were rare loses one point, and their posting nodes are freed.
  for (uint32_t B : Crossed) {
    Branch &Br = Branches[B];
    for (uint32_t N = Br.Head; N != NoPost; N = Posts[N].Next) {
      if (--Scores[Posts[N].Entry] == 0)
        --RareCount;
      --TotalScore;
      FreePosts.push_back(N);
      ++Visits;
    }
    Br.Head = NoPost;
  }
  Crossed.clear();

  // Entries registered since the last rebuild: score them against the
  // current hit table, post them under their rare branches, and cluster
  // them by fingerprint in first-appearance order (deterministic: entry
  // order is commit order).
  size_t I = Scores.size() - Pending.size();
  for (const PendingEntry &E : Pending) {
    size_t Score = 0;
    for (uint32_t B : E.Branches) {
      Branch &Br = Branches[B];
      if (Br.Hits > Opts.RareThreshold)
        continue;
      ++Score;
      Post P{static_cast<uint32_t>(I), Br.Head};
      if (FreePosts.empty()) {
        Br.Head = static_cast<uint32_t>(Posts.size());
        Posts.push_back(P);
      } else {
        Br.Head = FreePosts.back();
        FreePosts.pop_back();
        Posts[Br.Head] = P;
      }
    }
    Scores[I] = Score;
    TotalScore += Score;
    RareCount += Score > 0 ? 1 : 0;
    auto [C, Fresh] = ClusterOf.try_emplace(E.Fingerprint, Clusters.size());
    if (Fresh)
      Clusters.emplace_back();
    Clusters[C->second].push_back(I);
    ++I;
  }
  Visits += Pending.size();
  Pending.clear();

  if (Opts.Policy == SeedSchedPolicy::Rare) {
    rebuildRareTable();
    Visits += DrawMap.size();
  }

  if (telemetry::enabled()) {
    auto &M = telemetry::metrics();
    M.counter("campaign.sched_epochs").inc();
    M.counter("work.sched_entry_visits").inc(Visits);
    M.gauge("campaign.sched_entries")
        .set(static_cast<int64_t>(Scores.size()));
    M.gauge("campaign.sched_rare_entries")
        .set(static_cast<int64_t>(RareCount));
    M.gauge("campaign.sched_clusters")
        .set(static_cast<int64_t>(Clusters.size()));
    M.gauge("campaign.sched_policy")
        .set(static_cast<int64_t>(Opts.Policy));
  }
}

void SeedScheduler::rebuildRareTable() {
  const size_t N = Scores.size();
  DrawMap.clear();
  if (TotalScore == 0)
    return; // Nothing is rare: fall back to uniform mass.
  // Largest-remainder apportionment of the N slots by rare score (ties
  // broken by entry index, so the table is deterministic).
  std::vector<size_t> Slots(N, 0);
  std::vector<uint64_t> Remainder(N, 0);
  size_t Assigned = 0;
  for (size_t I = 0; I != N; ++I) {
    uint64_t Scaled = static_cast<uint64_t>(N) * Scores[I];
    Slots[I] = static_cast<size_t>(Scaled / TotalScore);
    Remainder[I] = Scaled % TotalScore;
    Assigned += Slots[I];
  }
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    if (Remainder[A] != Remainder[B])
      return Remainder[A] > Remainder[B];
    return A < B;
  });
  for (size_t K = 0; Assigned < N; ++K, ++Assigned)
    ++Slots[Order[K % N]];
  DrawMap.reserve(N);
  for (size_t I = 0; I != N; ++I)
    DrawMap.insert(DrawMap.end(), Slots[I], I);
}

size_t SeedScheduler::clusterSlot(size_t Draw) const {
  // The slot table, never materialized: an equal slot budget per
  // cluster (the first N % C clusters absorb the remainder), laid out
  // cluster by cluster, round-robin over members in entry order. One
  // cluster of N entries gets N slots -> the identity table.
  const size_t N = Scores.size();
  const size_t C = Clusters.size();
  const size_t Base = N / C; // >= 1: every cluster has a member.
  const size_t Extra = N % C;
  const size_t WideSlots = Extra * (Base + 1);
  const bool Wide = Draw < WideSlots;
  const size_t Budget = Wide ? Base + 1 : Base;
  const size_t Offset = Wide ? Draw : Draw - WideSlots;
  const std::vector<size_t> &Members =
      Clusters[(Wide ? 0 : Extra) + Offset / Budget];
  return Members[Offset % Budget % Members.size()];
}

size_t SeedScheduler::pick(Rng &R) const {
  assert(!Scores.empty() && "pick() from an empty pool");
  // One nextBelow(entries()) per pick, for every policy: the bound --
  // and therefore the Rng's rejection-sampling raw-draw pattern -- must
  // not depend on the policy or the slot table's contents. Uniform,
  // and entries added since the last rebuild, take the identity table,
  // bit-compatible with the historical uniform draw.
  size_t Draw = static_cast<size_t>(R.nextBelow(Scores.size()));
  if (!Pending.empty())
    return Draw;
  switch (Opts.Policy) {
  case SeedSchedPolicy::Uniform:
    return Draw;
  case SeedSchedPolicy::Rare:
    return DrawMap.empty() ? Draw : DrawMap[Draw];
  case SeedSchedPolicy::Cluster:
    return clusterSlot(Draw);
  }
  return Draw;
}
