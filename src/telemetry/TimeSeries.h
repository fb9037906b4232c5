//===- telemetry/TimeSeries.h - Deterministic campaign time series -------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iteration-indexed campaign telemetry: a sampler that snapshots a
/// configurable metric-prefix set every K *committed* iterations, and a
/// windowed discovery-rate estimator that detects coverage/discrepancy
/// saturation (plateau).
///
/// Both are driven from the campaign's commit stage only, and both
/// consume only inputs that are a function of the committed trajectory:
///
///  * The sampler reads counters and gauges (never histograms, which
///    hold wall-clock noise) under an include-prefix set. Sampled at
///    commit K the values reflect exactly the first K committed
///    iterations, so timeseries.jsonl is byte-identical across runs and
///    --jobs values -- the same determinism contract every other
///    artifact honors (CI cmp-enforces it).
///  * The saturation detector is a pure function of per-commit discovery
///    signals (new tuples, new branches, discrepancies); it never reads
///    the registry or the clock, so the plateau iteration -- and the
///    --stop-on-plateau cutoff -- is deterministic too.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_TELEMETRY_TIMESERIES_H
#define CLASSFUZZ_TELEMETRY_TIMESERIES_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace classfuzz {
namespace telemetry {

/// Samples the scalar (counter + gauge) metrics under a prefix set every
/// K committed iterations, delta-encoding rows: a row carries only the
/// keys whose value changed since the previous row (the first row
/// carries everything non-zero). Rows accumulate in memory and, when a
/// stream is attached, append to it with a flush per row so a live
/// `classfuzz report --progress-dash` can tail the file mid-run.
class TimeSeriesSampler {
public:
  struct Options {
    /// Sample period in committed iterations.
    uint64_t SampleEvery = 64;
    /// Metric-name include prefixes. The defaults cover every
    /// campaign metric family.
    std::vector<std::string> Prefixes = {"campaign.", "coverage.",
                                         "frontier.", "analysis."};
  };

  /// \p Stream, when non-null, receives each row as one JSONL line
  /// (flushed); owned and closed by the sampler.
  explicit TimeSeriesSampler(Options Opts, std::FILE *Stream = nullptr);
  ~TimeSeriesSampler();
  TimeSeriesSampler(const TimeSeriesSampler &) = delete;
  TimeSeriesSampler &operator=(const TimeSeriesSampler &) = delete;

  /// Called by the campaign after iteration \p CommittedIterations has
  /// fully committed (counters updated); samples when the count is a
  /// multiple of SampleEvery.
  void onCommit(uint64_t CommittedIterations);

  /// Emits one final row (marked "final":true) regardless of alignment,
  /// so the series always ends at the run's last committed iteration.
  void finish(uint64_t CommittedIterations);

  /// Every row emitted so far, in order, one JSON object per element:
  /// {"type":"ts","iter":N,"m":{changed-key:value,...}} with keys
  /// sorted.
  const std::vector<std::string> &rows() const { return Rows; }

  uint64_t sampleEvery() const { return Opts.SampleEvery; }

private:
  void sample(uint64_t Iter, bool Final);

  Options Opts;
  std::FILE *Stream;
  std::vector<std::string> Rows;
  std::map<std::string, int64_t> Last;
  bool Finished = false;
};

/// Windowed discovery-rate plateau detector. Each committed iteration
/// reports its discovery signals; once a full window of commits has
/// produced fewer than MinDiscoveries discoveries, the detector latches
/// the plateau at that iteration (it never unlatches -- the campaign
/// records campaign.plateau_at and, under --stop-on-plateau, stops).
class SaturationDetector {
public:
  struct Options {
    /// Window length in committed iterations.
    size_t Window = 256;
    /// Latch when the window holds fewer than this many discoveries.
    uint64_t MinDiscoveries = 1;
  };

  explicit SaturationDetector(Options Opts);

  /// Discovery signals of one committed iteration.
  struct Signals {
    uint64_t NewBranches = 0; ///< Frontier branches first hit here.
    uint64_t NewTuples = 0;   ///< Pool acceptance (new coverage tuple).
    uint64_t Discrepancies = 0; ///< dd/tier/analysis discrepancies.
  };

  /// Folds one commit in; returns true exactly once, on the commit that
  /// latches the plateau.
  bool onCommit(const Signals &S);

  bool plateaued() const { return Latched; }
  /// 1-based committed-iteration index at which the plateau latched;
  /// 0 when not (yet) plateaued.
  uint64_t plateauIteration() const { return PlateauIter; }
  /// Discoveries per 1000 committed iterations over the current window.
  double discoveryRatePerK() const;

private:
  Options Opts;
  std::vector<uint64_t> Ring; ///< Per-commit discovery counts.
  size_t Next = 0;
  bool Full = false;
  uint64_t InWindow = 0;
  uint64_t Commits = 0;
  bool Latched = false;
  uint64_t PlateauIter = 0;
};

} // namespace telemetry
} // namespace classfuzz

#endif // CLASSFUZZ_TELEMETRY_TIMESERIES_H
