//===- tools/classfuzz.cpp - Command-line driver -------------------------===//
//
// The classfuzz command-line tool:
//
//   classfuzz fuzz    [--algo A] [--iterations N | --time-budget S]
//                     [--seeds N] [--rng N] [--jobs N] [--out DIR]
//                     [--incidents DIR] [--reduce]
//       run a fuzzing campaign, differentially test the accepted
//       classfiles on all five JVM profiles (on --jobs worker threads),
//       write report.md (and the discrepancy-triggering .class files
//       when --out is given); --incidents dumps a self-contained
//       replayable bundle per discrepancy or VM abort (DESIGN.md §9)
//
//   classfuzz replay  BUNDLE_DIR
//       re-derive an incident bundle's mutant from lineage.json and
//       re-run the differential test, checking both against the bundle
//
//   classfuzz run     FILE.class [--env jre5|jre7|jre8|jre9]
//       execute one classfile on all five JVM profiles
//
//   classfuzz analyze FILE.class... [--print] [--env jre5|...]
//       execution-free static triage: run every lint pass over each
//       classfile and predict the reference JVM's startup outcome;
//       default output is one JSON line per class (stable bytes),
//       --print renders an annotated javap-style dump instead
//
//   classfuzz inspect FILE.class
//       javap-style + Jimple-style dumps
//
//   classfuzz reduce  FILE.class [--out FILE]
//       chunked hierarchical delta debugging preserving the file's
//       discrepancy
//
//   classfuzz mutators
//       list the 129 mutation operators
//
//   classfuzz report  TIMESERIES.jsonl [--stats FILE] [--frontier FILE]
//                     [--out FILE] [--progress-dash]
//       render the campaign observability artifacts (--timeseries,
//       --frontier, --stats-json) into a self-contained single-file
//       HTML report, or tail the time series live in the terminal
//       with --progress-dash (DESIGN.md §15)
//
// Every subcommand declares its flags in an ArgParser table: unknown
// flags are rejected with a diagnostic and --help is generated from the
// same table. The telemetry flags --stats-json, --trace-events, and
// --trace-perfetto (fuzz/run/reduce) enable the observation-only
// metrics layer of DESIGN.md §8-9.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalyzer.h"
#include "classfile/ClassReader.h"
#include "classfile/Printer.h"
#include "difftest/Incident.h"
#include "difftest/Report.h"
#include "fuzzing/Campaign.h"
#include "fuzzing/Provenance.h"
#include "jir/Jir.h"
#include "jvm/ExecTier.h"
#include "jvm/Phase.h"
#include "mutation/Mutator.h"
#include "reducer/Reducer.h"
#include "runtime/RuntimeLib.h"
#include "support/ArgParser.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "telemetry/CampaignReport.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/PerfettoTrace.h"
#include "telemetry/Telemetry.h"
#include "telemetry/TimeSeries.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace classfuzz;

namespace {

int usage(std::FILE *To) {
  std::fprintf(
      To,
      "usage:\n"
      "  classfuzz fuzz    [--algo stbr|st|tr|dd-coarse|dd-fine|unique|"
      "greedy|rand]\n"
      "                    [--criterion st|stbr|tr|dd-coarse|dd-fine]\n"
      "                    [--iterations N | --time-budget SECONDS]\n"
      "                    [--seeds N | --seed-dir DIR] [--rng N]\n"
      "                    [--corpus-scale N]\n"
      "                    [--seed-sched uniform|rare|cluster]\n"
      "                    [--jobs N] [--out DIR] [--progress SECONDS]\n"
      "                    [--tier threaded|baseline] [--tier-diff]\n"
      "                    [--incidents DIR] [--flightrec N] [--reduce]\n"
      "                    [--timeseries FILE] [--sample-every K]\n"
      "                    [--sample-filter PREFIXES] [--frontier FILE]\n"
      "                    [--rare-threshold N] [--plateau-window N]\n"
      "                    [--stop-on-plateau]\n"
      "                    [--typed-mutators] [--deep-reward W]\n"
      "                    [--prefilter] [--prefilter-audit F]\n"
      "                    [--stats-json FILE] [--stats-filter PREFIXES]\n"
      "                    [--trace-events FILE] [--trace-perfetto FILE]\n"
      "  classfuzz replay  BUNDLE_DIR\n"
      "  classfuzz run     FILE.class [--env jre5|jre7|jre8|jre9]\n"
      "                    [--tier threaded|baseline]\n"
      "  classfuzz analyze FILE.class... [--print | --holes]\n"
      "                    [--env jre5|jre7|jre8|jre9]\n"
      "  classfuzz inspect FILE.class\n"
      "  classfuzz reduce  FILE.class [--out FILE]\n"
      "                    [--max-queries N] [--no-chunks]\n"
      "  classfuzz seeds   --out DIR [--seeds N] [--rng N]\n"
      "                    [--corpus-scale N]\n"
      "  classfuzz mutators\n"
      "  classfuzz report  TIMESERIES.jsonl [--stats FILE]\n"
      "                    [--frontier FILE] [--out FILE] [--title T]\n"
      "                    [--progress-dash] [--interval SECONDS] "
      "[--once]\n"
      "\n"
      "run 'classfuzz <command> --help' for per-command flags\n");
  return To == stdout ? 0 : 2;
}

/// The telemetry flags shared by fuzz/run/reduce.
std::vector<FlagSpec> withTelemetryFlags(std::vector<FlagSpec> Specs) {
  Specs.push_back({"stats-json", "FILE",
                   "write a JSON metrics snapshot to FILE at exit "
                   "(\"-\" = stdout)",
                   ""});
  Specs.push_back({"stats-filter", "PREFIXES",
                   "restrict the --stats-json snapshot to metrics whose "
                   "name starts with one of the comma-separated "
                   "PREFIXES (e.g. campaign.dd or campaign.,frontier.)",
                   ""});
  Specs.push_back({"trace-events", "FILE",
                   "stream JSONL trace events to FILE (\"-\" = stdout)",
                   ""});
  Specs.push_back({"trace-perfetto", "FILE",
                   "write a Chrome/Perfetto trace of phase spans to FILE "
                   "at exit",
                   ""});
  return Specs;
}

/// Reads the worker-thread flag \p Flag into \p Out: 0 and garbage mean
/// one thread. Values above MaxPoolThreads (negative numbers wrap to
/// huge ones) are rejected with a diagnostic before any pool starts.
bool threadCountOrExit(const ArgParser &A, const char *Flag, size_t &Out,
                       int &Exit) {
  const unsigned long long N = A.getUnsigned(Flag);
  if (N > MaxPoolThreads) {
    std::fprintf(stderr, "--%s %s: at most %zu threads\n", Flag,
                 A.get(Flag).c_str(), MaxPoolThreads);
    Exit = 2;
    return false;
  }
  Out = std::max<size_t>(1, static_cast<size_t>(N));
  return true;
}

/// Parses a subcommand's arguments; returns true to continue, false
/// with \p Exit set after printing help or a diagnostic.
bool parseOrExit(ArgParser &A, int Argc, char **Argv, int &Exit) {
  if (!A.parse(Argc, Argv, 2)) {
    std::fprintf(stderr, "%s\n", A.error().c_str());
    Exit = 2;
    return false;
  }
  if (A.helpRequested()) {
    std::fputs(A.helpText().c_str(), stdout);
    Exit = 0;
    return false;
  }
  return true;
}

/// Enables telemetry per --stats-json/--trace-events and, on
/// destruction, uninstalls the event sink and writes the snapshot.
class TelemetryCli {
public:
  bool setup(const ArgParser &A) {
    StatsPath = A.get("stats-json");
    StatsFilter = A.get("stats-filter");
    PerfettoPath = A.get("trace-perfetto");
    std::string TracePath = A.get("trace-events");
    if (StatsPath.empty() && TracePath.empty() && PerfettoPath.empty())
      return true;
    telemetry::setEnabled(true);
    if (!TracePath.empty()) {
      std::FILE *F = TracePath == "-" ? stdout
                                      : std::fopen(TracePath.c_str(), "w");
      if (!F) {
        std::fprintf(stderr, "cannot open %s for trace events\n",
                     TracePath.c_str());
        return false;
      }
      bool Close = TracePath != "-";
      telemetry::setEventSink(std::make_unique<telemetry::FileEventSink>(
          F, Close, "trace events (" + TracePath + ")"));
    }
    if (!PerfettoPath.empty())
      telemetry::enableSpanCollection();
    return true;
  }

  ~TelemetryCli() {
    telemetry::setEventSink(nullptr);
    if (!PerfettoPath.empty()) {
      std::FILE *F = std::fopen(PerfettoPath.c_str(), "w");
      if (!F) {
        std::fprintf(stderr, "cannot write %s\n", PerfettoPath.c_str());
      } else {
        if (!telemetry::writeChromeTrace(F))
          std::fprintf(stderr, "short write to %s\n", PerfettoPath.c_str());
        std::fclose(F);
      }
      telemetry::disableSpanCollection();
    }
    if (StatsPath.empty())
      return;
    std::string Json = telemetry::metrics().snapshotJson(StatsFilter);
    if (StatsPath == "-") {
      std::printf("%s\n", Json.c_str());
      return;
    }
    std::FILE *F = std::fopen(StatsPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", StatsPath.c_str());
      return;
    }
    std::fprintf(F, "%s\n", Json.c_str());
    std::fclose(F);
  }

private:
  std::string StatsPath;
  std::string StatsFilter;
  std::string PerfettoPath;
};

Result<Bytes> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return makeError("cannot open " + Path);
  Bytes Data((std::istreambuf_iterator<char>(In)),
             std::istreambuf_iterator<char>());
  return Data;
}

bool writeFile(const std::string &Path, const Bytes &Data) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out.write(reinterpret_cast<const char *>(Data.data()),
            static_cast<std::streamsize>(Data.size()));
  return static_cast<bool>(Out);
}

FuzzAlgorithm algoFromName(const std::string &Name) {
  if (Name == "st")
    return FuzzAlgorithm::ClassfuzzSt;
  if (Name == "tr")
    return FuzzAlgorithm::ClassfuzzTr;
  if (Name == "dd-coarse")
    return FuzzAlgorithm::ClassfuzzDdCoarse;
  if (Name == "dd-fine")
    return FuzzAlgorithm::ClassfuzzDdFine;
  if (Name == "unique")
    return FuzzAlgorithm::Uniquefuzz;
  if (Name == "greedy")
    return FuzzAlgorithm::Greedyfuzz;
  if (Name == "rand")
    return FuzzAlgorithm::Randfuzz;
  return FuzzAlgorithm::ClassfuzzStBr;
}

/// Loads every *.class file of \p Dir as a seed (non-recursive).
std::vector<SeedClass> loadSeedDir(const std::string &Dir) {
  std::vector<SeedClass> Out;
  namespace fs = std::filesystem;
  std::error_code Ec;
  for (const auto &Entry : fs::directory_iterator(Dir, Ec)) {
    if (Ec)
      break;
    if (Entry.path().extension() != ".class")
      continue;
    auto Data = readFile(Entry.path().string());
    if (!Data)
      continue;
    auto CF = parseClassFile(*Data);
    if (!CF) {
      std::fprintf(stderr, "skipping %s: %s\n",
                   Entry.path().string().c_str(), CF.error().c_str());
      continue;
    }
    SeedClass Seed;
    Seed.Name = CF->ThisClass;
    Seed.Data = Data.take();
    Out.push_back(std::move(Seed));
  }
  return Out;
}

int cmdFuzz(int Argc, char **Argv) {
  ArgParser A(
      "classfuzz fuzz", "",
      withTelemetryFlags(
          {{"algo", "ALGO",
            "algorithm: stbr|st|tr|dd-coarse|dd-fine|unique|greedy|rand",
            "stbr"},
           {"criterion", "C",
            "acceptance criterion (classfuzz shorthand for --algo): "
            "st|stbr|tr|dd-coarse|dd-fine",
            ""},
           {"iterations", "N", "iteration budget", "2000"},
           {"time-budget", "SECONDS",
            "wall-clock budget (overrides --iterations)", ""},
           {"seeds", "N", "generated seed-corpus size", "64"},
           {"corpus-scale", "N",
            "multiply the generated corpus by N (parameterized "
            "generators sweep constant-pool shape, hierarchy depth, "
            "exception-table geometry, and attribute soup per round)",
            "1"},
           {"seed-sched", "P",
            "seed-selection policy over the mutation pool: "
            "uniform|rare|cluster (rare/cluster need coverage, so not "
            "--algo rand)",
            "uniform"},
           {"seed-dir", "DIR", "seed with the .class files of DIR", ""},
           {"rng", "N", "campaign RNG seed", "1"},
           {"jobs", "N",
            "worker threads for the differential test of the accepted "
            "classfiles (at most 256); results are identical across "
            "values",
            "1"},
           {"tier", "T",
            "execution tier for every JVM run: threaded|baseline",
            "threaded"},
           {"tier-diff", "",
            "also run every produced mutant on the reference policy's "
            "interpreter and baseline-JIT tiers and census tier "
            "disagreements as their own discrepancy class",
            ""},
           {"out", "DIR",
            "write report.md + discrepancy classfiles to DIR", ""},
           {"progress", "SECONDS",
            "print a one-line progress report to stderr every SECONDS",
            ""},
           {"incidents", "DIR",
            "dump a replayable incident bundle per discrepancy or VM "
            "abort under DIR",
            ""},
           {"analysis-incidents", "DIR",
            "dump a self-check bundle per predict-vs-observe mismatch "
            "of the static analyzer under DIR",
            ""},
           {"no-analysis", "",
            "skip the static analyzer (and its analysis.* telemetry)",
            ""},
           {"flightrec", "N",
            "flight-recorder ring capacity per lane (with --incidents)",
            "1024"},
           {"reduce", "",
            "also reduce each discrepancy into its incident bundle "
            "(needs --incidents)",
            ""},
           {"timeseries", "FILE",
            "stream a delta-encoded JSONL metric time series to FILE, "
            "sampled at the commit stage (byte-identical across --jobs)",
            ""},
           {"sample-every", "K",
            "time-series sample period in committed iterations", "64"},
           {"sample-filter", "PREFIXES",
            "comma-separated metric-name prefixes the time series "
            "samples (default: campaign.,coverage.,frontier.,analysis.)",
            ""},
           {"frontier", "FILE",
            "track the coverage frontier and write the per-branch/stmt "
            "hit-count + first-hit-attribution census to FILE as JSONL",
            ""},
           {"rare-threshold", "N",
            "a frontier branch/stmt is rare while its hits <= N", "2"},
           {"plateau-window", "N",
            "latch campaign.plateau_at when N consecutive committed "
            "iterations discover nothing new (0 = off)",
            "0"},
           {"stop-on-plateau", "",
            "stop the campaign at the plateau (implies --plateau-window "
            "256 unless set)",
            ""},
           {"typed-mutators", "",
            "extend the mutator pool with the analyzer-driven typed "
            "mutators (typed.*): near-miss rewrites at the typed holes "
            "the static analyzer extracts per class",
            ""},
           {"deep-reward", "W",
            "MCMC deep-phase reward weight: each mutant surviving "
            "loading/linking adds W to its mutator's blended success "
            "rate (0 = the paper's pure acceptance rate)",
            "0"},
           {"prefilter", "",
            "skip the reference execution of mutants the static "
            "analyzer proves dead while loading/linking (counted in "
            "campaign.prefilter_*)",
            ""},
           {"prefilter-audit", "F",
            "fraction of pre-filter skips (keyed on the mutant's "
            "content hash) that still execute to audit the prediction; "
            "a mispredict latches an analyzer self-check",
            "0.05"}}));
  int Exit = 0;
  if (!parseOrExit(A, Argc, Argv, Exit))
    return Exit;
  size_t Jobs = 1;
  if (!threadCountOrExit(A, "jobs", Jobs, Exit))
    return Exit;
  if (A.has("reduce") && A.get("incidents").empty()) {
    std::fprintf(stderr, "--reduce writes into incident bundles; add "
                         "--incidents DIR\n");
    return 2;
  }
  TelemetryCli Telem;
  if (!Telem.setup(A))
    return 1;

  CampaignConfig Config;
  Config.Algo = algoFromName(A.get("algo"));
  if (A.has("criterion")) {
    // --criterion names the uniqueness discipline directly; it maps
    // onto the classfuzz algorithm with that acceptance rule.
    const std::string C = A.get("criterion");
    if (C != "st" && C != "stbr" && C != "tr" && C != "dd-coarse" &&
        C != "dd-fine") {
      std::fprintf(stderr,
                   "unknown --criterion %s (expected "
                   "st|stbr|tr|dd-coarse|dd-fine)\n",
                   C.c_str());
      return 2;
    }
    Config.Algo = algoFromName(C);
  }
  if (A.has("time-budget"))
    Config.TimeBudgetSeconds = A.getDouble("time-budget");
  else
    Config.Iterations = static_cast<size_t>(A.getUnsigned("iterations"));
  const size_t CorpusScale =
      std::max<size_t>(1, static_cast<size_t>(A.getUnsigned("corpus-scale")));
  Config.NumSeeds =
      static_cast<size_t>(A.getUnsigned("seeds")) * CorpusScale;
  if (!parseSeedSchedPolicy(A.get("seed-sched"), Config.SeedSched)) {
    std::fprintf(stderr,
                 "unknown --seed-sched %s (expected "
                 "uniform|rare|cluster)\n",
                 A.get("seed-sched").c_str());
    return 2;
  }
  if (Config.SeedSched != SeedSchedPolicy::Uniform &&
      Config.Algo == FuzzAlgorithm::Randfuzz) {
    // rand collects no coverage at all, so there is nothing for the
    // learned policies to score. (No --frontier requirement, though:
    // the scheduler keeps its own hit-count table.)
    std::fprintf(stderr,
                 "--seed-sched %s needs coverage; --algo rand never "
                 "collects any\n",
                 seedSchedPolicyName(Config.SeedSched));
    return 2;
  }
  Config.RngSeed = A.getUnsigned("rng");
  Config.ProgressIntervalSeconds = A.getDouble("progress");
  auto Tier = parseExecTier(A.get("tier"));
  if (!Tier) {
    std::fprintf(stderr,
                 "unknown --tier %s (expected threaded|baseline)\n",
                 A.get("tier").c_str());
    return 2;
  }
  Config.ReferencePolicy.Tier = *Tier;
  Config.TierDiff = A.has("tier-diff");
  Config.TypedMutators = A.has("typed-mutators");
  Config.DeepRewardWeight = A.getDouble("deep-reward");
  if (Config.DeepRewardWeight > 0 &&
      (Config.Algo == FuzzAlgorithm::Randfuzz ||
       Config.Algo == FuzzAlgorithm::Uniquefuzz ||
       Config.Algo == FuzzAlgorithm::Greedyfuzz)) {
    std::fprintf(stderr,
                 "--deep-reward shapes the MCMC selector; %s does not "
                 "use one\n",
                 fuzzAlgorithmName(Config.Algo));
    return 2;
  }
  Config.Prefilter = A.has("prefilter");
  Config.PrefilterAudit = A.getDouble("prefilter-audit");
  if (Config.Prefilter && Config.Algo == FuzzAlgorithm::Randfuzz) {
    std::fprintf(stderr, "--prefilter skips reference executions; --algo "
                         "rand never runs any\n");
    return 2;
  }
  const std::string AnalysisDir = A.get("analysis-incidents");
  Config.RunAnalysis = !A.has("no-analysis");
  if (!AnalysisDir.empty() && !Config.RunAnalysis) {
    std::fprintf(stderr,
                 "--analysis-incidents requires the analyzer; drop "
                 "--no-analysis\n");
    return 2;
  }
  Config.TrackFrontier = A.has("frontier");
  Config.RareBranchThreshold = A.getUnsigned("rare-threshold");
  Config.PlateauWindow =
      static_cast<size_t>(A.getUnsigned("plateau-window"));
  Config.StopOnPlateau = A.has("stop-on-plateau");
  if (Config.StopOnPlateau && Config.PlateauWindow == 0)
    Config.PlateauWindow = 256;
  std::unique_ptr<telemetry::TimeSeriesSampler> Sampler;
  if (A.has("timeseries")) {
    // The sampler snapshots the metric registry at every commit stride,
    // so the observation layer must be on even without --stats-json.
    telemetry::setEnabled(true);
    telemetry::TimeSeriesSampler::Options TsOpts;
    TsOpts.SampleEvery = A.getUnsigned("sample-every");
    if (A.has("sample-filter"))
      TsOpts.Prefixes = A.getList("sample-filter");
    std::FILE *F = std::fopen(A.get("timeseries").c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot open %s for the time series\n",
                   A.get("timeseries").c_str());
      return 1;
    }
    Sampler = std::make_unique<telemetry::TimeSeriesSampler>(TsOpts, F);
    Config.TimeSeries = Sampler.get();
  }
  if (A.has("seed-dir")) {
    Config.ExternalSeeds = loadSeedDir(A.get("seed-dir"));
    if (Config.ExternalSeeds.empty()) {
      std::fprintf(stderr, "no usable .class seeds in %s\n",
                   A.get("seed-dir").c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %zu seeds from %s\n",
                 Config.ExternalSeeds.size(), A.get("seed-dir").c_str());
  }

  // Arm the flight recorder before the campaign so incident bundles
  // arrive with the run's last moments attached. Events are recorded in
  // campaign commit order and difftest class order only, so the dumped
  // stream (like the rest of the bundle) is byte-identical across
  // --jobs values.
  const std::string IncidentsDir = A.get("incidents");
  if (!IncidentsDir.empty())
    telemetry::flightRecorder().enable(
        std::max<size_t>(16, static_cast<size_t>(A.getUnsigned("flightrec"))));

  std::fprintf(stderr, "running %s (%s)...\n",
               fuzzAlgorithmName(Config.Algo),
               Config.TimeBudgetSeconds > 0 ? "time budget"
                                            : "iteration budget");
  CampaignResult R = runCampaign(Config);
  std::printf("%s: %zu iterations, %zu generated, %zu representative "
              "tests (succ %.1f%%) in %.2fs\n",
              fuzzAlgorithmName(R.Algo), R.Iterations, R.numGenerated(),
              R.numTests(), R.successRatePercent(), R.ElapsedSeconds);
  if (usesDeltaDiversity(R.Algo))
    std::printf("dd census: %zu discrepancies over %zu produced mutants, "
                "%zu distinct categories\n",
                R.DdDiscrepancies, R.numGenerated(),
                R.ddDistinctDiscrepancies());
  if (Config.TierDiff) {
    size_t TierCategories = 0;
    for (const auto &[Encoded, Count] : R.TierOutcomeCounts)
      if (Encoded.size() == 2 && Encoded[0] != Encoded[1])
        ++TierCategories;
    std::printf("tier census: %zu interp-vs-baseline disagreements over "
                "%zu produced mutants, %zu distinct categories\n",
                R.TierDisagreements, R.numGenerated(), TierCategories);
  }
  if (Config.SeedSched != SeedSchedPolicy::Uniform)
    std::printf("sched: policy=%s, %llu draws (%llu rare), %llu epochs\n",
                seedSchedPolicyName(Config.SeedSched),
                static_cast<unsigned long long>(R.SchedDraws),
                static_cast<unsigned long long>(R.SchedRareDraws),
                static_cast<unsigned long long>(R.SchedEpochs));
  if (Config.Prefilter)
    std::printf("prefilter: %llu skipped, %llu passed, %llu audited, "
                "%llu mispredicted\n",
                static_cast<unsigned long long>(R.PrefilterSkipped),
                static_cast<unsigned long long>(R.PrefilterPassed),
                static_cast<unsigned long long>(R.PrefilterAudited),
                static_cast<unsigned long long>(R.PrefilterMispredicts));
  if (R.Plateaued)
    std::printf("plateau: no discoveries over a %zu-commit window; "
                "latched at iteration %llu%s\n",
                Config.PlateauWindow,
                static_cast<unsigned long long>(R.PlateauAt),
                Config.StopOnPlateau ? " (campaign stopped)" : "");
  if (A.has("frontier")) {
    if (!R.Frontier) {
      std::fprintf(stderr,
                   "note: %s tracks no coverage; skipping the frontier "
                   "census\n",
                   fuzzAlgorithmName(R.Algo));
    } else {
      std::string Census = R.Frontier->renderCensusJsonl();
      if (!writeFile(A.get("frontier"),
                     Bytes(Census.begin(), Census.end()))) {
        std::fprintf(stderr, "cannot write %s\n",
                     A.get("frontier").c_str());
        return 1;
      }
      std::printf("frontier: %zu stmts, %zu branches (%zu rare at "
                  "threshold %llu) -> %s\n",
                  R.Frontier->distinctStmts(),
                  R.Frontier->distinctBranches(),
                  R.Frontier->rareBranches().size(),
                  static_cast<unsigned long long>(
                      R.Frontier->rareThreshold()),
                  A.get("frontier").c_str());
    }
  }

  std::fprintf(stderr, "differential testing %zu test classfiles...\n",
               R.numTests());
  auto Tester = DifferentialTester::withTieredProfiles(
      R.corpusClassPath(), EnvironmentMode::PerJvm, *Tier, Config.TierDiff);

  CampaignEnvSpec EnvSpec;
  EnvSpec.RngSeed = Config.RngSeed;
  EnvSpec.NumSeeds = Config.NumSeeds;
  EnvSpec.SeedDir = A.get("seed-dir");
  EnvSpec.ReferencePolicyName = Config.ReferencePolicy.Name;
  EnvSpec.TierName = execTierName(*Tier);
  EnvSpec.TierDiff = Config.TierDiff;

  // Fan-out: every TestClass's difftest runs on the --jobs pool (the
  // tester is thread-safe and defers its events), and the walk below
  // consumes the outcomes in class order. Stats, records, flight and
  // trace events, reductions and bundles are therefore the same for any
  // --jobs value.
  ThreadPool Workers(Jobs);
  std::vector<std::future<DiffOutcome>> Outcomes;
  Outcomes.reserve(R.TestClassIndices.size());
  for (size_t I : R.TestClassIndices)
    Outcomes.push_back(Workers.submit(
        [&Tester, &Name = R.GenClasses[I].Name] {
          return Tester.testClass(Name);
        }));

  DiffStats Stats;
  std::vector<DiscrepancyRecord> Records;
  std::vector<size_t> DiscrepancyIndices;
  size_t IncidentIndex = 0;
  for (size_t K = 0; K != R.TestClassIndices.size(); ++K) {
    const size_t I = R.TestClassIndices[K];
    const GeneratedClass &G = R.GenClasses[I];
    DiffOutcome O = Outcomes[K].get();
    O.commit();
    Stats.add(O);
    bool Discrepancy = O.isDiscrepancy();
    if (Discrepancy) {
      Records.push_back(
          {G.Name, O, extendedMutatorRegistry()[G.MutatorIndex].Description});
      DiscrepancyIndices.push_back(I);
    }
    if (IncidentsDir.empty() || (!Discrepancy && !O.anyInternalError()))
      continue;

    Incident Inc;
    Inc.MutantName = G.Name;
    Inc.MutantData = G.Data;
    Inc.Outcome = O;
    for (const ProfileDesc &P : Tester.profiles()) {
      Inc.ProfileNames.push_back(P.Name);
      Inc.ProfileTiers.push_back(execTierName(P.Tier));
    }
    Inc.Prov = G.Prov;
    Inc.Env = EnvSpec;
    if (Discrepancy && A.has("reduce")) {
      // Shrink while preserving the discrepancy category; the candidate
      // overlay shadows the corpus copy of the mutant. The oracle's
      // DiffOutcomes are never committed, so of the probes only the
      // reducer's own reducer_query/reducer_kept events reach the
      // bundled flightrec.jsonl tail.
      const std::string Target = O.encodedString();
      ReductionOracle Oracle = [&](const std::string &Name,
                                   const Bytes &Candidate) {
        return Tester.testClass(Name, Candidate).encodedString() == Target;
      };
      if (auto Reduced = reduceClassfile(G.Data, Oracle)) {
        Inc.Reduced = Reduced.take();
        Inc.HasReduced = true;
      }
    }
    auto Bundle = writeIncidentBundle(IncidentsDir, IncidentIndex++, Inc);
    if (!Bundle)
      std::fprintf(stderr, "incident: %s\n", Bundle.error().c_str());
    else
      std::fprintf(stderr, "incident: wrote %s\n", Bundle->c_str());
  }
  if (!IncidentsDir.empty())
    std::printf("wrote %zu incident bundles under %s\n", IncidentIndex,
                IncidentsDir.c_str());

  // Self-check oracle: every latched predict-vs-observe mismatch of the
  // static analyzer becomes its own bundle (prefix "selfcheck-"). The
  // campaign guarantees no disagreement goes unlatched, so an empty
  // SelfChecks list really means the analyzer's prediction held on
  // every produced mutant.
  if (Config.RunAnalysis && !R.SelfChecks.empty())
    std::fprintf(stderr,
                 "** %zu analyzer self-check mismatch(es) -- the static "
                 "analyzer and the VM disagree **\n",
                 R.SelfChecks.size());
  if (!AnalysisDir.empty()) {
    size_t SelfIndex = 0;
    for (const SelfCheckReport &SC : R.SelfChecks) {
      const GeneratedClass &G = R.GenClasses[SC.GenIndex];
      Incident Inc;
      Inc.SelfCheck = true;
      Inc.MutantName = G.Name;
      Inc.MutantData = G.Data;
      Inc.Outcome = Tester.testClass(G.Name);
      Inc.Outcome.commit();
      for (const ProfileDesc &P : Tester.profiles()) {
        Inc.ProfileNames.push_back(P.Name);
        Inc.ProfileTiers.push_back(execTierName(P.Tier));
      }
      Inc.Prov = G.Prov;
      Inc.Env = EnvSpec;
      Inc.AnalysisJson = "{\"observed_phase\":" +
                         std::to_string(SC.ObservedPhase) +
                         ",\"observed\":\"" +
                         phaseCodeName(SC.ObservedPhase) +
                         "\",\"report\":" + SC.Report.toJson() + "}\n";
      auto Bundle = writeIncidentBundle(AnalysisDir, SelfIndex++, Inc);
      if (!Bundle)
        std::fprintf(stderr, "selfcheck: %s\n", Bundle.error().c_str());
      else
        std::fprintf(stderr, "selfcheck: wrote %s\n", Bundle->c_str());
    }
    std::printf("wrote %zu self-check bundles under %s\n", SelfIndex,
                AnalysisDir.c_str());
  }

  std::string Report =
      renderDiscrepancyReport(Tester.policies(), Records, Stats);
  std::string OutDir = A.get("out");
  if (OutDir.empty()) {
    std::fputs(Report.c_str(), stdout);
    return 0;
  }
  if (!writeFile(OutDir + "/report.md",
                 Bytes(Report.begin(), Report.end()))) {
    std::fprintf(stderr, "cannot write %s/report.md (does the directory "
                         "exist?)\n",
                 OutDir.c_str());
    return 1;
  }
  for (size_t I : DiscrepancyIndices) {
    const GeneratedClass &G = R.GenClasses[I];
    std::string Path = OutDir + "/" + G.Name + ".class";
    // Class names may carry package slashes; flatten for the filesystem.
    for (size_t P = OutDir.size() + 1; P < Path.size(); ++P)
      if (Path[P] == '/')
        Path[P] = '_';
    if (!writeFile(Path, G.Data))
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
  }
  std::printf("wrote %s/report.md and %zu discrepancy classfiles\n",
              OutDir.c_str(), DiscrepancyIndices.size());
  return 0;
}

/// `classfuzz replay BUNDLE_DIR`: re-derives the bundle's mutant from
/// lineage.json (rebuilding the seed corpus and class-name universe
/// from the recorded environment spec), byte-compares it against
/// mutant.class, and re-runs the differential test against the
/// recorded encoded sequence. Exit 0 iff both reproduce.
int cmdReplay(int Argc, char **Argv) {
  ArgParser A("classfuzz replay", "BUNDLE_DIR", withTelemetryFlags({}));
  int Exit = 0;
  if (!parseOrExit(A, Argc, Argv, Exit))
    return Exit;
  if (A.positional().empty()) {
    std::fputs(A.helpText().c_str(), stderr);
    return 2;
  }
  TelemetryCli Telem;
  if (!Telem.setup(A))
    return 1;
  const std::string Dir = A.positional()[0];

  auto Json = readFile(Dir + "/lineage.json");
  if (!Json) {
    std::fprintf(stderr, "%s\n", Json.error().c_str());
    return 1;
  }
  auto Parsed = parseLineageJson(std::string(Json->begin(), Json->end()));
  if (!Parsed) {
    std::fprintf(stderr, "%s\n", Parsed.error().c_str());
    return 1;
  }

  auto Seeds = rebuildSeedCorpus(Parsed->Spec);
  if (!Seeds) {
    std::fprintf(stderr, "cannot rebuild seed corpus: %s\n",
                 Seeds.error().c_str());
    return 1;
  }
  if (Parsed->Prov.RootSeedIndex >= Seeds->size()) {
    std::fprintf(stderr,
                 "root seed index %zu out of range (rebuilt %zu seeds); "
                 "environment mismatch?\n",
                 Parsed->Prov.RootSeedIndex, Seeds->size());
    return 1;
  }
  const SeedClass &Root = (*Seeds)[Parsed->Prov.RootSeedIndex];
  if (Root.Name != Parsed->Prov.RootSeedName) {
    std::fprintf(stderr,
                 "root seed %zu is %s, bundle recorded %s; environment "
                 "mismatch\n",
                 Parsed->Prov.RootSeedIndex, Root.Name.c_str(),
                 Parsed->Prov.RootSeedName.c_str());
    return 1;
  }

  // Typed steps (--typed-mutators campaigns) derive their hole lists
  // from the *base* environment -- reference runtime library + seed
  // corpus -- which the spec rebuilds exactly, so the provider below
  // re-derives every typed.* step's holes byte-for-byte. Cheap to set
  // up and invoked only for typed steps, so untyped bundles pay only
  // the environment copy.
  JvmPolicy ReplayRefPolicy = referenceJvmPolicy();
  if (!Parsed->Spec.ReferencePolicyName.empty())
    for (const JvmPolicy &P : allJvmPolicies())
      if (P.Name == Parsed->Spec.ReferencePolicyName)
        ReplayRefPolicy = P;
  ClassPath HoleBaseEnv = runtimeLibraryFor(ReplayRefPolicy);
  for (const SeedClass &Seed : *Seeds) {
    HoleBaseEnv.add(Seed.Name, Seed.Data);
    for (const auto &[Name, Data] : Seed.Helpers)
      HoleBaseEnv.add(Name, Data);
  }
  HoleBaseEnv.freeze();
  StaticAnalyzer HoleAnalyzer(HoleBaseEnv, ReplayRefPolicy);
  auto Replayed = replayLineage(Root.Data, Parsed->Prov.Steps,
                                rebuildKnownClasses(Parsed->Spec, *Seeds),
                                [&](const Bytes &Data) {
                                  return HoleAnalyzer.typedHolesFor("", Data);
                                });
  if (!Replayed) {
    std::fprintf(stderr, "replay failed: %s\n", Replayed.error().c_str());
    return 1;
  }
  std::printf("replayed %s: %zu mutation steps -> %zu bytes\n",
              Replayed->ClassName.c_str(), Parsed->Prov.Steps.size(),
              Replayed->Data.size());

  int Result = 0;
  if (auto Mutant = readFile(Dir + "/mutant.class")) {
    if (*Mutant == Replayed->Data) {
      std::printf("mutant.class reproduced byte-identically\n");
    } else {
      std::fprintf(stderr,
                   "** replayed bytes differ from mutant.class (%zu vs "
                   "%zu bytes) **\n",
                   Replayed->Data.size(), Mutant->size());
      Result = 1;
    }
  } else {
    std::fprintf(stderr, "note: no mutant.class in bundle; skipping byte "
                         "comparison\n");
  }

  // The campaign's mutants only reference the fixed class-name universe
  // (runtime library + seeds + helpers) plus their own ancestors, so
  // this overlay reproduces the original differential environment.
  ClassPath Extra;
  for (const SeedClass &Seed : *Seeds) {
    Extra.add(Seed.Name, Seed.Data);
    for (const auto &[Name, Data] : Seed.Helpers)
      Extra.add(Name, Data);
  }
  for (const auto &[Name, Data] : Replayed->Ancestors)
    Extra.add(Name, Data);
  Extra.add(Replayed->ClassName, Replayed->Data);
  // Pre-tier bundles carry no tier field; warn and fall back to the
  // threaded default rather than refusing the replay.
  ExecTier ReplayTier = ExecTier::Threaded;
  if (Parsed->Spec.TierName.empty()) {
    std::fprintf(stderr, "note: bundle records no execution tier; "
                         "replaying on threaded\n");
  } else if (auto T = parseExecTier(Parsed->Spec.TierName)) {
    ReplayTier = *T;
  } else {
    std::fprintf(stderr,
                 "note: bundle records unknown tier \"%s\"; replaying on "
                 "threaded\n",
                 Parsed->Spec.TierName.c_str());
  }
  auto Tester = DifferentialTester::withTieredProfiles(
      Extra, EnvironmentMode::PerJvm, ReplayTier, Parsed->Spec.TierDiff);
  DiffOutcome O = Tester.testClass(Replayed->ClassName);
  O.commit();
  std::printf("encoded \"%s\"%s\n", O.encodedString().c_str(),
              O.isDiscrepancy() ? "  ** DISCREPANCY **" : "");
  for (size_t I = 0; I != O.Results.size(); ++I)
    std::printf("  %-22s %s\n", Tester.policies()[I].Name.c_str(),
                O.Results[I].toString().c_str());
  if (!Parsed->ExpectedEncoded.empty()) {
    if (O.encodedString() == Parsed->ExpectedEncoded) {
      std::printf("differential outcome reproduced (expected \"%s\")\n",
                  Parsed->ExpectedEncoded.c_str());
    } else {
      std::fprintf(stderr,
                   "** outcome differs from bundle (expected \"%s\") **\n",
                   Parsed->ExpectedEncoded.c_str());
      Result = 1;
    }
  }
  return Result;
}

int cmdRun(int Argc, char **Argv) {
  ArgParser A("classfuzz run", "FILE.class",
              withTelemetryFlags(
                  {{"env", "JRE",
                    "shared runtime environment: jre5|jre7|jre8|jre9 "
                    "(default: per-JVM)",
                    ""},
                   {"tier", "T",
                    "execution tier: threaded|baseline",
                    "threaded"}}));
  int Exit = 0;
  if (!parseOrExit(A, Argc, Argv, Exit))
    return Exit;
  if (A.positional().empty()) {
    std::fputs(A.helpText().c_str(), stderr);
    return 2;
  }
  TelemetryCli Telem;
  if (!Telem.setup(A))
    return 1;
  auto Data = readFile(A.positional()[0]);
  if (!Data) {
    std::fprintf(stderr, "%s\n", Data.error().c_str());
    return 1;
  }
  auto CF = parseClassFile(*Data);
  if (!CF) {
    std::fprintf(stderr, "parse error: %s\n", CF.error().c_str());
    return 1;
  }
  ClassPath Corpus;
  Corpus.add(CF->ThisClass, *Data);
  std::string Env = A.get("env");
  auto RunTier = parseExecTier(A.get("tier"));
  if (!RunTier) {
    std::fprintf(stderr,
                 "unknown --tier %s (expected threaded|baseline)\n",
                 A.get("tier").c_str());
    return 2;
  }
  auto Tester = Env.empty()
                    ? DifferentialTester::withTieredProfiles(
                          Corpus, EnvironmentMode::PerJvm, *RunTier, false)
                    : DifferentialTester::withTieredProfiles(
                          Corpus, EnvironmentMode::Shared, *RunTier, false,
                          Env);
  DiffOutcome O = Tester.testClass(CF->ThisClass);
  O.commit();
  std::printf("encoded \"%s\"%s\n", O.encodedString().c_str(),
              O.isDiscrepancy() ? "  ** DISCREPANCY **" : "");
  for (size_t I = 0; I != O.Results.size(); ++I) {
    std::printf("  %-22s %s\n", Tester.policies()[I].Name.c_str(),
                O.Results[I].toString().c_str());
    for (const std::string &Line : O.Results[I].Output)
      std::printf("      > %s\n", Line.c_str());
  }
  return 0;
}

int cmdInspect(int Argc, char **Argv) {
  ArgParser A("classfuzz inspect", "FILE.class", {});
  int Exit = 0;
  if (!parseOrExit(A, Argc, Argv, Exit))
    return Exit;
  if (A.positional().empty()) {
    std::fputs(A.helpText().c_str(), stderr);
    return 2;
  }
  auto Data = readFile(A.positional()[0]);
  if (!Data) {
    std::fprintf(stderr, "%s\n", Data.error().c_str());
    return 1;
  }
  auto CF = parseClassFile(*Data);
  if (!CF) {
    std::fprintf(stderr, "parse error: %s\n", CF.error().c_str());
    return 1;
  }
  std::fputs(printClassFile(*CF).c_str(), stdout);
  auto J = lowerToJir(*CF);
  if (J)
    std::fputs(printJir(*J).c_str(), stdout);
  return 0;
}

int cmdReduce(int Argc, char **Argv) {
  ArgParser A("classfuzz reduce", "FILE.class",
              withTelemetryFlags(
                  {{"out", "FILE",
                    "output path (default: FILE.class.reduced)", ""},
                   {"max-queries", "N", "oracle query budget", "10000"},
                   {"no-chunks", "",
                    "disable chunked HDD (one-element-at-a-time "
                    "baseline)",
                    ""}}));
  int Exit = 0;
  if (!parseOrExit(A, Argc, Argv, Exit))
    return Exit;
  if (A.positional().empty()) {
    std::fputs(A.helpText().c_str(), stderr);
    return 2;
  }
  TelemetryCli Telem;
  if (!Telem.setup(A))
    return 1;
  auto Data = readFile(A.positional()[0]);
  if (!Data) {
    std::fprintf(stderr, "%s\n", Data.error().c_str());
    return 1;
  }
  auto CF = parseClassFile(*Data);
  if (!CF) {
    std::fprintf(stderr, "parse error: %s\n", CF.error().c_str());
    return 1;
  }
  auto Tester = DifferentialTester::withAllProfiles(
      ClassPath(), EnvironmentMode::PerJvm);
  std::string Target =
      Tester.testClass(CF->ThisClass, *Data).encodedString();
  bool Constant = true;
  for (char C : Target)
    Constant &= C == Target[0];
  if (Constant) {
    std::fprintf(stderr,
                 "%s triggers no discrepancy (encoded \"%s\"); nothing "
                 "to preserve\n",
                 A.positional()[0].c_str(), Target.c_str());
    return 1;
  }
  std::printf("preserving discrepancy category \"%s\"\n", Target.c_str());
  ReductionOracle Oracle = [&](const std::string &Name,
                               const Bytes &Candidate) {
    return Tester.testClass(Name, Candidate).encodedString() == Target;
  };
  ReducerOptions Opts;
  Opts.MaxOracleQueries = static_cast<size_t>(A.getUnsigned("max-queries"));
  Opts.ChunkedHdd = !A.has("no-chunks");
  ReductionStats Stats;
  auto Reduced = reduceClassfile(*Data, Oracle, Opts, &Stats);
  if (!Reduced) {
    std::fprintf(stderr, "reduction failed: %s\n",
                 Reduced.error().c_str());
    return 1;
  }
  std::printf("reduced %zu -> %zu bytes (%zu oracle queries, %zu cache "
              "hits, %zu chunk deletions, %zu skipped pre-assembly%s)\n",
              Data->size(), Reduced->size(), Stats.OracleQueries,
              Stats.CacheHits, Stats.ChunkDeletionsKept,
              Stats.SkippedStructural + Stats.AssemblyFailures,
              Stats.BudgetExhausted ? ", budget exhausted" : "");
  std::string OutPath = A.has("out") ? A.get("out")
                                     : A.positional()[0] + ".reduced";
  if (!writeFile(OutPath, *Reduced)) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}

int cmdAnalyze(int Argc, char **Argv) {
  ArgParser A("classfuzz analyze", "FILE.class...",
              {{"print", "",
                "annotated javap-style output instead of JSON lines", ""},
               {"holes", "",
                "print the typed mutation holes (one JSON line per "
                "hole, sorted by location) instead of the analysis",
                ""},
               {"env", "JRE",
                "runtime library the analysis resolves against: "
                "jre5|jre7|jre8|jre9 (default: the reference JVM's, jre9)",
                ""}});
  int Exit = 0;
  if (!parseOrExit(A, Argc, Argv, Exit))
    return Exit;
  if (A.positional().empty()) {
    std::fputs(A.helpText().c_str(), stderr);
    return 2;
  }

  JvmPolicy Policy = referenceJvmPolicy();
  ClassPath Env = A.has("env") ? buildRuntimeLibrary(A.get("env"))
                               : runtimeLibraryFor(Policy);

  // Read and name every input up front and register all of them in the
  // environment before analyzing any: inputs may reference each other,
  // and the analyzer should see the same world for each class
  // regardless of argument order.
  struct Input {
    std::string Path;
    std::string Name;
    Bytes Data;
  };
  std::vector<Input> Inputs;
  for (const std::string &Path : A.positional()) {
    auto Data = readFile(Path);
    if (!Data) {
      std::fprintf(stderr, "%s\n", Data.error().c_str());
      return 1;
    }
    std::string Name;
    if (auto CF = parseClassFile(*Data))
      Name = CF->ThisClass;
    else
      Name = std::filesystem::path(Path).stem().string();
    Inputs.push_back({Path, Name, std::move(*Data)});
  }
  for (const Input &In : Inputs)
    Env.add(In.Name, In.Data);
  Env.freeze();

  StaticAnalyzer Analyzer(Env, Policy);
  int Ret = 0;
  for (const Input &In : Inputs) {
    if (A.has("holes")) {
      // The inputs are environment classes (registered above), so the
      // memoized extraction path serves them -- the same one campaign
      // seeds go through.
      std::fputs(holesToJsonl(In.Name, Analyzer.typedHoles(In.Name)).c_str(),
                 stdout);
      continue;
    }
    AnalysisReport Report = Analyzer.analyzeClass(In.Name, In.Data);
    if (A.has("print"))
      std::fputs(Analyzer.renderAnnotated(Report, In.Data).c_str(), stdout);
    else
      std::printf("%s\n", Report.toJson().c_str());
    if (Report.errorCount())
      Ret = 1;
  }
  return Ret;
}

int cmdSeeds(int Argc, char **Argv) {
  ArgParser A("classfuzz seeds", "",
              {{"out", "DIR", "directory to write the .class files into",
                ""},
               {"seeds", "N", "seed-corpus size", "8"},
               {"corpus-scale", "N",
                "multiply the corpus by N (each generator-table round "
                "sweeps a different structural shape)",
                "1"},
               {"rng", "N", "corpus RNG seed", "1"}});
  int Exit = 0;
  if (!parseOrExit(A, Argc, Argv, Exit))
    return Exit;
  if (!A.has("out")) {
    std::fputs(A.helpText().c_str(), stderr);
    return 2;
  }
  std::string Dir = A.get("out");
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", Dir.c_str(),
                 Ec.message().c_str());
    return 1;
  }
  Rng R(A.getUnsigned("rng"));
  const size_t SeedScale =
      std::max<size_t>(1, static_cast<size_t>(A.getUnsigned("corpus-scale")));
  auto Seeds = generateSeedCorpus(
      R, static_cast<size_t>(A.getUnsigned("seeds")) * SeedScale);
  size_t Written = 0;
  auto Dump = [&](const std::string &Name, const Bytes &Data) {
    // Seed names contain no '/', but keep the mapping safe anyway.
    std::string File = Name;
    std::replace(File.begin(), File.end(), '/', '.');
    std::string Path = Dir + "/" + File + ".class";
    if (!writeFile(Path, Data)) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      return false;
    }
    ++Written;
    return true;
  };
  for (const SeedClass &S : Seeds) {
    if (!Dump(S.Name, S.Data))
      return 1;
    for (const auto &[Name, Data] : S.Helpers)
      if (!Dump(Name, Data))
        return 1;
  }
  std::printf("wrote %zu classfiles (%zu seeds) under %s\n", Written,
              Seeds.size(), Dir.c_str());
  return 0;
}

/// `classfuzz report TIMESERIES.jsonl`: renders the campaign's
/// observability artifacts into a self-contained single-file HTML
/// report, or (with --progress-dash) tails the time series as a live
/// terminal dashboard until its "final" row lands.
int cmdReport(int Argc, char **Argv) {
  ArgParser A(
      "classfuzz report", "TIMESERIES.jsonl",
      {{"stats", "FILE",
        "--stats-json snapshot feeding the headline numbers and the "
        "mutator x phase heat grid",
        ""},
       {"frontier", "FILE",
        "frontier census JSONL feeding the rare-branch table", ""},
       {"out", "FILE", "HTML output path (\"-\" = stdout)",
        "report.html"},
       {"title", "T", "report title", ""},
       {"progress-dash", "",
        "live terminal dashboard instead of HTML: re-render every "
        "--interval seconds until the series' final row lands",
        ""},
       {"interval", "SECONDS", "refresh period for --progress-dash",
        "1"},
       {"once", "",
        "with --progress-dash, render a single frame and exit", ""}});
  int Exit = 0;
  if (!parseOrExit(A, Argc, Argv, Exit))
    return Exit;
  if (A.positional().empty()) {
    std::fputs(A.helpText().c_str(), stderr);
    return 2;
  }
  const std::string TsPath = A.positional()[0];

  if (A.has("progress-dash")) {
    const bool Once = A.has("once");
    const double Interval = std::max(0.1, A.getDouble("interval"));
    for (;;) {
      auto Data = readFile(TsPath);
      Result<telemetry::TimeSeriesData> Ts =
          Data ? telemetry::parseTimeSeries(
                     std::string(Data->begin(), Data->end()))
               : makeError(Data.error());
      // Home + clear per frame; the frame itself carries no cursor
      // control, so --once output pipes cleanly.
      if (!Once)
        std::printf("\x1b[H\x1b[2J");
      std::printf("%s", Ts ? telemetry::renderProgressDash(*Ts).c_str()
                           : ("waiting for " + TsPath + "...\n").c_str());
      std::fflush(stdout);
      if (Once || (Ts && Ts->SawFinal))
        return 0;
      std::this_thread::sleep_for(std::chrono::duration<double>(Interval));
    }
  }

  auto Data = readFile(TsPath);
  if (!Data) {
    std::fprintf(stderr, "%s\n", Data.error().c_str());
    return 1;
  }
  auto Ts =
      telemetry::parseTimeSeries(std::string(Data->begin(), Data->end()));
  if (!Ts) {
    std::fprintf(stderr, "%s: %s\n", TsPath.c_str(), Ts.error().c_str());
    return 1;
  }
  telemetry::ReportInputs Inputs;
  Inputs.Ts = Ts.take();
  if (A.has("title"))
    Inputs.Title = A.get("title");
  if (A.has("stats")) {
    auto Raw = readFile(A.get("stats"));
    if (!Raw) {
      std::fprintf(stderr, "%s\n", Raw.error().c_str());
      return 1;
    }
    auto Stats = json::parse(std::string(Raw->begin(), Raw->end()));
    if (!Stats) {
      std::fprintf(stderr, "%s: %s\n", A.get("stats").c_str(),
                   Stats.error().c_str());
      return 1;
    }
    Inputs.Stats = Stats.take();
  }
  if (A.has("frontier")) {
    auto Raw = readFile(A.get("frontier"));
    if (!Raw) {
      std::fprintf(stderr, "%s\n", Raw.error().c_str());
      return 1;
    }
    auto Census = telemetry::parseFrontierCensus(
        std::string(Raw->begin(), Raw->end()));
    if (!Census) {
      std::fprintf(stderr, "%s: %s\n", A.get("frontier").c_str(),
                   Census.error().c_str());
      return 1;
    }
    Inputs.Frontier = Census.take();
  }
  const std::string Html = telemetry::renderHtmlReport(Inputs);
  const std::string OutPath = A.get("out");
  if (OutPath == "-") {
    std::fputs(Html.c_str(), stdout);
    return 0;
  }
  if (!writeFile(OutPath, Bytes(Html.begin(), Html.end()))) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu bytes)\n", OutPath.c_str(), Html.size());
  return 0;
}

int cmdMutators(int Argc, char **Argv) {
  ArgParser A("classfuzz mutators", "", {});
  int Exit = 0;
  if (!parseOrExit(A, Argc, Argv, Exit))
    return Exit;
  std::printf("%zu mutators (%s):\n\n", mutatorRegistry().size(),
              "123 syntactic + 6 statement-level");
  for (const Mutator &Mu : mutatorRegistry())
    std::printf("%-34s %-14s %s\n", Mu.Id.c_str(), Mu.Category.c_str(),
                Mu.Description.c_str());
  const std::vector<Mutator> &Ext = extendedMutatorRegistry();
  std::printf("\n%zu typed mutators (--typed-mutators; analyzer-driven, "
              "hole-directed):\n\n",
              Ext.size() - mutatorRegistry().size());
  for (size_t I = mutatorRegistry().size(); I != Ext.size(); ++I)
    std::printf("%-34s %-14s %s\n", Ext[I].Id.c_str(),
                Ext[I].Category.c_str(), Ext[I].Description.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(stderr);
  std::string Cmd = Argv[1];
  if (Cmd == "--help" || Cmd == "-h" || Cmd == "help")
    return usage(stdout);
  if (Cmd == "fuzz")
    return cmdFuzz(Argc, Argv);
  if (Cmd == "replay")
    return cmdReplay(Argc, Argv);
  if (Cmd == "run")
    return cmdRun(Argc, Argv);
  if (Cmd == "inspect")
    return cmdInspect(Argc, Argv);
  if (Cmd == "analyze")
    return cmdAnalyze(Argc, Argv);
  if (Cmd == "reduce")
    return cmdReduce(Argc, Argv);
  if (Cmd == "seeds")
    return cmdSeeds(Argc, Argv);
  if (Cmd == "mutators")
    return cmdMutators(Argc, Argv);
  if (Cmd == "report")
    return cmdReport(Argc, Argv);
  std::fprintf(stderr, "classfuzz: unknown command '%s'\n", Cmd.c_str());
  return usage(stderr);
}
