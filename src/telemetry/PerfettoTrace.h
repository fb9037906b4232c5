//===- telemetry/PerfettoTrace.h - Chrome/Perfetto trace export ----------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Span collection for the --trace-perfetto exporter. Named PhaseTimers
/// (telemetry/Telemetry.h) append completed spans here when the
/// collector is armed; writeChromeTrace() renders them in the Chrome
/// trace-event JSON format, one track per thread lane, which
/// ui.perfetto.dev (and chrome://tracing) load directly. The campaign's
/// mutate/execute/commit spans stay on lane 0; with `fuzz --jobs N` the
/// post-campaign difftest spans land on N worker lanes.
///
/// Observation-only like the rest of telemetry: spans are appended
/// under a mutex at PhaseTimer granularity (microseconds to
/// milliseconds apart), never read back during the run, and the
/// collector is idle-free -- PhaseTimer::stop checks one relaxed atomic
/// before touching it.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_TELEMETRY_PERFETTOTRACE_H
#define CLASSFUZZ_TELEMETRY_PERFETTOTRACE_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace classfuzz {
namespace telemetry {

/// One completed span on a thread lane; times are steady-clock
/// nanoseconds.
struct TraceSpan {
  const char *Name; ///< Static string from the PhaseTimer site.
  uint32_t Lane;
  uint64_t StartNs;
  uint64_t EndNs;
};

/// Arms span collection (clears previously collected spans).
void enableSpanCollection();
/// Disarms and drops all collected spans.
void disableSpanCollection();

/// All spans collected since enableSpanCollection(), in completion
/// order.
std::vector<TraceSpan> collectedSpans();

/// Renders \p Spans as a Chrome trace-event JSON document:
/// {"traceEvents":[...]} with one complete ("ph":"X") event per span,
/// thread_name metadata per lane, and timestamps rebased to the
/// earliest span. Loads in ui.perfetto.dev.
std::string renderChromeTrace(const std::vector<TraceSpan> &Spans);

/// Convenience: renderChromeTrace(collectedSpans()) written to \p F.
/// Returns false when the write fails.
bool writeChromeTrace(std::FILE *F);

} // namespace telemetry
} // namespace classfuzz

#endif // CLASSFUZZ_TELEMETRY_PERFETTOTRACE_H
