#pragma once

/// dpmerge::obs — spans, counters, flow reports, flight recorder, crash
/// diagnostics and profiling.
///
/// Umbrella header. The subsystem's layers:
///   - trace.h: Span (RAII scoped timer) and now_us, the one time source.
///   - stats.h: StatSink/StatScope (thread-local scoped counters), the one
///     counter store.
///   - flow_report.h: FlowReport/FlowScope — the per-stage breakdown
///     synth::run_flow emits and the benches serialise via --stats-json.
///   - provenance.h: DecisionLog/DecisionScope and the per-decision
///     delay/area Ledger — merge-decision provenance and critical-path
///     attribution (DESIGN.md, "Provenance & attribution").
///   - flight_recorder.h: the one event sink — always-on per-thread rings
///     feeding crash dumps, plus a capture mode whose one drain renders the
///     --trace Chrome trace, the --profile call tree and the --events JSONL
///     log (DESIGN.md §14).
///   - crash.h: SIGSEGV/SIGABRT/std::terminate/check-failure handlers
///     writing dpmerge-crash-<pid>.json (docs/CRASHDUMP.md).
///   - profiler.h: self/total call tree with p50/p99 and per-stage memory
///     deltas, rendered by the dpmerge-profile tool.
///   - memory.h: MemorySampler, the one RSS source in the tree.
///   - session.h: the shared --stats-json/--trace/--profile/... CLI parser
///     and the ArtifactSession writing every artifact at exit.
///
/// There is one build: every instrumentation site is always compiled in and
/// cheap at rest (one clock read and a lock-free ring write per span event,
/// one TLS load per stat hook; DESIGN.md §14).

#include "dpmerge/obs/crash.h"
#include "dpmerge/obs/flight_recorder.h"
#include "dpmerge/obs/flow_report.h"
#include "dpmerge/obs/json.h"
#include "dpmerge/obs/memory.h"
#include "dpmerge/obs/profiler.h"
#include "dpmerge/obs/provenance.h"
#include "dpmerge/obs/session.h"
#include "dpmerge/obs/stats.h"
#include "dpmerge/obs/trace.h"
