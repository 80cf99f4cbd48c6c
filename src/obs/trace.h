#ifndef MLCS_OBS_TRACE_H_
#define MLCS_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace mlcs::obs {

/// Per-query trace spans (DESIGN.md §10). A TraceContext is created at a
/// query or batch boundary and installed as the calling thread's current
/// context; ScopedSpan then records one completed span per instrumented
/// stage (parse → plan → optimize → each physical operator, UDF calls,
/// model-cache loads, serving batch/predict). Pool threads join a context
/// explicitly with ScopedTraceAttach — span collection is mutex-protected,
/// so morsel-parallel operators and concurrent serving batches stay
/// TSan-clean.
///
/// Zero-cost when off: contexts are only created when TracingEnabled()
/// (one relaxed atomic load), and every ScopedSpan constructor starts with
/// a plain thread-local null check — no clock reads, no allocation, no
/// atomics on the untraced path.

/// One completed span. Ids are per-trace: the root span is 1, parent 0.
struct TraceSpan {
  uint64_t trace_id = 0;
  uint32_t span_id = 0;
  uint32_t parent_id = 0;
  /// Small per-thread index (CurrentThreadIndex()) of the recording
  /// thread — the `tid` of the Chrome trace_event export, which is how a
  /// morsel-parallel operator's spans land on separate timeline rows.
  uint32_t tid = 0;
  std::string name;
  /// Offset from the trace's start, and the span's own wall time.
  std::chrono::nanoseconds start_offset{0};
  std::chrono::nanoseconds duration{0};
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t bytes = 0;
  /// Free-form per-span annotation (e.g. a stored scan's
  /// "blocks=8 skipped=6 ..."); rendered by EXPLAIN ANALYZE.
  std::string note;
  /// Identity of the plan node that produced this span (EXPLAIN ANALYZE
  /// matches annotations through it); never exported through SQL.
  const void* op_token = nullptr;
};

/// Process-wide enable flag for background tracing (mlcs_trace()).
/// EXPLAIN ANALYZE forces a context regardless.
bool TracingEnabled();
void SetTracingEnabled(bool enabled);

/// True when a query boundary should create a trace context: tracing is
/// on OR the always-on flight recorder is capturing completed traces.
/// (Implemented in trace.cc to keep this header free of the recorder.)
bool TraceCaptureEnabled();

/// True when the calling thread currently has a trace context installed —
/// the cheap gate instrumentation checks before building span names.
bool TraceActive();

/// Stable small index (1, 2, …) identifying the calling thread; assigned
/// on first use. Exported as the Chrome trace `tid` and the crash dump's
/// thread key — readable, unlike the 64-bit std::thread::id hash.
uint32_t CurrentThreadIndex();

class TraceContext;

/// A context and one of its open spans, captured on one thread so that
/// tasks on other threads can record spans under that span.
struct TraceParent {
  TraceContext* ctx = nullptr;
  uint32_t span_id = 0;
};

/// The calling thread's current context and innermost open span (the
/// root when none is open); a null context when the thread has none.
TraceParent CurrentTraceParent();

/// Attaches `ctx` (may be null → no-op) as the calling thread's current
/// context for the scope — how pool tasks contribute spans to the query or
/// batch that spawned them. New spans parent under the context's root, or
/// under the captured span of a TraceParent.
class ScopedTraceAttach {
 public:
  explicit ScopedTraceAttach(TraceContext* ctx);
  explicit ScopedTraceAttach(TraceParent parent);
  ~ScopedTraceAttach();
  ScopedTraceAttach(const ScopedTraceAttach&) = delete;
  ScopedTraceAttach& operator=(const ScopedTraceAttach&) = delete;

 private:
  TraceContext* saved_ctx_;
  uint32_t saved_parent_;
  bool attached_ = false;
};

/// Collects the spans of one trace. Construction installs the context on
/// the calling thread (saving any outer context; an EXPLAIN ANALYZE inside
/// a traced session shadows, then restores it). Destruction records the
/// root span and flushes everything to the global FlightRecorder — unless
/// the caller already took the spans with ConsumeSpans().
class TraceContext {
 public:
  /// `force` creates an active context even when TracingEnabled() is off
  /// (EXPLAIN ANALYZE). When inactive, the context installs nothing and
  /// every operation is a no-op.
  explicit TraceContext(std::string root_name, bool force = false);
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  bool active() const { return active_; }
  uint64_t trace_id() const { return trace_id_; }

  /// Wall time since construction — what Database::Query compares against
  /// the slow-query threshold before rendering plan text.
  double ElapsedMs() const;

  /// Query-level context carried into the flight recorder's RecordedTrace
  /// (no-ops when inactive). Plan text is set lazily, post-execution, and
  /// only for queries that crossed the slow threshold.
  void set_query_text(std::string sql);
  void set_plan_text(std::string plan);

  /// Spans this trace dropped at the kMaxSpansPerTrace cap (per-trace
  /// attribution; the global `mlcs.trace.dropped_spans` counter is the
  /// process aggregate).
  uint64_t dropped_spans() const;

  /// Records a completed span with explicit endpoints (e.g. the serving
  /// admission wait, whose start predates the batch's context).
  /// Thread-safe; no-op when inactive.
  void RecordSpan(std::string name,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end,
                  uint64_t rows_in = 0, uint64_t rows_out = 0,
                  uint64_t bytes = 0);

  /// Takes the collected spans (root span included, finalized as of now);
  /// the destructor then flushes nothing. EXPLAIN ANALYZE reads spans this
  /// way instead of via the sink.
  std::vector<TraceSpan> ConsumeSpans();

 private:
  friend class ScopedSpan;
  friend class ScopedTraceAttach;

  uint32_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void Record(TraceSpan span);
  TraceSpan MakeRootSpan() const;

  // Written once in the constructor on the owning thread, read-only while
  // pool threads are attached — only spans_/dropped_warned_ are shared
  // mutable state.
  bool active_ = false;           // lint:allow(guarded-member)
  bool consumed_ = false;         // lint:allow(guarded-member) owner-thread only
  uint64_t trace_id_ = 0;         // lint:allow(guarded-member)
  std::string root_name_;         // lint:allow(guarded-member)
  /// Owner-thread only, like root_name_.
  std::string query_text_;        // lint:allow(guarded-member)
  std::string plan_text_;         // lint:allow(guarded-member)
  std::chrono::steady_clock::time_point start_;  // lint:allow(guarded-member)
  std::atomic<uint32_t> next_span_id_{2};  // 1 is the root
  std::atomic<uint64_t> dropped_{0};
  Mutex mutex_{"TraceContext::mutex_"};
  std::vector<TraceSpan> spans_ MLCS_GUARDED_BY(mutex_);
  bool dropped_warned_ MLCS_GUARDED_BY(mutex_) = false;
  // Thread-local state saved at installation, restored at destruction.
  TraceContext* prev_ctx_ = nullptr;  // lint:allow(guarded-member)
  uint32_t prev_parent_ = 0;          // lint:allow(guarded-member)
};

/// RAII span: measures its own scope on the thread's current context.
/// Inactive (and nearly free) when no context is installed.
class ScopedSpan {
 public:
  /// The const char* form never materializes a string when inactive; use
  /// the (prefix, suffix) form for dynamic names — the concatenation only
  /// happens on the traced path.
  explicit ScopedSpan(const char* name);
  explicit ScopedSpan(std::string name);
  ScopedSpan(const char* prefix, const std::string& suffix);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return ctx_ != nullptr; }
  void set_rows_in(uint64_t n) { rows_in_ = n; }
  void set_rows_out(uint64_t n) { rows_out_ = n; }
  void set_bytes(uint64_t n) { bytes_ = n; }
  void set_note(std::string note) { note_ = std::move(note); }
  void set_op_token(const void* token) { op_token_ = token; }

 private:
  void Begin(std::string name);

  TraceContext* ctx_ = nullptr;
  uint32_t span_id_ = 0;
  uint32_t parent_ = 0;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
  uint64_t bytes_ = 0;
  std::string note_;
  const void* op_token_ = nullptr;
};

}  // namespace mlcs::obs

#endif  // MLCS_OBS_TRACE_H_
