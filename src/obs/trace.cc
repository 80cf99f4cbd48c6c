#include "obs/trace.h"

#include "common/logging.h"
#include "obs/crash_state.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace mlcs::obs {

namespace {

std::atomic<bool> g_tracing_enabled{false};
std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint32_t> g_next_thread_index{1};

/// Per-trace span cap: a runaway plan (or a pathological query) cannot
/// grow a trace without bound. Further spans are dropped, counted in
/// `mlcs.trace.dropped_spans`, and warned once per trace.
constexpr size_t kMaxSpansPerTrace = 8192;

/// The thread's current trace state. `parent` is the span id new spans
/// nest under (maintained by ScopedSpan as scopes open and close).
struct TlsTrace {
  TraceContext* ctx = nullptr;
  uint32_t parent = 0;
};
thread_local TlsTrace tls_trace;

Counter* DroppedSpansCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("mlcs.trace.dropped_spans");
  return counter;
}

/// -- crash-visible per-thread span stacks -----------------------------------
///
/// Each thread that ever records a span claims one crash::ThreadSlot for
/// its lifetime; span begin/end push and pop fixed-size sanitized name
/// frames so the signal handler can print "what was every thread doing"
/// without touching any heap state.

/// Fixed-buffer copy with JSON-breaking bytes replaced — the crash
/// handler quotes these frames verbatim.
void CopyFrameName(char* dst, size_t cap, const std::string& src) {
  size_t n = 0;
  for (char c : src) {
    if (n + 1 >= cap) break;
    unsigned char u = static_cast<unsigned char>(c);
    dst[n++] = (u < 0x20 || c == '"' || c == '\\') ? ' ' : c;
  }
  dst[n] = '\0';
}

struct ThreadSlotHandle {
  crash::ThreadSlot* slot = nullptr;
  uint32_t index = 0;

  ThreadSlotHandle() {
    index = g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
    crash::CrashState& state = crash::GlobalCrashState();
    for (size_t i = 0; i < crash::kMaxThreadSlots; ++i) {
      uint32_t expected = 0;
      if (state.thread_slots[i].in_use.compare_exchange_strong(
              expected, 1, std::memory_order_acq_rel)) {
        slot = &state.thread_slots[i];
        slot->thread_index.store(index, std::memory_order_relaxed);
        slot->trace_id.store(0, std::memory_order_relaxed);
        slot->depth.store(0, std::memory_order_release);
        break;
      }
    }
    // All kMaxThreadSlots taken: this thread's stack is simply not
    // crash-visible (slot stays null; pushes no-op).
  }

  ~ThreadSlotHandle() {
    if (slot == nullptr) return;
    slot->depth.store(0, std::memory_order_relaxed);
    slot->trace_id.store(0, std::memory_order_relaxed);
    slot->in_use.store(0, std::memory_order_release);
  }
};

thread_local ThreadSlotHandle tls_thread_slot;

void PushThreadFrame(const std::string& name, uint64_t trace_id) {
  crash::ThreadSlot* slot = tls_thread_slot.slot;
  if (slot == nullptr) return;
  slot->trace_id.store(trace_id, std::memory_order_relaxed);
  uint32_t d = slot->depth.load(std::memory_order_relaxed);
  if (d < crash::kMaxSpanDepth) {
    CopyFrameName(slot->names[d], crash::kSpanNameBytes, name);
    slot->depth.store(d + 1, std::memory_order_release);
  } else {
    // Past the fixed depth only the counter grows; the handler clamps.
    slot->depth.store(d + 1, std::memory_order_relaxed);
  }
}

void PopThreadFrame() {
  crash::ThreadSlot* slot = tls_thread_slot.slot;
  if (slot == nullptr) return;
  uint32_t d = slot->depth.load(std::memory_order_relaxed);
  if (d > 0) slot->depth.store(d - 1, std::memory_order_relaxed);
}

}  // namespace

bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool enabled) {
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

bool TraceActive() { return tls_trace.ctx != nullptr; }

bool TraceCaptureEnabled() {
  return TracingEnabled() || FlightRecorder::RecordingEnabled();
}

uint32_t CurrentThreadIndex() { return tls_thread_slot.index; }

/// -- TraceContext -----------------------------------------------------------

TraceContext::TraceContext(std::string root_name, bool force) {
  if (!force && !TracingEnabled()) return;
  active_ = true;
  trace_id_ = g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
  root_name_ = std::move(root_name);
  start_ = std::chrono::steady_clock::now();
  // Constructor: not yet visible to other threads.
  spans_.reserve(16);  // lint:allow(guarded-access)
  prev_ctx_ = tls_trace.ctx;
  prev_parent_ = tls_trace.parent;
  tls_trace.ctx = this;
  tls_trace.parent = 1;  // children of the root span
  PushThreadFrame(root_name_, trace_id_);
}

TraceContext::~TraceContext() {
  if (!active_) return;
  PopThreadFrame();
  tls_trace.ctx = prev_ctx_;
  tls_trace.parent = prev_parent_;
  if (consumed_) return;
  std::vector<TraceSpan> spans;
  {
    MutexLock lock(&mutex_);
    spans = std::move(spans_);
  }
  TraceSpan root = MakeRootSpan();
  RecordedTrace rec;
  rec.trace_id = trace_id_;
  rec.root_name = root_name_;
  rec.query_text = std::move(query_text_);
  rec.plan_text = std::move(plan_text_);
  rec.duration_ms =
      std::chrono::duration<double, std::milli>(root.duration).count();
  rec.dropped_spans = dropped_.load(std::memory_order_relaxed);
  rec.truncated = rec.dropped_spans > 0;
  spans.push_back(std::move(root));
  rec.spans = std::move(spans);
  FlightRecorder::Global().AddTrace(std::move(rec));
}

double TraceContext::ElapsedMs() const {
  if (!active_) return 0.0;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void TraceContext::set_query_text(std::string sql) {
  if (!active_) return;
  query_text_ = std::move(sql);
}

void TraceContext::set_plan_text(std::string plan) {
  if (!active_) return;
  plan_text_ = std::move(plan);
}

uint64_t TraceContext::dropped_spans() const {
  return dropped_.load(std::memory_order_relaxed);
}

TraceSpan TraceContext::MakeRootSpan() const {
  TraceSpan root;
  root.trace_id = trace_id_;
  root.span_id = 1;
  root.parent_id = 0;
  root.tid = CurrentThreadIndex();
  root.name = root_name_;
  root.start_offset = std::chrono::nanoseconds{0};
  root.duration = std::chrono::steady_clock::now() - start_;
  uint64_t dropped = dropped_.load(std::memory_order_relaxed);
  if (dropped > 0) {
    // Per-trace attribution: the cap is visible on the trace itself, not
    // just as a process-wide counter.
    root.note = "truncated: dropped " + std::to_string(dropped) + " spans";
  }
  return root;
}

void TraceContext::Record(TraceSpan span) {
  span.trace_id = trace_id_;
  MutexLock lock(&mutex_);
  if (spans_.size() >= kMaxSpansPerTrace) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    DroppedSpansCounter()->Add(1);
    if (!dropped_warned_) {
      dropped_warned_ = true;
      MLCS_LOG(kWarn) << "trace span cap reached, dropping further spans "
                      << Kv("trace_id", trace_id_)
                      << Kv("cap", kMaxSpansPerTrace);
    }
    return;
  }
  spans_.push_back(std::move(span));
}

void TraceContext::RecordSpan(std::string name,
                              std::chrono::steady_clock::time_point start,
                              std::chrono::steady_clock::time_point end,
                              uint64_t rows_in, uint64_t rows_out,
                              uint64_t bytes) {
  if (!active_) return;
  TraceSpan span;
  span.span_id = NextSpanId();
  span.parent_id = 1;
  span.tid = CurrentThreadIndex();
  span.name = std::move(name);
  span.start_offset = start - start_;
  span.duration = end - start;
  span.rows_in = rows_in;
  span.rows_out = rows_out;
  span.bytes = bytes;
  Record(std::move(span));
}

std::vector<TraceSpan> TraceContext::ConsumeSpans() {
  if (!active_) return {};
  consumed_ = true;
  std::vector<TraceSpan> spans;
  {
    MutexLock lock(&mutex_);
    spans = std::move(spans_);
  }
  spans.push_back(MakeRootSpan());
  return spans;
}

/// -- ScopedTraceAttach ------------------------------------------------------

TraceParent CurrentTraceParent() {
  return TraceParent{tls_trace.ctx, tls_trace.parent};
}

ScopedTraceAttach::ScopedTraceAttach(TraceContext* ctx)
    : ScopedTraceAttach(TraceParent{ctx, 1}) {}

ScopedTraceAttach::ScopedTraceAttach(TraceParent parent)
    : saved_ctx_(tls_trace.ctx), saved_parent_(tls_trace.parent) {
  if (parent.ctx == nullptr || !parent.ctx->active()) return;
  attached_ = true;
  tls_trace.ctx = parent.ctx;
  tls_trace.parent = parent.span_id;
}

ScopedTraceAttach::~ScopedTraceAttach() {
  if (!attached_) return;
  tls_trace.ctx = saved_ctx_;
  tls_trace.parent = saved_parent_;
}

/// -- ScopedSpan -------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name) {
  if (tls_trace.ctx == nullptr) return;
  Begin(name);
}

ScopedSpan::ScopedSpan(std::string name) {
  if (tls_trace.ctx == nullptr) return;
  Begin(std::move(name));
}

ScopedSpan::ScopedSpan(const char* prefix, const std::string& suffix) {
  if (tls_trace.ctx == nullptr) return;
  Begin(std::string(prefix) + suffix);
}

void ScopedSpan::Begin(std::string name) {
  ctx_ = tls_trace.ctx;
  name_ = std::move(name);
  parent_ = tls_trace.parent;
  span_id_ = ctx_->NextSpanId();
  tls_trace.parent = span_id_;  // nested spans parent under this one
  PushThreadFrame(name_, ctx_->trace_id());
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (ctx_ == nullptr) return;
  auto end = std::chrono::steady_clock::now();
  PopThreadFrame();
  tls_trace.parent = parent_;
  TraceSpan span;
  span.span_id = span_id_;
  span.parent_id = parent_;
  span.tid = CurrentThreadIndex();
  span.name = std::move(name_);
  span.start_offset = start_ - ctx_->start_;
  span.duration = end - start_;
  span.rows_in = rows_in_;
  span.rows_out = rows_out_;
  span.bytes = bytes_;
  span.note = std::move(note_);
  span.op_token = op_token_;
  ctx_->Record(std::move(span));
}

}  // namespace mlcs::obs
