#ifndef LAFP_COMMON_TRACE_H_
#define LAFP_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace lafp::trace {

/// One argument attached to a trace event ("rows_out": 500, "op": "head").
struct EventArg {
  std::string key;
  bool is_string = false;
  int64_t int_value = 0;
  std::string string_value;
};

inline EventArg IntArg(std::string_view key, int64_t value) {
  EventArg a;
  a.key = std::string(key);
  a.int_value = value;
  return a;
}

inline EventArg StrArg(std::string_view key, std::string_view value) {
  EventArg a;
  a.key = std::string(key);
  a.is_string = true;
  a.string_value = std::string(value);
  return a;
}

/// One recorded trace event: a completed span (dur_micros >= 0) or an
/// instant marker (dur_micros < 0, e.g. an injected fault). Span identity
/// and parentage are explicit (span_id / parent_id) so hierarchy survives
/// cross-thread execution: a kernel morsel batch run by a Modin partition
/// worker still points at the scheduler node that owns it.
struct Event {
  std::string name;
  std::string category;  // session|round|pass|node|task|kernel|io|fault|...
  int64_t ts_micros = 0;    // start, relative to the tracer epoch
  int64_t dur_micros = -1;  // -1 = instant event
  int tid = 0;              // dense per-process thread index
  uint64_t span_id = 0;     // 0 for instants
  uint64_t parent_id = 0;   // 0 = root
  std::vector<EventArg> args;
};

/// Low-overhead structured tracer (the observability layer, DESIGN.md
/// "Observability"). Disabled (the default) every instrumentation point
/// reduces to one relaxed atomic load; enabled, events are appended to
/// per-thread shards (one uncontended mutex each, merged on export).
///
/// Two exporters:
///   - WriteChromeTrace / ChromeTraceJson: Chrome trace_event JSON, load
///     in chrome://tracing or Perfetto for a flamegraph view;
///   - RenderReport: plain-text EXPLAIN ANALYZE-style tree (span
///     hierarchy with wall/kernel time, rows, fallback + fault events).
///
/// Enablement: Session options (ExecutionOptions::trace), explicitly via
/// set_enabled, or the LAFP_TRACE=<path> env knob — the first Global()
/// call arms it and registers an at-exit Chrome-JSON dump to <path>, so
/// any binary (tests, benches, lafp_fuzz) can ship trace artifacts.
class Tracer {
 public:
  /// Process-global tracer; first use arms LAFP_TRACE.
  static Tracer* Global();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Destination of the at-exit dump (empty = none armed).
  void set_export_path(std::string path);
  std::string export_path() const;

  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Append one event to the calling thread's shard.
  void Record(Event event);

  /// Merged view of every shard, ordered by (ts, span_id). Safe to call
  /// while other threads record (their shard lock serializes).
  std::vector<Event> Snapshot() const;

  /// The events of one span subtree (the root span, every span reachable
  /// through parent links, and instants parented inside it). This is the
  /// per-session view: pass a session span's id and get exactly that
  /// session's activity even when other sessions recorded concurrently.
  std::vector<Event> SnapshotSubtree(uint64_t root_span_id) const;

  /// Chrome trace_event JSON for an explicit event set (Snapshot or
  /// SnapshotSubtree output).
  static std::string EventsToChromeJson(const std::vector<Event>& events);

  /// Write one span subtree as Chrome trace JSON (per-session sinks: each
  /// traced session exports its own subtree to its own path, so
  /// concurrent sessions never clobber a shared dump).
  Status WriteChromeTraceForRoot(const std::string& path,
                                 uint64_t root_span_id) const;

  /// EXPLAIN ANALYZE-style report limited to one span subtree.
  std::string RenderReportForRoot(uint64_t root_span_id) const;

  /// Drop the events SnapshotSubtree(root_span_id) would return. For a
  /// finished subtree: events recorded into it meanwhile may stay.
  void EraseSubtree(uint64_t root_span_id);

  /// Drop every recorded event (shards stay registered).
  void Clear();

  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;
  std::string RenderReport() const;

  /// Microseconds since the tracer epoch (process start of tracing).
  int64_t NowMicros() const;

  /// The calling thread's innermost installed span (0 = none). This is
  /// the parent a new Span adopts, and the context captured into task
  /// closures for cross-thread attribution.
  static uint64_t CurrentSpanId();
  /// Dense id of the calling thread (assigned on first trace activity).
  static int CurrentThreadId();

 private:
  Tracer();

  struct Shard {
    std::mutex mu;
    std::vector<Event> events;
  };
  Shard* ThisThreadShard();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_span_id_{1};
  int64_t epoch_nanos_ = 0;
  mutable std::mutex mu_;  // shard registration + export path
  std::vector<std::unique_ptr<Shard>> shards_;
  std::string export_path_;
};

/// RAII installation of an explicit parent span id as the calling
/// thread's current context. Capture Tracer::CurrentSpanId() into a task
/// closure, install it on the worker, and spans opened there attribute to
/// the owning span even across pool threads.
class SpanContextScope {
 public:
  explicit SpanContextScope(uint64_t span_id);
  ~SpanContextScope();

  SpanContextScope(const SpanContextScope&) = delete;
  SpanContextScope& operator=(const SpanContextScope&) = delete;

 private:
  uint64_t prev_;
};

/// RAII span: records a complete event on destruction when the global
/// tracer is enabled at construction; otherwise fully inert. Installs
/// itself as the thread's current context (strict LIFO per thread).
class Span {
 public:
  /// Parent = the thread's current context.
  Span(std::string_view name, std::string_view category);
  /// Explicit parent (cross-thread or stored-span parenting). `install`
  /// controls whether this span becomes the thread's current context —
  /// pass false for spans whose lifetime is not LIFO on this thread
  /// (e.g. a session-lifetime span held as a member).
  Span(std::string_view name, std::string_view category, uint64_t parent_id,
       bool install);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void AddArg(std::string_view key, int64_t value);
  void AddArg(std::string_view key, std::string_view value);

  bool active() const { return active_; }
  /// This span's id (0 when the tracer was disabled at construction).
  uint64_t id() const { return active_ ? event_.span_id : 0; }

 private:
  void Begin(std::string_view name, std::string_view category,
             uint64_t parent_id, bool install);

  bool active_ = false;
  bool installed_ = false;
  uint64_t prev_current_ = 0;
  Event event_;
};

/// Record an instant event (no duration), e.g. an injected fault.
void Instant(std::string_view name, std::string_view category,
             std::vector<EventArg> args = {});

}  // namespace lafp::trace

#endif  // LAFP_COMMON_TRACE_H_
