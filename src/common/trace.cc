#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace lafp::trace {

namespace {

/// Thread context. The shard pointer is per-thread state of the single
/// global tracer; the span id is the innermost installed span.
thread_local uint64_t tls_current_span = 0;
thread_local int tls_thread_id = 0;  // 0 = unassigned (ids start at 1)

std::atomic<int> g_next_thread_id{1};

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendArgsJson(std::string* out, const std::vector<EventArg>& args) {
  *out += "{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) *out += ",";
    *out += "\"";
    AppendJsonEscaped(out, args[i].key);
    *out += "\":";
    if (args[i].is_string) {
      *out += "\"";
      AppendJsonEscaped(out, args[i].string_value);
      *out += "\"";
    } else {
      *out += std::to_string(args[i].int_value);
    }
  }
  *out += "}";
}

void DumpGlobalAtExit() {
  Tracer* tracer = Tracer::Global();
  std::string path = tracer->export_path();
  if (path.empty()) return;
  // Best effort: exit-time dump has no caller to report to.
  (void)tracer->WriteChromeTrace(path);
  // Multi-session processes additionally get one sink per session
  // ("<path>.s<session id>.json"): the merged dump interleaves every
  // session, so concurrent sessions would otherwise have no per-session
  // artifact at all (and tools that post-process "the session's trace"
  // would read whichever session happened to dominate — effectively
  // last-writer-wins).
  std::vector<Event> events = tracer->Snapshot();
  std::vector<const Event*> session_roots;
  for (const Event& e : events) {
    if (e.category == "session" && e.parent_id == 0 && e.span_id != 0) {
      session_roots.push_back(&e);
    }
  }
  if (session_roots.size() < 2) return;
  for (const Event* root : session_roots) {
    int64_t session_id = static_cast<int64_t>(root->span_id);
    for (const EventArg& a : root->args) {
      if (a.key == "session_id" && !a.is_string) session_id = a.int_value;
    }
    (void)tracer->WriteChromeTraceForRoot(
        path + ".s" + std::to_string(session_id) + ".json", root->span_id);
  }
}

}  // namespace

Tracer::Tracer() : epoch_nanos_(SteadyNanos()) {}

Tracer* Tracer::Global() {
  // Leaky singleton: worker threads may record during static destruction.
  static Tracer* tracer = [] {
    auto* t = new Tracer();
    if (const char* env = std::getenv("LAFP_TRACE")) {
      if (env[0] != '\0') {
        t->set_enabled(true);
        t->set_export_path(env);
        std::atexit(DumpGlobalAtExit);
      }
    }
    return t;
  }();
  return tracer;
}

void Tracer::set_export_path(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  export_path_ = std::move(path);
}

std::string Tracer::export_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return export_path_;
}

int64_t Tracer::NowMicros() const {
  return (SteadyNanos() - epoch_nanos_) / 1000;
}

uint64_t Tracer::CurrentSpanId() { return tls_current_span; }

int Tracer::CurrentThreadId() {
  if (tls_thread_id == 0) {
    tls_thread_id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_thread_id;
}

Tracer::Shard* Tracer::ThisThreadShard() {
  // One shard per (thread, tracer). There is a single global tracer, so a
  // plain thread_local pointer suffices; shards are owned by the tracer
  // and survive thread exit (their events still export).
  thread_local Shard* shard = nullptr;
  if (shard == nullptr) {
    auto owned = std::make_unique<Shard>();
    shard = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(owned));
  }
  return shard;
}

void Tracer::Record(Event event) {
  event.tid = CurrentThreadId();
  Shard* shard = ThisThreadShard();
  std::lock_guard<std::mutex> lock(shard->mu);
  shard->events.push_back(std::move(event));
}

std::vector<Event> Tracer::Snapshot() const {
  std::vector<Event> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      merged.insert(merged.end(), shard->events.begin(),
                    shard->events.end());
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Event& a, const Event& b) {
    if (a.ts_micros != b.ts_micros) return a.ts_micros < b.ts_micros;
    return a.span_id < b.span_id;
  });
  return merged;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->events.clear();
  }
}

namespace {

/// Span ids of the subtree under `root` in `events`. Events are sorted by
/// start time and a parent span *starts* before its children, but it is
/// *recorded* at destruction — so a single forward pass over start-ordered
/// events sees every child after its parent's start, which is all
/// membership needs: iterate to a fixed point to stay robust against
/// clock-equal starts.
std::unordered_set<uint64_t> SubtreeMembers(const std::vector<Event>& events,
                                            uint64_t root) {
  std::unordered_set<uint64_t> members{root};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const Event& e : events) {
      if (e.span_id == 0 || members.count(e.span_id) > 0) continue;
      if (members.count(e.parent_id) > 0) {
        members.insert(e.span_id);
        grew = true;
      }
    }
  }
  return members;
}

/// A member span, or an instant parented inside the subtree.
bool InSubtree(const Event& e, const std::unordered_set<uint64_t>& members) {
  return members.count(e.span_id != 0 ? e.span_id : e.parent_id) > 0;
}

}  // namespace

std::vector<Event> Tracer::SnapshotSubtree(uint64_t root_span_id) const {
  std::vector<Event> events = Snapshot();
  if (root_span_id == 0) return {};
  const std::unordered_set<uint64_t> members =
      SubtreeMembers(events, root_span_id);
  std::vector<Event> out;
  for (Event& e : events) {
    if (InSubtree(e, members)) out.push_back(std::move(e));
  }
  return out;
}

void Tracer::EraseSubtree(uint64_t root_span_id) {
  if (root_span_id == 0) return;
  const std::unordered_set<uint64_t> members =
      SubtreeMembers(Snapshot(), root_span_id);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    std::vector<Event>& events = shard->events;
    events.erase(std::remove_if(events.begin(), events.end(),
                                [&](const Event& e) {
                                  return InSubtree(e, members);
                                }),
                 events.end());
  }
}

std::string Tracer::EventsToChromeJson(const std::vector<Event>& events) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, e.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(&out, e.category);
    out += "\",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    out += ",\"ts\":" + std::to_string(e.ts_micros);
    if (e.dur_micros >= 0) {
      out += ",\"ph\":\"X\",\"dur\":" + std::to_string(e.dur_micros);
    } else {
      out += ",\"ph\":\"i\",\"s\":\"t\"";
    }
    out += ",\"args\":";
    // Span identity rides in args: Chrome's nesting is per-tid only, and
    // the cross-thread parent link is exactly what we need to preserve.
    std::vector<EventArg> args;
    args.push_back(IntArg("span_id", static_cast<int64_t>(e.span_id)));
    args.push_back(IntArg("parent", static_cast<int64_t>(e.parent_id)));
    args.insert(args.end(), e.args.begin(), e.args.end());
    AppendArgsJson(&out, args);
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string Tracer::ChromeTraceJson() const {
  return EventsToChromeJson(Snapshot());
}

namespace {

Status WriteStringToFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open trace output " + path);
  }
  out << body;
  out.flush();
  if (!out.good()) return Status::IOError("failed writing trace " + path);
  return Status::OK();
}

}  // namespace

Status Tracer::WriteChromeTrace(const std::string& path) const {
  return WriteStringToFile(path, ChromeTraceJson());
}

Status Tracer::WriteChromeTraceForRoot(const std::string& path,
                                       uint64_t root_span_id) const {
  return WriteStringToFile(path,
                           EventsToChromeJson(SnapshotSubtree(root_span_id)));
}

namespace {

std::string RenderReportFromEvents(const std::vector<Event>& events) {
  // EXPLAIN ANALYZE-style tree: spans grouped under their parents,
  // children in start order, instants (faults) inline.
  std::unordered_map<uint64_t, std::vector<const Event*>> children;
  std::vector<const Event*> roots;
  for (const Event& e : events) {
    uint64_t parent = e.parent_id;
    bool parent_known = false;
    if (parent != 0) {
      for (const Event& p : events) {
        if (p.span_id == parent && p.dur_micros >= 0) {
          parent_known = true;
          break;
        }
      }
    }
    if (parent_known) {
      children[parent].push_back(&e);
    } else {
      roots.push_back(&e);
    }
  }
  std::ostringstream os;
  os << "trace report (" << events.size() << " events)\n";
  std::function<void(const Event*, int)> render = [&](const Event* e,
                                                      int depth) {
    for (int i = 0; i < depth; ++i) os << "  ";
    os << e->category << " " << e->name;
    if (e->dur_micros >= 0) {
      os << ": " << e->dur_micros << "us";
    } else {
      os << " @" << e->ts_micros << "us";
    }
    for (const EventArg& a : e->args) {
      os << " " << a.key << "=";
      if (a.is_string) {
        os << a.string_value;
      } else {
        os << a.int_value;
      }
    }
    os << " [tid " << e->tid << "]\n";
    if (e->span_id != 0) {
      auto it = children.find(e->span_id);
      if (it != children.end()) {
        for (const Event* c : it->second) render(c, depth + 1);
      }
    }
  };
  for (const Event* r : roots) render(r, 1);
  return os.str();
}

}  // namespace

std::string Tracer::RenderReport() const {
  return RenderReportFromEvents(Snapshot());
}

std::string Tracer::RenderReportForRoot(uint64_t root_span_id) const {
  return RenderReportFromEvents(SnapshotSubtree(root_span_id));
}

SpanContextScope::SpanContextScope(uint64_t span_id)
    : prev_(tls_current_span) {
  tls_current_span = span_id;
}

SpanContextScope::~SpanContextScope() { tls_current_span = prev_; }

Span::Span(std::string_view name, std::string_view category) {
  if (!Tracer::Global()->enabled()) return;
  Begin(name, category, tls_current_span, /*install=*/true);
}

Span::Span(std::string_view name, std::string_view category,
           uint64_t parent_id, bool install) {
  if (!Tracer::Global()->enabled()) return;
  Begin(name, category, parent_id, install);
}

void Span::Begin(std::string_view name, std::string_view category,
                 uint64_t parent_id, bool install) {
  Tracer* tracer = Tracer::Global();
  active_ = true;
  event_.name = std::string(name);
  event_.category = std::string(category);
  event_.span_id = tracer->NextSpanId();
  event_.parent_id = parent_id;
  event_.ts_micros = tracer->NowMicros();
  if (install) {
    installed_ = true;
    prev_current_ = tls_current_span;
    tls_current_span = event_.span_id;
  }
}

Span::~Span() {
  if (!active_) return;
  if (installed_) tls_current_span = prev_current_;
  Tracer* tracer = Tracer::Global();
  event_.dur_micros = tracer->NowMicros() - event_.ts_micros;
  tracer->Record(std::move(event_));
}

void Span::AddArg(std::string_view key, int64_t value) {
  if (!active_) return;
  event_.args.push_back(IntArg(key, value));
}

void Span::AddArg(std::string_view key, std::string_view value) {
  if (!active_) return;
  event_.args.push_back(StrArg(key, value));
}

void Instant(std::string_view name, std::string_view category,
             std::vector<EventArg> args) {
  Tracer* tracer = Tracer::Global();
  if (!tracer->enabled()) return;
  Event e;
  e.name = std::string(name);
  e.category = std::string(category);
  e.ts_micros = tracer->NowMicros();
  e.dur_micros = -1;
  e.parent_id = Tracer::CurrentSpanId();
  e.args = std::move(args);
  tracer->Record(std::move(e));
}

}  // namespace lafp::trace
