// Smoke test for the LAFP_TRACE env knob and the Chrome trace exporter:
// arms tracing through the environment (before the tracer singleton is
// first touched), runs a representative corpus-style program on the Modin
// backend, and validates the exported JSON end to end — it must parse,
// contain at least one span per executed node, account every node's
// kernel morsels to descendant kernel spans, and show cross-thread
// attribution (partition-worker kernels pointing at their owning node).

#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "exec/backend.h"
#include "lazy/fat_dataframe.h"
#include "lazy/session.h"

namespace lafp {
namespace {

using trace::Tracer;

const std::string& TracePath() {
  static const std::string path =
      "/tmp/lafp_trace_smoke_" + std::to_string(::getpid()) + ".json";
  return path;
}

// Set LAFP_TRACE during static initialization, before any code touches
// Tracer::Global() — this is exactly how a user arms tracing for a binary
// they do not control.
const bool g_env_armed = [] {
  ::setenv("LAFP_TRACE", TracePath().c_str(), /*overwrite=*/1);
  return true;
}();

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser — enough to validate that the
// exporter emits well-formed JSON and to walk the traceEvents array.

struct JsonValue {
  enum Kind { kNull, kBool, kInt, kString, kArray, kObject };
  Kind kind = kNull;
  bool bool_value = false;
  int64_t int_value = 0;
  std::string string_value;
  std::vector<JsonValue> items;                // kArray
  std::map<std::string, JsonValue> fields;     // kObject

  const JsonValue* Field(const std::string& key) const {
    auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
  int64_t IntField(const std::string& key, int64_t missing) const {
    const JsonValue* v = Field(key);
    return (v != nullptr && v->kind == kInt) ? v->int_value : missing;
  }
  std::string StrField(const std::string& key) const {
    const JsonValue* v = Field(key);
    return (v != nullptr && v->kind == kString) ? v->string_value : "";
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->string_value);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }
  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    while (true) {
      std::string key;
      SkipSpace();
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->fields.emplace(std::move(key), std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }
  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->items.push_back(std::move(value));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }
  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            // Decode only enough for the exporter's control-char escapes.
            int code = std::stoi(text_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            *out += static_cast<char>(code);
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;  // unterminated
  }
  bool ParseKeyword(JsonValue* out) {
    auto match = [&](const char* kw) {
      size_t len = std::char_traits<char>::length(kw);
      if (text_.compare(pos_, len, kw) != 0) return false;
      pos_ += len;
      return true;
    };
    if (match("true")) {
      out->kind = JsonValue::kBool;
      out->bool_value = true;
      return true;
    }
    if (match("false")) {
      out->kind = JsonValue::kBool;
      out->bool_value = false;
      return true;
    }
    if (match("null")) {
      out->kind = JsonValue::kNull;
      return true;
    }
    return false;
  }
  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::kInt;
    out->int_value = std::stoll(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

TEST(TraceSmokeTest, EnvKnobArmsTracer) {
  ASSERT_TRUE(g_env_armed);
  EXPECT_TRUE(Tracer::Global()->enabled());
  EXPECT_EQ(Tracer::Global()->export_path(), TracePath());
}

TEST(TraceSmokeTest, CorpusProgramHasSpanPerNodeWithMorselAccounting) {
  Tracer* tracer = Tracer::Global();
  ASSERT_TRUE(tracer->enabled());
  tracer->Clear();

  std::string dir = ::testing::TempDir() + "trace_smoke";
  std::filesystem::create_directories(dir);
  std::string csv = dir + "/data.csv";
  {
    std::ofstream out(csv);
    out << "id,v,grp\n";
    for (int i = 0; i < 20000; ++i) {
      out << i << "," << (i % 500) << "," << (i % 7) << "\n";
    }
  }

  std::stringstream output;
  lazy::Session session(lazy::SessionOptions::Builder()
                            .backend(exec::BackendKind::kModin)
                            .threads(4)
                            .partition_rows(1024)
                            .output(&output)
                            .Build());
  auto frame = lazy::FatDataFrame::ReadCsv(&session, csv);
  ASSERT_TRUE(frame.ok());
  auto v = frame->Col("v");
  ASSERT_TRUE(v.ok());
  auto scaled = v->ArithScalar(df::ArithOp::kMul, df::Scalar::Int(3));
  ASSERT_TRUE(scaled.ok());
  auto shifted = scaled->ArithScalar(df::ArithOp::kAdd, df::Scalar::Int(1));
  ASSERT_TRUE(shifted.ok());
  auto eager = shifted->Compute();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();

  const lazy::ExecutionReport& report = session.last_report();
  ASSERT_FALSE(report.nodes.empty());

  std::string trace_file = dir + "/trace.json";
  ASSERT_TRUE(tracer->WriteChromeTrace(trace_file).ok());
  std::ifstream in(trace_file);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // The export parses as JSON with the trace_event envelope.
  JsonValue root;
  ASSERT_TRUE(JsonParser(text).Parse(&root)) << text.substr(0, 400);
  ASSERT_EQ(root.kind, JsonValue::kObject);
  const JsonValue* events = root.Field("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);
  ASSERT_FALSE(events->items.empty());

  // Index complete spans by id; collect node + kernel spans.
  struct SpanInfo {
    std::string name;
    std::string cat;
    int64_t parent = 0;
    int64_t tid = 0;
    int64_t node_id = -1;
    int64_t morsels = 0;
  };
  std::map<int64_t, SpanInfo> spans;
  for (const JsonValue& e : events->items) {
    ASSERT_EQ(e.kind, JsonValue::kObject);
    ASSERT_NE(e.Field("name"), nullptr);
    ASSERT_NE(e.Field("ph"), nullptr);
    const JsonValue* args = e.Field("args");
    ASSERT_NE(args, nullptr);
    if (e.StrField("ph") != "X") continue;
    int64_t id = args->IntField("span_id", 0);
    ASSERT_NE(id, 0);
    SpanInfo info;
    info.name = e.StrField("name");
    info.cat = e.StrField("cat");
    info.parent = args->IntField("parent", 0);
    info.tid = e.IntField("tid", 0);
    info.node_id = args->IntField("node_id", -1);
    info.morsels = args->IntField("morsels", 0);
    spans.emplace(id, info);
  }

  // Walk a span's parent chain to its owning node span (0 = none).
  auto owning_node = [&](int64_t id) -> int64_t {
    int64_t cursor = spans.count(id) ? spans[id].parent : 0;
    for (int hops = 0; hops < 16 && cursor != 0; ++hops) {
      auto it = spans.find(cursor);
      if (it == spans.end()) return 0;
      if (it->second.cat == "node") return cursor;
      cursor = it->second.parent;
    }
    return 0;
  };

  // >= 1 span per executed (non-reused) node, matched by node_id.
  std::map<int64_t, int64_t> node_span_by_node_id;
  for (const auto& [id, info] : spans) {
    if (info.cat == "node") node_span_by_node_id[info.node_id] = id;
  }
  for (const auto& n : report.nodes) {
    if (n.reused) continue;
    EXPECT_TRUE(node_span_by_node_id.count(static_cast<int64_t>(n.node_id)))
        << "no span for node " << n.node_id << " (" << n.op << ")";
  }

  // Every node's kernel morsels are fully accounted to descendant kernel
  // spans — including kernels that ran on Modin partition workers.
  std::map<int64_t, int64_t> morsel_sum;  // node span id -> kernel morsels
  bool cross_thread = false;
  for (const auto& [id, info] : spans) {
    if (info.cat != "kernel") continue;
    int64_t node = owning_node(id);
    if (node == 0) continue;
    morsel_sum[node] += info.morsels;
    if (info.tid != spans[node].tid) cross_thread = true;
  }
  int checked = 0;
  for (const auto& [id, info] : spans) {
    if (info.cat != "node" || info.morsels == 0) continue;
    ++checked;
    EXPECT_EQ(morsel_sum[id], info.morsels) << "node span " << id;
  }
  EXPECT_GT(checked, 0);
  // 20000 rows / 1024-row partitions: the arith kernels ran on partition
  // workers, so some kernel span must live on a different thread than its
  // owning node span.
  EXPECT_TRUE(cross_thread);

  // The partitioned CSV read emits one csv:parse span per partition,
  // parsed on the partition workers and owned by the read node.
  int parse_spans = 0;
  for (const auto& [id, info] : spans) {
    if (info.name != "csv:parse") continue;
    ++parse_spans;
    EXPECT_EQ(info.cat, "io");
    EXPECT_NE(owning_node(id), 0) << "csv:parse span " << id;
  }
  EXPECT_EQ(parse_spans, 20);  // ceil(20000 / 1024)

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lafp
