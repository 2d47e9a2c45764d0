#include "lazy/task_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>

namespace lafp::lazy {
namespace {

exec::OpDesc Desc(exec::OpKind kind) {
  exec::OpDesc d;
  d.kind = kind;
  return d;
}

TEST(TaskGraphTest, TopoSortDependenciesFirst) {
  TaskGraph graph;
  auto read = graph.NewNode(Desc(exec::OpKind::kReadCsv), {});
  auto col = graph.NewNode(Desc(exec::OpKind::kGetColumn), {read});
  auto cmp = graph.NewNode(Desc(exec::OpKind::kCompare), {col});
  auto filter = graph.NewNode(Desc(exec::OpKind::kFilter), {read, cmp});
  auto order = TaskGraph::TopoSort({filter});
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](const TaskNodePtr& n) {
    return std::find(order.begin(), order.end(), n) - order.begin();
  };
  EXPECT_LT(pos(read), pos(col));
  EXPECT_LT(pos(col), pos(cmp));
  EXPECT_LT(pos(cmp), pos(filter));
  EXPECT_LT(pos(read), pos(filter));
}

TEST(TaskGraphTest, TopoSortHandlesSharedDiamond) {
  TaskGraph graph;
  auto read = graph.NewNode(Desc(exec::OpKind::kReadCsv), {});
  auto a = graph.NewNode(Desc(exec::OpKind::kGetColumn), {read});
  auto b = graph.NewNode(Desc(exec::OpKind::kGetColumn), {read});
  auto join = graph.NewNode(Desc(exec::OpKind::kArith), {a, b});
  auto order = TaskGraph::TopoSort({join});
  EXPECT_EQ(order.size(), 4u);  // read appears once
  EXPECT_EQ(order.front().get(), read.get());
  EXPECT_EQ(order.back().get(), join.get());
}

TEST(TaskGraphTest, TopoSortMultipleRootsAndOrderDeps) {
  TaskGraph graph;
  auto read = graph.NewNode(Desc(exec::OpKind::kReadCsv), {});
  auto print1 = graph.NewNode(Desc(exec::OpKind::kPrint), {read});
  auto print2 = graph.NewNode(Desc(exec::OpKind::kPrint), {read});
  print2->order_deps.push_back(print1);  // §3.3 ordering edge
  auto order = TaskGraph::TopoSort({print2, print1});
  ASSERT_EQ(order.size(), 3u);
  auto pos = [&](const TaskNodePtr& n) {
    return std::find(order.begin(), order.end(), n) - order.begin();
  };
  EXPECT_LT(pos(print1), pos(print2));
}

TEST(TaskGraphTest, ConsumersTracksLiveNodesOnly) {
  TaskGraph graph;
  auto read = graph.NewNode(Desc(exec::OpKind::kReadCsv), {});
  auto keep = graph.NewNode(Desc(exec::OpKind::kGetColumn), {read});
  {
    auto temp = graph.NewNode(Desc(exec::OpKind::kHead), {read});
    EXPECT_EQ(graph.CountConsumers(read.get()), 2);
  }
  // temp dropped: only `keep` still consumes read.
  EXPECT_EQ(graph.CountConsumers(read.get()), 1);
  auto consumers = graph.Consumers(read.get());
  ASSERT_EQ(consumers.size(), 1u);
  EXPECT_EQ(consumers[0].get(), keep.get());
}

TEST(TaskGraphTest, LiveNodesCompacts) {
  TaskGraph graph;
  auto keep = graph.NewNode(Desc(exec::OpKind::kReadCsv), {});
  for (int i = 0; i < 100; ++i) {
    graph.NewNode(Desc(exec::OpKind::kHead), {});  // dropped immediately
  }
  auto live = graph.LiveNodes();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].get(), keep.get());
  EXPECT_EQ(graph.num_created(), 101);
}

TEST(TaskGraphTest, NodeIdsAreUniqueAndMonotonic) {
  TaskGraph graph;
  auto a = graph.NewNode(Desc(exec::OpKind::kReadCsv), {});
  auto b = graph.NewNode(Desc(exec::OpKind::kHead), {a});
  auto c = graph.NewNode(Desc(exec::OpKind::kHead), {b});
  EXPECT_LT(a->id, b->id);
  EXPECT_LT(b->id, c->id);
}

TEST(TaskGraphTest, DotOutputContainsNodesAndEdges) {
  TaskGraph graph;
  auto read = graph.NewNode(Desc(exec::OpKind::kReadCsv), {});
  auto head = graph.NewNode(Desc(exec::OpKind::kHead), {read});
  head->persist = true;
  exec::OpDesc contains = Desc(exec::OpKind::kStrContains);
  contains.str_arg = "say \"hi\"";
  auto mask = graph.NewNode(contains, {head});
  std::string dot = TaskGraph::ToDot({mask});
  EXPECT_NE(dot.find("read_csv"), std::string::npos);
  EXPECT_NE(dot.find("head"), std::string::npos);
  EXPECT_NE(dot.find("[persist]"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Labels quote their text: quotes inside an op's arguments are escaped.
  EXPECT_NE(dot.find("str_contains(say \\\"hi\\\")"), std::string::npos);
}

TEST(OpDescTest, FingerprintDistinguishesParameters) {
  exec::OpDesc a = Desc(exec::OpKind::kHead);
  a.n = 5;
  exec::OpDesc b = Desc(exec::OpKind::kHead);
  b.n = 10;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  exec::OpDesc c = Desc(exec::OpKind::kHead);
  c.n = 5;
  EXPECT_EQ(a.Fingerprint(), c.Fingerprint());

  exec::OpDesc cmp1 = Desc(exec::OpKind::kCompare);
  cmp1.has_scalar = true;
  cmp1.scalar = df::Scalar::Int(1);
  exec::OpDesc cmp2 = cmp1;
  cmp2.scalar = df::Scalar::Double(1.0);  // same repr, different type
  EXPECT_NE(cmp1.Fingerprint(), cmp2.Fingerprint());

  // Values that print alike ("0.0") must still key apart.
  cmp1.scalar = df::Scalar::Double(1e-7);
  cmp2.scalar = df::Scalar::Double(4e-7);
  EXPECT_NE(cmp1.Fingerprint(), cmp2.Fingerprint());
  cmp1.scalar = df::Scalar::Double(0.0);
  cmp2.scalar = df::Scalar::Double(-0.0);
  EXPECT_NE(cmp1.Fingerprint(), cmp2.Fingerprint());

  exec::OpDesc comma = Desc(exec::OpKind::kReadCsv);
  comma.path = "t.csv";
  exec::OpDesc semicolon = comma;
  semicolon.csv_options.delimiter = ';';
  EXPECT_NE(comma.Fingerprint(), semicolon.Fingerprint());
}

/// Sets each visited field (or only `only`) to a value that depends on
/// `variant`; variants 0 and 1 differ in every field.
struct FieldFiller {
  int variant = 0;
  std::optional<exec::OpField> only;

  template <typename T>
  void operator()(exec::OpField f, T& value) const {
    if (!only.has_value() || *only == f) Fill(&value);
  }

  std::string Tag(const char* prefix) const {
    return prefix + std::to_string(variant);
  }
  void Fill(std::string* v) const { *v = Tag("s"); }
  void Fill(std::vector<std::string>* v) const { *v = {"a", Tag("b")}; }
  void Fill(io::CsvReadOptions* v) const {
    v->usecols = {Tag("u")};
    v->dtypes = {{"d", df::DataType::kInt64}};
    v->delimiter = variant == 0 ? '|' : ';';
    v->nrows = 7;
    v->infer_rows = 9;
  }
  void Fill(io::LfcReadOptions* v) const {
    v->usecols = {"u"};
    v->nrows = 3;
    v->categories = {"c", Tag("k")};
    v->prune = {{Tag("p"), df::CompareOp::kLt, df::Scalar::Int(2)}};
    v->prune_enabled = false;
  }
  void Fill(df::CompareOp* v) const {
    *v = variant == 0 ? df::CompareOp::kNe : df::CompareOp::kGe;
  }
  void Fill(df::ArithOp* v) const {
    *v = variant == 0 ? df::ArithOp::kSub : df::ArithOp::kMod;
  }
  void Fill(bool* v) const { *v = variant != 0; }
  void Fill(df::Scalar* v) const {
    *v = df::Scalar::Double(0.5 + variant * 1e-9);
  }
  void Fill(std::vector<df::AggSpec>* v) const {
    *v = {{"c", df::AggFunc::kMean, Tag("o")}};
  }
  void Fill(df::AggFunc* v) const {
    *v = variant == 0 ? df::AggFunc::kMax : df::AggFunc::kNunique;
  }
  void Fill(std::vector<bool>* v) const { *v = {true, variant != 0}; }
  void Fill(df::JoinType* v) const {
    *v = variant == 0 ? df::JoinType::kInner : df::JoinType::kLeft;
  }
  void Fill(df::DataType* v) const {
    *v = variant == 0 ? df::DataType::kTimestamp : df::DataType::kCategory;
  }
  void Fill(df::DtField* v) const {
    *v = variant == 0 ? df::DtField::kHour : df::DtField::kDay;
  }
  void Fill(size_t* v) const { *v = 10 + variant; }
  void Fill(std::map<std::string, std::string>* v) const {
    *v = {{"k", Tag("t")}};
  }
  void Fill(std::vector<df::Scalar>* v) const {
    *v = {df::Scalar::Int(1), df::Scalar::String(Tag("z"))};
  }
  void Fill(int* v) const { *v = -3 - variant; }
};

exec::OpDesc Filled(exec::OpKind kind) {
  exec::OpDesc d = Desc(kind);
  exec::VisitFields(d, FieldFiller{});
  return d;
}

std::string Encode(const exec::OpDesc& d) {
  WireWriter w;
  exec::EncodeOpDesc(d, &w);
  return w.Take();
}

TEST(OpSchemaTest, EveryMeaningfulFieldRoundTripsAndKeys) {
  for (int k = 0; k <= static_cast<int>(exec::kLastOpKind); ++k) {
    const auto kind = static_cast<exec::OpKind>(k);
    const exec::OpTraits& traits = exec::Traits(kind);
    ASSERT_EQ(traits.kind, kind);
    const exec::OpDesc base = Filled(kind);
    const std::string bytes = Encode(base);
    EXPECT_EQ(bytes, base.Fingerprint()) << traits.name;

    WireReader r(bytes);
    exec::OpDesc decoded;
    ASSERT_TRUE(exec::DecodeOpDesc(&r, &decoded).ok()) << traits.name;
    EXPECT_TRUE(r.Done()) << traits.name;
    EXPECT_EQ(Encode(decoded), bytes) << traits.name;
    EXPECT_EQ(decoded.ToString(), base.ToString()) << traits.name;

    // Each meaningful field reaches the key (and so the wire): changing
    // it alone changes the bytes.
    for (int f = 0; f <= static_cast<int>(exec::OpField::kDigits); ++f) {
      const auto field = static_cast<exec::OpField>(f);
      if (!traits.Has(field)) continue;
      exec::OpDesc changed = base;
      exec::VisitFields(changed, FieldFiller{1, field});
      EXPECT_NE(changed.Fingerprint(), base.Fingerprint())
          << traits.name << "." << exec::OpFieldName(field);
    }
  }
}

TEST(OpSchemaTest, MalformedFragmentsFailCleanly) {
  for (int k = 0; k <= static_cast<int>(exec::kLastOpKind); ++k) {
    const std::string bytes = Encode(Filled(static_cast<exec::OpKind>(k)));
    for (size_t len = 0; len < bytes.size(); ++len) {
      WireReader r(std::string_view(bytes).substr(0, len));
      exec::OpDesc out;
      EXPECT_FALSE(exec::DecodeOpDesc(&r, &out).ok())
          << "kind " << k << " prefix " << len;
    }
  }
  // The first kind past the last (a retired kind's value) and a far one
  // fail the kind check itself, before any trait row is read.
  for (int kind : {static_cast<int>(exec::kLastOpKind) + 1, 0x7f}) {
    std::string unknown_kind = Encode(Desc(exec::OpKind::kAbs));
    unknown_kind[0] = static_cast<char>(kind);
    WireReader r(unknown_kind);
    exec::OpDesc out;
    const Status st = exec::DecodeOpDesc(&r, &out);
    EXPECT_EQ(st.code(), StatusCode::kIOError) << kind;
    EXPECT_NE(st.message().find("unknown op kind"), std::string::npos)
        << st.ToString();
  }
  std::string bad_enum = Encode(Filled(exec::OpKind::kCompare));
  bad_enum[4] = static_cast<char>(0xff);  // compare_op follows the kind
  WireReader r(bad_enum);
  exec::OpDesc out;
  EXPECT_EQ(exec::DecodeOpDesc(&r, &out).code(), StatusCode::kIOError);
}

// §3.6 category hints on an LFC scan are part of what the scan computes:
// they cross the wire, print, and split the CSE and cache keys.
TEST(OpSchemaTest, LfcCategoriesRoundTripAndKey) {
  exec::OpDesc plain = Desc(exec::OpKind::kReadLfc);
  plain.path = "t.lfc";
  plain.lfc_options.usecols = {"city", "fare"};
  exec::OpDesc hinted = plain;
  hinted.lfc_options.categories = {"city"};

  const std::string bytes = Encode(hinted);
  WireReader r(bytes);
  exec::OpDesc decoded;
  ASSERT_TRUE(exec::DecodeOpDesc(&r, &decoded).ok());
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(decoded.lfc_options.categories,
            std::vector<std::string>{"city"});
  EXPECT_NE(hinted.Fingerprint(), plain.Fingerprint());
  EXPECT_EQ(hinted.ToString(),
            "read_lfc(t.lfc, usecols=[city,fare], categories=[city])");
  EXPECT_EQ(plain.ToString(), "read_lfc(t.lfc, usecols=[city,fare])");
}

TEST(OpSchemaTest, ToStringRendersMeaningfulFields) {
  exec::OpDesc get = Desc(exec::OpKind::kGetColumn);
  get.column = "fare";
  EXPECT_EQ(get.ToString(), "get_item[fare]");

  exec::OpDesc cmp = Desc(exec::OpKind::kCompare);
  cmp.compare_op = df::CompareOp::kGt;
  EXPECT_EQ(cmp.ToString(), "compare(>)");
  cmp.has_scalar = true;
  cmp.scalar = df::Scalar::Int(5);
  EXPECT_EQ(cmp.ToString(), "compare(>, 5)");

  exec::OpDesc gb = Desc(exec::OpKind::kGroupByAgg);
  gb.columns = {"k"};
  gb.aggs = {{"v", df::AggFunc::kSum, "s"}};
  EXPECT_EQ(gb.ToString(), "groupby_agg([k], [sum(v)])");
}

TEST(OpDescTest, ExpectedArityMatchesShape) {
  EXPECT_EQ(exec::ExpectedArity(Desc(exec::OpKind::kReadCsv)), 0);
  EXPECT_EQ(exec::ExpectedArity(Desc(exec::OpKind::kHead)), 1);
  EXPECT_EQ(exec::ExpectedArity(Desc(exec::OpKind::kMerge)), 2);
  exec::OpDesc cmp = Desc(exec::OpKind::kCompare);
  EXPECT_EQ(exec::ExpectedArity(cmp), 2);
  cmp.has_scalar = true;
  EXPECT_EQ(exec::ExpectedArity(cmp), 1);
  EXPECT_EQ(exec::ExpectedArity(Desc(exec::OpKind::kPrint)), -1);
}

}  // namespace
}  // namespace lafp::lazy
