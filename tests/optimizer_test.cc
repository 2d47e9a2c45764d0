#include "optimizer/passes.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "lazy/fat_dataframe.h"
#include "common/macros.h"
#include "optimizer/predicate.h"

namespace lafp::opt {
namespace {

using df::AggFunc;
using df::CompareOp;
using df::Scalar;
using exec::BackendKind;
using exec::OpKind;
using lazy::ExecutionMode;
using lazy::FatDataFrame;
using lazy::Session;
using lazy::SessionOptions;
using lazy::TaskGraph;
using lazy::TaskNodePtr;

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "opt_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/data.csv";
    std::ofstream out(csv_path_);
    out << "a,b,city\n";
    for (int i = 0; i < 60; ++i) {
      out << i << "," << (i * 2) << ","
          << (i % 3 == 0 ? "NY" : (i % 3 == 1 ? "SF" : "LA")) << "\n";
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Session> MakeSession(
      BackendKind backend = BackendKind::kPandas) {
    SessionOptions opts;
    opts.backend = backend;
    opts.mode = ExecutionMode::kLazy;
    opts.output = &output_;
    opts.tracker = &tracker_;
    return std::make_unique<Session>(opts);
  }

  std::string dir_, csv_path_;
  MemoryTracker tracker_{0};
  std::stringstream output_;
};

TEST_F(OptimizerTest, ExtractSimplePredicate) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto mask = frame->Col("a")->CompareTo(CompareOp::kGt, Scalar::Int(10));
  ASSERT_TRUE(mask.ok());
  auto pred = ExtractPredicate(mask->node(), frame->node());
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->kind, Predicate::Kind::kLeaf);
  EXPECT_EQ(pred->column, "a");
  EXPECT_EQ(pred->op.compare_op, CompareOp::kGt);
}

TEST_F(OptimizerTest, ExtractConjunctionAndNot) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto m1 = frame->Col("a")->CompareTo(CompareOp::kGt, Scalar::Int(5));
  auto m2 = frame->Col("city")->CompareTo(CompareOp::kEq,
                                          Scalar::String("NY"));
  auto both = m1->And(*m2);
  auto negated = both->Not();
  auto pred = ExtractPredicate(negated->node(), frame->node());
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->kind, Predicate::Kind::kNot);
  ASSERT_EQ(pred->children.size(), 1u);
  EXPECT_EQ(pred->children[0].kind, Predicate::Kind::kAnd);
  std::vector<std::string> cols;
  pred->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "city"}));
}

TEST_F(OptimizerTest, ExtractRejectsForeignAnchor) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto other = frame->Select({"a"});
  auto mask = other->Col("a")->CompareTo(CompareOp::kGt, Scalar::Int(1));
  // Anchored at `other`, not `frame`.
  EXPECT_FALSE(ExtractPredicate(mask->node(), frame->node()).has_value());
}

TEST_F(OptimizerTest, ExtractRejectsRuntimeScalarCompare) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto a = frame->Col("a");
  auto mean = a->Mean();
  auto mask = a->CompareLazy(CompareOp::kGt, *mean);
  EXPECT_FALSE(ExtractPredicate(mask->node(), frame->node()).has_value());
}

TEST_F(OptimizerTest, BuildMaskRoundTripsExtraction) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto m1 = frame->Col("a")->CompareTo(CompareOp::kLe, Scalar::Int(30));
  auto m2 = frame->Col("b")->CompareTo(CompareOp::kNe, Scalar::Int(4));
  auto orred = m1->Or(*m2);
  auto pred = ExtractPredicate(orred->node(), frame->node());
  ASSERT_TRUE(pred.has_value());
  TaskNodePtr rebuilt =
      BuildMask(session->graph(), *pred, frame->node());
  auto round_trip = ExtractPredicate(rebuilt, frame->node());
  ASSERT_TRUE(round_trip.has_value());
  EXPECT_EQ(round_trip->kind, Predicate::Kind::kOr);
}

/// The filter sits above set_item in the source program; after pushdown
/// the user-visible node must be the set_item and the filter must sit
/// directly on the read.
TEST_F(OptimizerTest, PushdownThroughSetItem) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto doubled = frame->Col("a")->ArithScalar(df::ArithOp::kMul,
                                              Scalar::Int(10));
  auto with_col = frame->SetCol("a10", *doubled);
  auto mask = with_col->Col("b")->CompareTo(CompareOp::kLt, Scalar::Int(20));
  auto filtered = with_col->FilterBy(*mask);
  ASSERT_TRUE(filtered.ok());

  PassStats stats;
  ASSERT_TRUE(
      PushDownPredicates(session.get(), {filtered->node()}, &stats).ok());
  EXPECT_EQ(stats.predicates_pushed, 1);
  // Filter moved below: the visible node is now the set_item.
  EXPECT_EQ(filtered->node()->desc.kind, OpKind::kSetColumn);
  EXPECT_EQ(filtered->node()->inputs[0]->desc.kind, OpKind::kFilter);

  auto eager = filtered->Compute();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(eager->frame.num_rows(), 10u);  // b<20 -> a in 0..9
  EXPECT_TRUE(eager->frame.HasColumn("a10"));
  EXPECT_EQ((*eager->frame.column("a10"))->IntAt(9), 90);
}

TEST_F(OptimizerTest, PushdownBlockedWhenPredicateUsesComputedColumn) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto doubled = frame->Col("a")->ArithScalar(df::ArithOp::kMul,
                                              Scalar::Int(10));
  auto with_col = frame->SetCol("a10", *doubled);
  auto mask =
      with_col->Col("a10")->CompareTo(CompareOp::kLt, Scalar::Int(100));
  auto filtered = with_col->FilterBy(*mask);
  PassStats stats;
  ASSERT_TRUE(
      PushDownPredicates(session.get(), {filtered->node()}, &stats).ok());
  EXPECT_EQ(stats.predicates_pushed, 0);  // a10 is computed by set_item
  EXPECT_EQ(filtered->node()->desc.kind, OpKind::kFilter);
}

TEST_F(OptimizerTest, PushdownThroughSortAndRename) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  // Intermediate handles are scoped like the temporaries of a chained
  // program (df.rename(...).sort_values(...)[pred]); a handle the program
  // still holds counts as a consumer and would pin the hop.
  Result<FatDataFrame> filtered = Status::Invalid("unset");
  {
    auto renamed = frame->Rename({{"a", "alpha"}});
    auto sorted = renamed->SortValues({"b"}, {false});
    auto mask =
        sorted->Col("alpha")->CompareTo(CompareOp::kLt, Scalar::Int(10));
    filtered = sorted->FilterBy(*mask);
  }
  PassStats stats;
  ASSERT_TRUE(
      PushDownPredicates(session.get(), {filtered->node()}, &stats).ok());
  // Two hops: below sort_values, then below rename (column mapped back to
  // "a").
  EXPECT_EQ(stats.predicates_pushed, 2);
  auto eager = filtered->Compute();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(eager->frame.num_rows(), 10u);
  EXPECT_TRUE(eager->frame.HasColumn("alpha"));
  // Sorted descending by b.
  EXPECT_EQ((*eager->frame.column("alpha"))->IntAt(0), 9);
}

TEST_F(OptimizerTest, PushdownBlockedByMultipleConsumers) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto sorted = frame->SortValues({"a"}, {true});
  auto mask = sorted->Col("a")->CompareTo(CompareOp::kGt, Scalar::Int(5));
  auto filtered = sorted->FilterBy(*mask);
  // Second consumer of the sorted node.
  auto head = sorted->Head(3);
  PassStats stats;
  ASSERT_TRUE(PushDownPredicates(session.get(),
                                 {filtered->node(), head->node()}, &stats)
                  .ok());
  EXPECT_EQ(stats.predicates_pushed, 0);
  EXPECT_EQ(filtered->node()->desc.kind, OpKind::kFilter);
}

TEST_F(OptimizerTest, PushdownRespectsDropDuplicatesSubset) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto dedup = frame->DropDuplicates({"city"});
  auto mask = dedup->Col("a")->CompareTo(CompareOp::kGt, Scalar::Int(0));
  auto filtered = dedup->FilterBy(*mask);
  PassStats stats;
  ASSERT_TRUE(
      PushDownPredicates(session.get(), {filtered->node()}, &stats).ok());
  // Predicate reads "a" which is outside the dedup subset {city}:
  // swapping would change which representative row survives.
  EXPECT_EQ(stats.predicates_pushed, 0);

  auto dedup_all = frame->DropDuplicates({});
  auto mask2 = dedup_all->Col("a")->CompareTo(CompareOp::kGt, Scalar::Int(0));
  auto filtered2 = dedup_all->FilterBy(*mask2);
  PassStats stats2;
  ASSERT_TRUE(
      PushDownPredicates(session.get(), {filtered2->node()}, &stats2).ok());
  EXPECT_EQ(stats2.predicates_pushed, 1);  // all-column dedup is safe
}

TEST_F(OptimizerTest, DeduplicateMergesIdenticalChains) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  // Two structurally identical aggregations.
  auto g1 = frame->GroupByAgg({"city"}, {{"a", AggFunc::kSum, "s"}});
  auto g2 = frame->GroupByAgg({"city"}, {{"a", AggFunc::kSum, "s"}});
  auto joined = g1->Merge(*g2, {"city"}, df::JoinType::kInner);
  PassStats stats;
  ASSERT_TRUE(
      DeduplicateNodes(session.get(), {joined->node()}, &stats).ok());
  EXPECT_EQ(stats.nodes_deduplicated, 1);
  EXPECT_EQ(joined->node()->inputs[0], joined->node()->inputs[1]);
  auto eager = joined->Compute();
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager->frame.num_rows(), 3u);
}

TEST_F(OptimizerTest, DeduplicateCountsExecutionsOnce) {
  auto session = MakeSession();
  InstallDefaultOptimizer(session.get());
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto g1 = frame->GroupByAgg({"city"}, {{"a", AggFunc::kSum, "s"}});
  auto g2 = frame->GroupByAgg({"city"}, {{"a", AggFunc::kSum, "s"}});
  auto joined = g1->Merge(*g2, {"city"}, df::JoinType::kInner);
  auto eager = joined->Compute();
  ASSERT_TRUE(eager.ok());
  // read + groupby + merge = 3 executions (not 2 groupbys).
  EXPECT_EQ(session->num_node_executions(), 3);
}

TEST_F(OptimizerTest, DeduplicateKeepsConstantsThatPrintAlike) {
  // 1e-7 and 4e-7 both display as "0.0"; the CSE key must hold the values.
  auto session = MakeSession();
  auto a = FatDataFrame::ReadCsv(session.get(), csv_path_)->Col("a");
  auto lo = a->ArithScalar(df::ArithOp::kAdd, Scalar::Double(1e-7));
  auto hi = a->ArithScalar(df::ArithOp::kAdd, Scalar::Double(4e-7));
  auto gap = hi->ArithCol(df::ArithOp::kSub, *lo);
  ASSERT_TRUE(gap.ok());
  PassStats stats;
  ASSERT_TRUE(DeduplicateNodes(session.get(), {gap->node()}, &stats).ok());
  EXPECT_EQ(stats.nodes_deduplicated, 0);
  auto max = gap->Max();
  ASSERT_TRUE(max.ok());
  auto value = max->Value();
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_GT(value->double_value(), 0.0);
}

TEST_F(OptimizerTest, RedundantHeadAndSelectCollapse) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto chained = frame->Head(10)->Head(20);
  ASSERT_TRUE(chained.ok());
  PassStats stats;
  ASSERT_TRUE(
      EliminateRedundantOps(session.get(), {chained->node()}, &stats).ok());
  EXPECT_EQ(stats.redundant_ops_removed, 1);
  EXPECT_EQ(chained->node()->desc.n, 10u);
  EXPECT_EQ(chained->node()->inputs[0]->desc.kind, OpKind::kReadCsv);

  auto sel = frame->Select({"a", "b"})->Select({std::vector<std::string>{"a"}});
  ASSERT_TRUE(sel.ok());
  PassStats stats2;
  ASSERT_TRUE(
      EliminateRedundantOps(session.get(), {sel->node()}, &stats2).ok());
  EXPECT_EQ(stats2.redundant_ops_removed, 1);
  auto eager = sel->Compute();
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager->frame.num_columns(), 1u);
}

TEST_F(OptimizerTest, HeadOfSortBecomesTopK) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto sorted = frame->SortValues({"city", "b"}, {false, true});
  auto top = sorted->Head(4);
  // A second consumer of the sort: it keeps its sort.
  auto rest = sorted->Select({std::vector<std::string>{"a"}});
  ASSERT_TRUE(top.ok() && rest.ok());
  PassStats stats;
  ASSERT_TRUE(EliminateRedundantOps(session.get(),
                                    {top->node(), rest->node()}, &stats)
                  .ok());
  EXPECT_EQ(stats.redundant_ops_removed, 1);
  EXPECT_EQ(rest->node()->inputs[0], sorted->node());
  const auto& desc = top->node()->desc;
  EXPECT_EQ(desc.kind, OpKind::kTopK);
  EXPECT_EQ(desc.columns, (std::vector<std::string>{"city", "b"}));
  EXPECT_EQ(desc.ascending, (std::vector<bool>{false, true}));
  EXPECT_EQ(desc.n, 4u);
  EXPECT_EQ(top->node()->inputs[0], frame->node());
  EXPECT_EQ(sorted->node()->desc.kind, OpKind::kSortValues);

  auto eager = top->Compute();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  // SF sorts first (descending), then b ascending: rows 1, 4, 7, 10.
  ASSERT_EQ(eager->frame.num_rows(), 4u);
  for (int64_t r = 0; r < 4; ++r) {
    EXPECT_EQ((*eager->frame.column("a"))->IntAt(r), 1 + 3 * r);
  }

  // An executed sort is left alone: its rows already exist.
  ASSERT_TRUE(sorted->Compute().ok());
  auto late = sorted->Head(2);
  PassStats stats2;
  ASSERT_TRUE(
      EliminateRedundantOps(session.get(), {late->node()}, &stats2).ok());
  EXPECT_EQ(stats2.redundant_ops_removed, 0);
  EXPECT_EQ(late->node()->desc.kind, OpKind::kHead);
}

TEST_F(OptimizerTest, DoubleNegationCollapses) {
  auto session = MakeSession();
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto mask = frame->Col("a")->CompareTo(CompareOp::kGt, Scalar::Int(10));
  auto nn = mask->Not()->Not();
  ASSERT_TRUE(nn.ok());
  PassStats stats;
  ASSERT_TRUE(
      EliminateRedundantOps(session.get(), {nn->node()}, &stats).ok());
  EXPECT_EQ(stats.redundant_ops_removed, 1);
  EXPECT_EQ(nn->node()->desc.kind, OpKind::kCompare);
}

/// Property check: for a pipeline exercising every pass, the optimized
/// result equals the unoptimized result on every backend.
class OptimizerEquivalenceTest
    : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "opt_eq_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/data.csv";
    std::ofstream out(csv_path_);
    out << "a,b,city\n";
    for (int i = 0; i < 300; ++i) {
      out << i << "," << (i % 17) << ","
          << (i % 3 == 0 ? "NY" : (i % 3 == 1 ? "SF" : "LA")) << "\n";
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Result<df::DataFrame> RunPipeline(bool optimized) {
    SessionOptions opts;
    opts.backend = GetParam();
    opts.backend_config.partition_rows = 64;
    opts.mode = ExecutionMode::kLazy;
    opts.tracker = &tracker_;
    Session session(opts);
    if (optimized) InstallDefaultOptimizer(&session);
    LAFP_ASSIGN_OR_RETURN(FatDataFrame frame,
                          FatDataFrame::ReadCsv(&session, csv_path_));
    LAFP_ASSIGN_OR_RETURN(FatDataFrame b, frame.Col("b"));
    LAFP_ASSIGN_OR_RETURN(FatDataFrame b3,
                          b.ArithScalar(df::ArithOp::kMul, Scalar::Int(3)));
    LAFP_ASSIGN_OR_RETURN(FatDataFrame with_col, frame.SetCol("b3", b3));
    LAFP_ASSIGN_OR_RETURN(FatDataFrame a_col, with_col.Col("a"));
    LAFP_ASSIGN_OR_RETURN(
        FatDataFrame m1, a_col.CompareTo(CompareOp::kLt, Scalar::Int(200)));
    LAFP_ASSIGN_OR_RETURN(FatDataFrame city_col, with_col.Col("city"));
    LAFP_ASSIGN_OR_RETURN(
        FatDataFrame m2,
        city_col.CompareTo(CompareOp::kNe, Scalar::String("LA")));
    LAFP_ASSIGN_OR_RETURN(FatDataFrame mask, m1.And(m2));
    LAFP_ASSIGN_OR_RETURN(FatDataFrame filtered, with_col.FilterBy(mask));
    std::vector<df::AggSpec> aggs{{"b3", AggFunc::kSum, "total"},
                                  {"a", AggFunc::kCount, "n"}};
    LAFP_ASSIGN_OR_RETURN(FatDataFrame grouped,
                          filtered.GroupByAgg({"city"}, aggs));
    return grouped.ToEager();
  }

  std::string dir_, csv_path_;
  MemoryTracker tracker_{0};
};

TEST_P(OptimizerEquivalenceTest, OptimizedMatchesUnoptimized) {
  auto plain = RunPipeline(false);
  auto optimized = RunPipeline(true);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_EQ(plain->CanonicalString(true), optimized->CanonicalString(true));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, OptimizerEquivalenceTest,
                         ::testing::Values(BackendKind::kPandas,
                                           BackendKind::kModin,
                                           BackendKind::kDask),
                         [](const auto& info) {
                           return exec::BackendKindName(info.param);
                         });

}  // namespace
}  // namespace lafp::opt
