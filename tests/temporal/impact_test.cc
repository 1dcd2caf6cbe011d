#include "temporal/impact.h"

#include <gtest/gtest.h>

#include <set>

#include "obs/metrics.h"

namespace frappe::temporal {
namespace {

using graph::NodeId;
using model::NodeKind;

// Cross-version change-impact scenario:
//   v0:  main -> dispatch -> read_impl
//        logger (isolated)
//   v1:  read_impl's body changes (property bump), new write_impl added,
//        dispatch also calls write_impl.
// Expected: changed = {read_impl, write_impl, dispatch(due to new edge)};
// impacted = changed + their transitive callers = + {main}.
class ImpactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = std::make_unique<model::Schema>(
        model::Schema::Install(&store_.raw_store()));
    graph::TypeId fn = schema_->node_type(NodeKind::kFunction);
    graph::TypeId calls =
        schema_->edge_type(model::EdgeKind::kCalls);
    main_ = store_.AddNode(fn);
    dispatch_ = store_.AddNode(fn);
    read_impl_ = store_.AddNode(fn);
    logger_ = store_.AddNode(fn);
    store_.AddEdge(main_, dispatch_, calls);
    store_.AddEdge(dispatch_, read_impl_, calls);
    store_.CommitVersion();  // v0

    write_impl_ = store_.AddNode(fn);
    store_.AddEdge(dispatch_, write_impl_, calls);
    store_.SetNodeProperty(read_impl_,
                           store_.raw_store().InternKey("body_hash"),
                           graph::Value::Int(42));
    store_.CommitVersion();  // v1
  }

  VersionStore store_;
  std::unique_ptr<model::Schema> schema_;
  NodeId main_, dispatch_, read_impl_, logger_, write_impl_;
};

TEST_F(ImpactTest, ChangedFunctionsDetected) {
  auto report = ChangeImpact(store_, *schema_, 0, 1);
  ASSERT_TRUE(report.ok()) << report.status();
  std::set<NodeId> changed(report->changed_functions.begin(),
                           report->changed_functions.end());
  EXPECT_EQ(changed, (std::set<NodeId>{dispatch_, read_impl_, write_impl_}));
}

TEST_F(ImpactTest, ImpactIncludesTransitiveCallers) {
  auto report = ChangeImpact(store_, *schema_, 0, 1);
  ASSERT_TRUE(report.ok());
  std::set<NodeId> impacted(report->impacted_functions.begin(),
                            report->impacted_functions.end());
  EXPECT_TRUE(impacted.count(main_));
  EXPECT_TRUE(impacted.count(dispatch_));
  EXPECT_FALSE(impacted.count(logger_));
}

TEST_F(ImpactTest, NoChangeNoImpact) {
  store_.CommitVersion();  // v2 identical to v1
  auto report = ChangeImpact(store_, *schema_, 1, 2);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->changed_functions.empty());
  EXPECT_TRUE(report->impacted_functions.empty());
}

// Two removed functions, each with its own surviving caller: read_impl
// (called by dispatch) and log_impl (called by logger). dispatch and logger
// call each other, so each caller is also a transitive caller of the other
// and both land in the impact set, beside main.
TEST_F(ImpactTest, RemovedFunctionImplicatesSurvivingCallers) {
  graph::TypeId fn = schema_->node_type(NodeKind::kFunction);
  graph::TypeId calls = schema_->edge_type(model::EdgeKind::kCalls);
  NodeId log_impl = store_.AddNode(fn);
  store_.AddEdge(logger_, log_impl, calls);
  store_.AddEdge(logger_, dispatch_, calls);
  store_.AddEdge(dispatch_, logger_, calls);
  store_.CommitVersion();  // v2
  store_.RemoveNode(read_impl_);
  store_.RemoveNode(log_impl);
  store_.CommitVersion();  // v3
  auto report = ChangeImpact(store_, *schema_, 2, 3);
  ASSERT_TRUE(report.ok()) << report.status();
  // Each caller of a vanished callee is changed.
  EXPECT_EQ(std::set<NodeId>(report->changed_functions.begin(),
                             report->changed_functions.end()),
            (std::set<NodeId>{dispatch_, logger_}));
  EXPECT_EQ(std::set<NodeId>(report->impacted_functions.begin(),
                             report->impacted_functions.end()),
            (std::set<NodeId>{main_, dispatch_, logger_}));
}

// The `to` view lives for one call, so the impact slice is one kernel
// closure and builds no condensation.
TEST_F(ImpactTest, ImpactRunsTheKernelAndBuildsNoCondensation) {
  obs::Counter& runs = obs::Registry::Global().GetCounter("analytics.runs");
  obs::Counter& builds =
      obs::Registry::Global().GetCounter("analytics.condensations");
  const uint64_t runs_before = runs.Value();
  const uint64_t builds_before = builds.Value();
  ASSERT_TRUE(ChangeImpact(store_, *schema_, 0, 1).ok());
  EXPECT_EQ(runs.Value(), runs_before + 1);
  EXPECT_EQ(builds.Value(), builds_before);
}

TEST_F(ImpactTest, UncommittedVersionRejected) {
  EXPECT_FALSE(ChangeImpact(store_, *schema_, 0, 5).ok());
}

}  // namespace
}  // namespace frappe::temporal
