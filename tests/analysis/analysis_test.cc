// Tests for the direct-API use cases (search, navigation, slicing,
// debugging) against the shared paper fixture — each mirrors one of the
// paper's Section 4 scenarios and must agree with the FQL results in
// paper_queries_test.cc.

#include <gtest/gtest.h>

#include <set>

#include "analysis/debugging.h"
#include "analysis/navigation.h"
#include "analysis/search.h"
#include "analysis/slicing.h"
#include "extractor/synthetic.h"
#include "graph/csr_view.h"
#include "tests/query/fixture.h"

namespace frappe::analysis {
namespace {

using graph::NodeId;
using model::NodeKind;
using query::testing::PaperFixture;

class AnalysisTest : public ::testing::Test {
 protected:
  AnalysisTest()
      : index_(fixture_.graph.BuildNameIndex()),
        view_(fixture_.graph.view()),
        schema_(fixture_.graph.schema()) {}

  std::set<NodeId> ToSet(const std::vector<NodeId>& v) {
    return std::set<NodeId>(v.begin(), v.end());
  }

  PaperFixture fixture_;
  graph::NameIndex index_;
  const graph::GraphView& view_;
  const model::Schema& schema_;
};

// --- Code search (Section 4.1) ---

TEST_F(AnalysisTest, ModuleFilesFollowsBuildEdges) {
  auto files = ModuleFiles(view_, schema_, fixture_.wakeup_elf);
  EXPECT_EQ(ToSet(files), std::set<NodeId>{fixture_.wakeup_c});
}

TEST_F(AnalysisTest, SearchByNameOnly) {
  SearchQuery query;
  query.name = "id";
  auto results = CodeSearch(view_, schema_, index_, query);
  EXPECT_EQ(results.size(), 2u);
}

TEST_F(AnalysisTest, SearchConstrainedByModuleMatchesFigure3) {
  SearchQuery query;
  query.name = "id";
  query.kind = NodeKind::kField;
  query.module = fixture_.wakeup_elf;
  auto results = CodeSearch(view_, schema_, index_, query);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].node, fixture_.id_in_wakeup);
}

TEST_F(AnalysisTest, SearchWithWildcard) {
  SearchQuery query;
  query.name = "sr_*";
  auto results = CodeSearch(view_, schema_, index_, query);
  std::set<NodeId> nodes;
  for (const auto& r : results) nodes.insert(r.node);
  // "sr_*" matches the underscore names, not "sr.c" / "sr.elf".
  EXPECT_EQ(nodes, (std::set<NodeId>{fixture_.sr_media_change,
                                     fixture_.sr_do_ioctl}));
}

TEST_F(AnalysisTest, SearchFuzzy) {
  SearchQuery query;
  query.name = "sr_media_chnge~";  // missing 'a'
  auto results = CodeSearch(view_, schema_, index_, query);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].node, fixture_.sr_media_change);
}

TEST_F(AnalysisTest, SearchByGroup) {
  SearchQuery query;
  query.name = "packet_command";
  query.group = model::NodeGroup::kContainer;
  auto results = CodeSearch(view_, schema_, index_, query);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].node, fixture_.packet_command);
}

TEST_F(AnalysisTest, SearchLimit) {
  SearchQuery query;
  query.name = "*";
  query.limit = 3;
  auto results = CodeSearch(view_, schema_, index_, query);
  EXPECT_EQ(results.size(), 3u);
}

// --- Navigation (Section 4.2) ---

TEST_F(AnalysisTest, GoToDefinitionMatchesFigure4) {
  CursorPosition cursor{fixture_.NodeFile(), 104, 16};
  auto defs = GoToDefinition(view_, schema_, index_, "id", cursor);
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs[0], fixture_.id_in_sr);
}

TEST_F(AnalysisTest, GoToDefinitionWrongPositionFindsNothing) {
  CursorPosition cursor{fixture_.NodeFile(), 104, 17};
  EXPECT_TRUE(GoToDefinition(view_, schema_, index_, "id", cursor).empty());
}

TEST_F(AnalysisTest, FindReferencesListsReferenceEdgesOnly) {
  auto refs = FindReferences(view_, schema_, fixture_.cmd_field);
  // Two writes_member references; the `contains` edge from the struct is
  // structural and must be excluded.
  ASSERT_EQ(refs.size(), 2u);
  for (const auto& ref : refs) {
    EXPECT_EQ(ref.kind, model::EdgeKind::kWritesMember);
    EXPECT_TRUE(ref.use.valid());
  }
}

// --- Slicing (Section 4.4) ---

TEST_F(AnalysisTest, BackwardSliceIsFigure6Closure) {
  auto slice = BackwardSlice(view_, schema_, fixture_.sr_media_change);
  EXPECT_EQ(ToSet(slice),
            (std::set<NodeId>{fixture_.helper_a, fixture_.helper_b,
                              fixture_.get_sectorsize,
                              fixture_.sr_do_ioctl}));
}

TEST_F(AnalysisTest, ForwardSliceFindsCallers) {
  auto slice = ForwardSlice(view_, schema_, fixture_.sr_do_ioctl);
  EXPECT_EQ(ToSet(slice),
            (std::set<NodeId>{fixture_.helper_a, fixture_.helper_b,
                              fixture_.sr_media_change}));
}

TEST_F(AnalysisTest, SliceDepthLimit) {
  auto slice = BackwardSlice(view_, schema_, fixture_.sr_media_change, 1);
  EXPECT_EQ(ToSet(slice),
            (std::set<NodeId>{fixture_.helper_a, fixture_.helper_b,
                              fixture_.get_sectorsize}));
}

TEST_F(AnalysisTest, ImpactSetGeneralizesOverEdgeKinds) {
  // Forward impact over writes_member: who writes cmd.
  auto writers = ImpactSet(view_, schema_, {fixture_.cmd_field},
                           {model::EdgeKind::kWritesMember},
                           graph::Direction::kIn, 1);
  EXPECT_EQ(ToSet(writers),
            (std::set<NodeId>{fixture_.sr_do_ioctl, fixture_.stale_writer}));
}

// --- Debugging (Section 4.3) ---

TEST_F(AnalysisTest, SuspectWritesMatchFigure5) {
  auto suspects = FindSuspectWrites(view_, schema_,
                                    fixture_.sr_media_change,
                                    fixture_.get_sectorsize,
                                    fixture_.cmd_field,
                                    /*bounding_call_line=*/236);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0].writer, fixture_.sr_do_ioctl);
  EXPECT_EQ(suspects[0].write_line, 150);
}

TEST_F(AnalysisTest, SuspectWritesEmptyWhenBoundMissing) {
  auto suspects = FindSuspectWrites(view_, schema_,
                                    fixture_.sr_media_change,
                                    fixture_.get_sectorsize,
                                    fixture_.cmd_field,
                                    /*bounding_call_line=*/999);
  EXPECT_TRUE(suspects.empty());
}

TEST_F(AnalysisTest, SuspectWritesBoundExcludesLateCalls) {
  // With the bound at line 300 (helper_b's call site is at 300), both
  // paths are early enough, but stale_writer remains unreachable.
  auto all_calls = FindSuspectWrites(view_, schema_,
                                     fixture_.sr_media_change,
                                     fixture_.get_sectorsize,
                                     fixture_.cmd_field, 236);
  ASSERT_EQ(all_calls.size(), 1u);
}

// --- Kernel slices (the CSR counterparts of the slices above) ---

// On a generated kernel graph every kernel slice equals its store-walking
// counterpart. The calls pass a `threads` argument positionally, as the
// benchmark does, so a 0 there must never bind to max_depth.
TEST(ParallelSliceTest, MatchStoreWalkingSlices) {
  model::CodeGraph kernel;
  extractor::GraphScale scale;
  scale.factor = 0.01;
  extractor::GenerateKernelGraph(scale, &kernel);
  const graph::GraphView& view = kernel.view();
  const model::Schema& schema = kernel.schema();
  graph::CsrView csr = graph::CsrView::Build(view);

  std::vector<NodeId> functions;
  graph::TypeId fn_type = schema.node_type(NodeKind::kFunction);
  for (NodeId id = 0; id < view.NodeIdUpperBound(); id += 7) {
    if (view.NodeExists(id) && view.NodeType(id) == fn_type) {
      functions.push_back(id);
    }
  }
  ASSERT_GE(functions.size(), 20u);
  functions.resize(20);

  size_t nonempty = 0;
  for (NodeId fn : functions) {
    std::vector<NodeId> backward = BackwardSlice(view, schema, fn);
    nonempty += backward.empty() ? 0 : 1;
    EXPECT_EQ(ParallelBackwardSlice(csr, schema, fn, 0), backward) << fn;
    EXPECT_EQ(ParallelForwardSlice(csr, schema, fn, 0),
              ForwardSlice(view, schema, fn))
        << fn;
    EXPECT_EQ(ParallelBackwardSlice(csr, schema, fn, 0, 2),
              BackwardSlice(view, schema, fn, 2))
        << fn;
    EXPECT_EQ(ParallelForwardSlice(csr, schema, fn, 0, 1),
              ForwardSlice(view, schema, fn, 1))
        << fn;
  }
  EXPECT_GT(nonempty, 0u);

  const std::vector<model::EdgeKind> kinds = {model::EdgeKind::kCalls,
                                              model::EdgeKind::kReadsMember};
  for (graph::Direction dir : {graph::Direction::kIn, graph::Direction::kOut,
                               graph::Direction::kBoth}) {
    EXPECT_EQ(ParallelImpactSet(csr, schema, functions, kinds, dir, 0),
              ImpactSet(view, schema, functions, kinds, dir));
    EXPECT_EQ(ParallelImpactSet(csr, schema, functions, kinds, dir, 0, 2),
              ImpactSet(view, schema, functions, kinds, dir, 2));
  }
}

}  // namespace
}  // namespace frappe::analysis
