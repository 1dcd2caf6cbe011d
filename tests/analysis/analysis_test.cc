// Tests for the direct-API use cases (search, navigation, slicing,
// debugging) against the shared paper fixture — each mirrors one of the
// paper's Section 4 scenarios and must agree with the FQL results in
// paper_queries_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>

#include "analysis/debugging.h"
#include "analysis/navigation.h"
#include "analysis/search.h"
#include "analysis/slicing.h"
#include "extractor/synthetic.h"
#include "graph/analytics.h"
#include "graph/csr_view.h"
#include "graph/traversal.h"
#include "obs/metrics.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::analysis {
namespace {

using graph::NodeId;
using model::NodeKind;
using query::testing::PaperFixture;

constexpr size_t kNoDepthLimit = std::numeric_limits<size_t>::max();

// Frontier-kernel runs so far in this process: a delta of 0 across a call
// pins it to the condensation.
uint64_t KernelRuns() {
  return obs::Registry::Global().GetCounter("analytics.runs").Value();
}

std::set<NodeId> ToSet(const std::vector<NodeId>& v) {
  return std::set<NodeId>(v.begin(), v.end());
}

class AnalysisTest : public ::testing::Test {
 protected:
  AnalysisTest()
      : index_(fixture_.graph.BuildNameIndex()),
        view_(fixture_.graph.view()),
        schema_(fixture_.graph.schema()) {}

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

// --- Kernel slices against the store-walking reference ---

// graph::TransitiveClosure walks the GraphView and never touches the
// packed adjacency, so it is the kernel-free reference for every slice.
std::vector<NodeId> Reference(const graph::GraphView& view,
                              const model::Schema& schema,
                              const std::vector<NodeId>& seeds,
                              const std::vector<model::EdgeKind>& kinds,
                              graph::Direction dir,
                              size_t max_depth = kNoDepthLimit) {
  std::vector<graph::TypeId> types;
  for (model::EdgeKind kind : kinds) types.push_back(schema.edge_type(kind));
  return graph::TransitiveClosure(
      view, seeds, graph::EdgeFilter::Of(std::move(types), dir), max_depth);
}

std::vector<NodeId> ReferenceFiles(const graph::GraphView& view,
                                   const model::Schema& schema, NodeId root,
                                   const std::vector<model::EdgeKind>& kinds) {
  std::vector<NodeId> files;
  for (NodeId n : Reference(view, schema, {root}, kinds,
                            graph::Direction::kOut)) {
    if (schema.node_kind(view.NodeType(n)) == NodeKind::kFile) {
      files.push_back(n);
    }
  }
  return files;
}

using WriteSet = std::set<std::pair<NodeId, int64_t>>;

// FindSuspectWrites spelled out over graph::TransitiveClosure.
WriteSet ReferenceSuspects(const graph::GraphView& view,
                           const model::Schema& schema, NodeId good,
                           NodeId bad, NodeId field, int64_t bound) {
  graph::TypeId calls = schema.edge_type(model::EdgeKind::kCalls);
  graph::KeyId line_key = schema.key(model::PropKey::kUseStartLine);
  bool bound_found = false;
  std::vector<NodeId> early;
  view.ForEachEdge(good, graph::Direction::kOut,
                   [&](graph::EdgeId e, NodeId target) {
                     graph::Value line = view.GetEdgeProperty(e, line_key);
                     if (view.GetEdge(e).type != calls || line.is_null()) {
                       return true;
                     }
                     bound_found |= target == bad && line.AsInt() == bound;
                     if (line.AsInt() <= bound) early.push_back(target);
                     return true;
                   });
  if (!bound_found) return {};
  std::set<NodeId> reach(early.begin(), early.end());
  for (NodeId n : Reference(view, schema, early, {model::EdgeKind::kCalls},
                            graph::Direction::kOut)) {
    reach.insert(n);
  }
  WriteSet out;
  graph::TypeId writes = schema.edge_type(model::EdgeKind::kWritesMember);
  view.ForEachEdge(field, graph::Direction::kIn,
                   [&](graph::EdgeId e, NodeId writer) {
                     if (view.GetEdge(e).type == writes &&
                         reach.count(writer) != 0) {
                       out.insert({writer,
                                   view.GetEdgeProperty(e, line_key).AsInt()});
                     }
                     return true;
                   });
  return out;
}

WriteSet Pairs(const std::vector<SuspectWrite>& suspects) {
  WriteSet out;
  for (const SuspectWrite& s : suspects) out.insert({s.writer, s.write_line});
  return out;
}

class KernelSliceTest : public ::testing::Test {
 protected:
  KernelSliceTest() {
    extractor::GraphScale scale;
    scale.factor = 0.01;
    extractor::GenerateKernelGraph(scale, &kernel_);
  }

  // Every `stride`-th live node of `kind`, at most `limit` of them.
  std::vector<NodeId> Sample(NodeKind kind, size_t stride, size_t limit) {
    std::vector<NodeId> out;
    graph::TypeId type = schema_.node_type(kind);
    for (NodeId id = 0; id < view_.NodeIdUpperBound() && out.size() < limit;
         id += stride) {
      if (view_.NodeExists(id) && view_.NodeType(id) == type) {
        out.push_back(id);
      }
    }
    return out;
  }

  model::CodeGraph kernel_;
  const graph::GraphView& view_ = kernel_.view();
  const model::Schema& schema_ = kernel_.schema();
};

// The calls pass a `threads` argument positionally, as the benchmark does,
// so a 0 there must never bind to max_depth.
TEST_F(KernelSliceTest, MatchStoreWalkingSlices) {
  using model::EdgeKind;
  const graph::Direction kIn = graph::Direction::kIn;
  const graph::Direction kOut = graph::Direction::kOut;
  graph::CsrView csr = graph::CsrView::Build(view_);
  std::vector<NodeId> functions = Sample(NodeKind::kFunction, 7, 20);
  ASSERT_EQ(functions.size(), 20u);

  size_t nonempty = 0;
  for (NodeId fn : functions) {
    std::vector<NodeId> backward =
        Reference(view_, schema_, {fn}, {EdgeKind::kCalls}, kOut);
    std::vector<NodeId> forward =
        Reference(view_, schema_, {fn}, {EdgeKind::kCalls}, kIn);
    nonempty += backward.empty() ? 0 : 1;
    EXPECT_EQ(BackwardSlice(view_, schema_, fn), backward) << fn;
    EXPECT_EQ(ParallelBackwardSlice(csr, schema_, fn, 0), backward) << fn;
    EXPECT_EQ(ForwardSlice(view_, schema_, fn), forward) << fn;
    EXPECT_EQ(ParallelBackwardSlice(csr, schema_, fn, 0, 2),
              Reference(view_, schema_, {fn}, {EdgeKind::kCalls}, kOut, 2))
        << fn;
    EXPECT_EQ(ForwardSlice(view_, schema_, fn, 1),
              Reference(view_, schema_, {fn}, {EdgeKind::kCalls}, kIn, 1))
        << fn;
  }
  EXPECT_GT(nonempty, 0u);

  const std::vector<EdgeKind> kinds = {EdgeKind::kCalls,
                                       EdgeKind::kReadsMember};
  // Strictly ascending on every path (condensation, kernel, kBoth, depth
  // bound): FindSuspectWrites binary-searches the result.
  auto ascending = [](const std::vector<NodeId>& ids) {
    return std::adjacent_find(ids.begin(), ids.end(),
                              std::greater_equal<>()) == ids.end();
  };
  for (graph::Direction dir : {kIn, kOut, graph::Direction::kBoth}) {
    std::vector<NodeId> all = Reference(view_, schema_, functions, kinds, dir);
    std::vector<NodeId> impact =
        ImpactSet(view_, schema_, functions, kinds, dir);
    EXPECT_TRUE(ascending(impact));
    EXPECT_TRUE(ascending(ImpactSet(view_, schema_, functions,
                                    {EdgeKind::kCalls}, dir)));
    EXPECT_TRUE(ascending(
        ImpactSet(view_, schema_, functions, {EdgeKind::kCalls}, dir, 3)));
    EXPECT_EQ(impact, all);
    EXPECT_EQ(ImpactSet(view_, schema_, functions, kinds, dir, 2),
              Reference(view_, schema_, functions, kinds, dir, 2));
  }
}

TEST_F(KernelSliceTest, ImpactAndScopeMatchStoreWalkingReference) {
  using model::EdgeKind;
  const graph::Direction kIn = graph::Direction::kIn;
  size_t nonempty = 0;
  for (NodeId macro : Sample(NodeKind::kMacro, 1, 40)) {
    std::vector<NodeId> users = Reference(
        view_, schema_, {macro},
        {EdgeKind::kExpandsMacro, EdgeKind::kInterrogatesMacro}, kIn, 1);
    std::set<NodeId> expected(users.begin(), users.end());
    for (NodeId n :
         Reference(view_, schema_, users, {EdgeKind::kCalls}, kIn)) {
      expected.insert(n);
    }
    // The direct users are a depth-1 kernel closure; their callers come
    // from the condensation.
    const uint64_t runs = KernelRuns();
    std::vector<NodeId> impact = MacroImpact(view_, schema_, macro);
    EXPECT_EQ(KernelRuns(), runs + 1) << macro;
    nonempty += impact.empty() ? 0 : 1;
    EXPECT_EQ(impact, std::vector<NodeId>(expected.begin(), expected.end()))
        << macro;
  }
  EXPECT_GT(nonempty, 0u);

  // No `includes` condensation is built, and IncludeImpact builds none:
  // each call is one kernel closure.
  nonempty = 0;
  for (NodeId file : Sample(NodeKind::kFile, 3, 40)) {
    const uint64_t runs = KernelRuns();
    std::vector<NodeId> includers = IncludeImpact(view_, schema_, file);
    EXPECT_EQ(KernelRuns(), runs + 1) << file;
    nonempty += includers.empty() ? 0 : 1;
    EXPECT_EQ(includers,
              Reference(view_, schema_, {file}, {EdgeKind::kIncludes}, kIn))
        << file;
  }
  EXPECT_GT(nonempty, 0u);

  nonempty = 0;
  for (NodeId module : Sample(NodeKind::kModule, 1, 20)) {
    std::vector<NodeId> files = ModuleFiles(view_, schema_, module);
    nonempty += files.empty() ? 0 : 1;
    EXPECT_EQ(files, ReferenceFiles(view_, schema_, module,
                                    {EdgeKind::kCompiledFrom,
                                     EdgeKind::kLinkedFrom,
                                     EdgeKind::kLinkedFromLib}))
        << module;
  }
  EXPECT_GT(nonempty, 0u);
  for (NodeId dir : Sample(NodeKind::kDirectory, 1, 20)) {
    EXPECT_EQ(DirectoryFiles(view_, schema_, dir),
              ReferenceFiles(view_, schema_, dir, {EdgeKind::kDirContains}))
        << dir;
  }
}

TEST_F(KernelSliceTest, SuspectWritesMatchStoreWalkingReference) {
  graph::TypeId calls = schema_.edge_type(model::EdgeKind::kCalls);
  graph::TypeId writes = schema_.edge_type(model::EdgeKind::kWritesMember);
  graph::KeyId line_key = schema_.key(model::PropKey::kUseStartLine);
  size_t nonempty = 0;
  for (NodeId good : Sample(NodeKind::kFunction, 5, 60)) {
    // Bound at good's last call; the field is one a reachable writer
    // writes, so most instances have suspects.
    graph::EdgeId bound_edge = graph::kInvalidEdge;
    int64_t bound = -1;
    view_.ForEachEdge(good, graph::Direction::kOut,
                      [&](graph::EdgeId e, NodeId) {
                        graph::Value line = view_.GetEdgeProperty(e, line_key);
                        if (view_.GetEdge(e).type == calls &&
                            !line.is_null() && line.AsInt() > bound) {
                          bound = line.AsInt();
                          bound_edge = e;
                        }
                        return true;
                      });
    if (bound_edge == graph::kInvalidEdge) continue;
    NodeId bad = view_.GetEdge(bound_edge).dst;
    NodeId field = graph::kInvalidNode;
    for (NodeId n : BackwardSlice(view_, schema_, good)) {
      view_.ForEachEdge(n, graph::Direction::kOut,
                        [&](graph::EdgeId e, NodeId target) {
                          if (view_.GetEdge(e).type != writes) return true;
                          field = target;
                          return false;
                        });
      if (field != graph::kInvalidNode) break;
    }
    if (field == graph::kInvalidNode) continue;
    for (int64_t line : {bound, bound - 1}) {
      const uint64_t runs = KernelRuns();
      WriteSet got = Pairs(
          FindSuspectWrites(view_, schema_, good, bad, field, line));
      EXPECT_EQ(KernelRuns(), runs)
          << "early callees' closure should read the condensation";
      nonempty += got.empty() ? 0 : 1;
      EXPECT_EQ(got,
                ReferenceSuspects(view_, schema_, good, bad, field, line))
          << good << " line " << line;
    }
  }
  EXPECT_GT(nonempty, 0u);
}

// Unbounded directed closures over sets with `calls` edges read the view's
// condensation (the first one per type set builds it) and run no kernel;
// depth bounds and kBoth run the kernel. Both paths equal the store walk.
// MacroImpact, IncludeImpact and FindSuspectWrites are pinned in the tests
// above.
TEST_F(KernelSliceTest, EntryPointsTakeTheirPathAndMatchReference) {
  using model::EdgeKind;
  const graph::Direction kIn = graph::Direction::kIn;
  const graph::Direction kOut = graph::Direction::kOut;
  const graph::CsrView& csr = view_.Packed();
  const graph::TypeId calls = schema_.edge_type(EdgeKind::kCalls);
  std::vector<NodeId> functions = Sample(NodeKind::kFunction, 7, 20);
  ASSERT_EQ(functions.size(), 20u);
  ASSERT_EQ(graph::analytics::FindCondensation(csr, {calls}), nullptr);
  std::vector<NodeId> got;
  auto kernel_runs = [&](auto call) {
    const uint64_t before = KernelRuns();
    got = call();
    return KernelRuns() - before;
  };

  for (NodeId fn : functions) {
    EXPECT_EQ(kernel_runs([&] { return BackwardSlice(view_, schema_, fn); }),
              0u);
    EXPECT_EQ(got, Reference(view_, schema_, {fn}, {EdgeKind::kCalls}, kOut))
        << fn;
    EXPECT_EQ(kernel_runs([&] { return ForwardSlice(view_, schema_, fn); }),
              0u);
    EXPECT_EQ(got, Reference(view_, schema_, {fn}, {EdgeKind::kCalls}, kIn))
        << fn;
    EXPECT_EQ(
        kernel_runs([&] { return BackwardSlice(view_, schema_, fn, 2); }), 1u);
    EXPECT_EQ(got,
              Reference(view_, schema_, {fn}, {EdgeKind::kCalls}, kOut, 2))
        << fn;
  }
  EXPECT_NE(graph::analytics::FindCondensation(csr, {calls}), nullptr);

  // Multi-kind, multi-seed, with a repeated seed.
  const std::vector<EdgeKind> kinds = {
      EdgeKind::kCalls, EdgeKind::kReadsMember, EdgeKind::kWritesMember};
  std::vector<NodeId> seeds = functions;
  seeds.push_back(functions[3]);
  for (graph::Direction dir : {kIn, kOut}) {
    EXPECT_EQ(kernel_runs([&] {
                return ImpactSet(view_, schema_, seeds, kinds, dir);
              }),
              0u);
    EXPECT_EQ(got, Reference(view_, schema_, seeds, kinds, dir));
  }
  EXPECT_EQ(kernel_runs([&] {
              return ImpactSet(view_, schema_, seeds, kinds,
                               graph::Direction::kBoth);
            }),
            1u);
  EXPECT_EQ(got, Reference(view_, schema_, seeds, kinds,
                           graph::Direction::kBoth));
}

// Once kMaxCondensations type sets hold a view's slots, a closure over a
// fifth set runs the kernel and still gives the reference answer.
TEST_F(KernelSliceTest, FifthTypeSetRunsTheKernel) {
  using model::EdgeKind;
  const graph::Direction kOut = graph::Direction::kOut;
  NodeId fn = graph::kInvalidNode;
  for (NodeId candidate : Sample(NodeKind::kFunction, 7, 20)) {
    if (!Reference(view_, schema_, {candidate}, {EdgeKind::kCalls}, kOut)
             .empty()) {
      fn = candidate;
      break;
    }
  }
  ASSERT_NE(fn, graph::kInvalidNode);
  const std::vector<std::vector<EdgeKind>> held = {
      {EdgeKind::kCalls},
      {EdgeKind::kCalls, EdgeKind::kIncludes},
      {EdgeKind::kCalls, EdgeKind::kReadsMember},
      {EdgeKind::kCalls, EdgeKind::kWritesMember}};
  static_assert(graph::CsrView::kMaxCondensations == 4);
  for (const std::vector<EdgeKind>& kinds : held) {
    const uint64_t runs = KernelRuns();
    EXPECT_EQ(ImpactSet(view_, schema_, {fn}, kinds, kOut),
              Reference(view_, schema_, {fn}, kinds, kOut));
    EXPECT_EQ(KernelRuns(), runs);
  }
  const std::vector<EdgeKind> fifth = {EdgeKind::kCalls,
                                       EdgeKind::kReadsMember,
                                       EdgeKind::kWritesMember};
  uint64_t runs = KernelRuns();
  EXPECT_EQ(ImpactSet(view_, schema_, {fn}, fifth, kOut),
            Reference(view_, schema_, {fn}, fifth, kOut));
  EXPECT_EQ(KernelRuns(), runs + 1);
  EXPECT_EQ(graph::analytics::FindCondensation(
                view_.Packed(), {schema_.edge_type(EdgeKind::kCalls),
                                 schema_.edge_type(EdgeKind::kReadsMember),
                                 schema_.edge_type(EdgeKind::kWritesMember)}),
            nullptr);
  // The sets that hold a slot stay off the kernel.
  runs = KernelRuns();
  EXPECT_EQ(BackwardSlice(view_, schema_, fn),
            Reference(view_, schema_, {fn}, {EdgeKind::kCalls}, kOut));
  EXPECT_EQ(KernelRuns(), runs);
}

// Closures over sets without `calls` edges walk trees, which a build
// costs more than: they read a condensation only once one is built and
// never take a slot. After ModuleFiles, DirectoryFiles, IncludeImpact and
// a macro-users ImpactSet, a Fig. 5-shaped reachability Filter still
// builds the `calls` condensation and slices read it.
TEST_F(KernelSliceTest, TreeClosuresReadButNeverBuild) {
  using model::EdgeKind;
  const graph::Direction kIn = graph::Direction::kIn;
  const graph::Direction kOut = graph::Direction::kOut;
  obs::Counter& builds =
      obs::Registry::Global().GetCounter("analytics.condensations");
  const uint64_t builds_before = builds.Value();
  const graph::CsrView& csr = view_.Packed();
  NodeId file = graph::kInvalidNode;
  for (NodeId candidate : Sample(NodeKind::kFile, 3, 40)) {
    if (!Reference(view_, schema_, {candidate}, {EdgeKind::kIncludes}, kIn)
             .empty()) {
      file = candidate;
      break;
    }
  }
  ASSERT_NE(file, graph::kInvalidNode);
  const NodeId module = Sample(NodeKind::kModule, 1, 1).at(0);
  const NodeId dir = Sample(NodeKind::kDirectory, 1, 1).at(0);
  const NodeId macro = Sample(NodeKind::kMacro, 1, 1).at(0);
  const std::vector<EdgeKind> macro_users = {EdgeKind::kExpandsMacro,
                                             EdgeKind::kInterrogatesMacro};

  uint64_t runs = KernelRuns();
  EXPECT_EQ(ModuleFiles(view_, schema_, module),
            ReferenceFiles(view_, schema_, module,
                           {EdgeKind::kCompiledFrom, EdgeKind::kLinkedFrom,
                            EdgeKind::kLinkedFromLib}));
  EXPECT_EQ(DirectoryFiles(view_, schema_, dir),
            ReferenceFiles(view_, schema_, dir, {EdgeKind::kDirContains}));
  EXPECT_EQ(IncludeImpact(view_, schema_, file),
            Reference(view_, schema_, {file}, {EdgeKind::kIncludes}, kIn));
  EXPECT_EQ(ImpactSet(view_, schema_, {macro}, macro_users, kIn),
            Reference(view_, schema_, {macro}, macro_users, kIn));
  EXPECT_EQ(KernelRuns(), runs + 4);
  EXPECT_EQ(builds.Value(), builds_before);

  NodeId fn = graph::kInvalidNode;
  std::vector<NodeId> backward;
  for (NodeId candidate : Sample(NodeKind::kFunction, 7, 20)) {
    backward =
        Reference(view_, schema_, {candidate}, {EdgeKind::kCalls}, kOut);
    if (!backward.empty()) {
      fn = candidate;
      break;
    }
  }
  ASSERT_NE(fn, graph::kInvalidNode);
  graph::NameIndex index = kernel_.BuildNameIndex();
  query::Database db = query::MakeFrappeDatabase(view_, schema_, &index,
                                                 /*label_index=*/nullptr);
  auto reached = query::RunQuery(
      db, "START a=node(" + std::to_string(fn) + "), b=node(" +
              std::to_string(backward.back()) +
              ") WHERE a -[:calls*]-> b RETURN b");
  ASSERT_TRUE(reached.ok()) << reached.status();
  EXPECT_EQ(reached->size(), 1u);
  EXPECT_EQ(builds.Value(), builds_before + 1);
  EXPECT_NE(graph::analytics::FindCondensation(
                csr, {schema_.edge_type(EdgeKind::kCalls)}),
            nullptr);
  runs = KernelRuns();
  EXPECT_EQ(BackwardSlice(view_, schema_, fn), backward);
  EXPECT_EQ(KernelRuns(), runs);

  // Once an `includes` condensation is built (as an uncapped FQL Filter
  // over includes would), IncludeImpact reads it.
  ASSERT_TRUE(graph::analytics::Condense(
                  csr, {schema_.edge_type(EdgeKind::kIncludes)})
                  .ok());
  runs = KernelRuns();
  EXPECT_EQ(IncludeImpact(view_, schema_, file),
            Reference(view_, schema_, {file}, {EdgeKind::kIncludes}, kIn));
  EXPECT_EQ(KernelRuns(), runs);
}

// Dead seeds are skipped, and a seed re-reached through a cycle is in its
// own slice; both after mutations the packed adjacency must pick up.
TEST_F(KernelSliceTest, DeadSeedsAndCyclesMatchStoreWalkingReference) {
  using model::EdgeKind;
  graph::GraphStore& store = kernel_.store();
  std::vector<NodeId> functions = Sample(NodeKind::kFunction, 7, 20);
  ASSERT_EQ(functions.size(), 20u);
  ASSERT_FALSE(BackwardSlice(view_, schema_, functions[0]).empty());

  // Close a cycle through functions[1]: its first callee calls it back.
  NodeId cyclic = functions[1];
  std::vector<NodeId> callees = BackwardSlice(view_, schema_, cyclic, 1);
  ASSERT_FALSE(callees.empty());
  store.AddEdge(callees.front(), cyclic, schema_.edge_type(EdgeKind::kCalls));
  std::vector<NodeId> slice = BackwardSlice(view_, schema_, cyclic);
  EXPECT_TRUE(std::binary_search(slice.begin(), slice.end(), cyclic));
  EXPECT_EQ(slice, Reference(view_, schema_, {cyclic}, {EdgeKind::kCalls},
                             graph::Direction::kOut));

  // Kill every fourth sampled function: dead seeds, and holes in the
  // slices of the live ones.
  for (size_t i = 0; i < functions.size(); i += 4) {
    store.RemoveNode(functions[i]);
  }
  EXPECT_TRUE(BackwardSlice(view_, schema_, functions[0]).empty());
  for (graph::Direction dir : {graph::Direction::kIn, graph::Direction::kOut}) {
    for (size_t depth : {size_t{1}, size_t{3}, kNoDepthLimit}) {
      EXPECT_EQ(
          ImpactSet(view_, schema_, functions, {EdgeKind::kCalls}, dir, depth),
          Reference(view_, schema_, functions, {EdgeKind::kCalls}, dir,
                    depth));
    }
  }
}

// --- One packed adjacency per view ---

constexpr const char* kFigure6 =
    "START n=node:node_auto_index('short_name: sr_media_change') "
    "MATCH n -[:calls*]-> m RETURN distinct m";

// The embedded API and the executor's fast path read one CSR, and both see
// nodes and edges added after it was built.
TEST(PackedCsrTest, SlicesAndFastPathSeeMutationsAfterBuild) {
  PaperFixture fixture;
  const graph::GraphView& view = fixture.graph.view();
  const model::Schema& schema = fixture.graph.schema();
  graph::NameIndex index = fixture.graph.BuildNameIndex();
  query::Database db = query::MakeFrappeDatabase(view, schema, &index,
                                                 /*label_index=*/nullptr);
  EXPECT_EQ(db.csr, view.PackedCache());
  const std::vector<graph::TypeId> calls = {
      schema.edge_type(model::EdgeKind::kCalls)};
  // The first unbounded slice builds the `calls` condensation, which the
  // Fig. 6 query then reads.
  EXPECT_EQ(BackwardSlice(view, schema, fixture.sr_media_change).size(), 4u);
  EXPECT_NE(graph::analytics::FindCondensation(view.Packed(), calls),
            nullptr);
  auto before = query::RunQuery(db, kFigure6);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->size(), 4u);
  EXPECT_EQ(&db.csr->Get(view), &view.Packed());

  // A callee of sr_do_ioctl added after the build: its id is past the
  // built CSR's offsets.
  NodeId late = fixture.graph.AddNode(NodeKind::kFunction, "late_callee");
  ASSERT_TRUE(fixture.graph
                  .AddEdge(model::EdgeKind::kCalls, fixture.sr_do_ioctl, late)
                  .ok());
  // The rebuilt CSR starts without a condensation; the slice builds one
  // that holds the new edge.
  EXPECT_EQ(graph::analytics::FindCondensation(view.Packed(), calls),
            nullptr);
  std::vector<NodeId> slice =
      BackwardSlice(view, schema, fixture.sr_media_change);
  EXPECT_EQ(slice.size(), 5u);
  EXPECT_TRUE(std::binary_search(slice.begin(), slice.end(), late));
  EXPECT_EQ(ToSet(ForwardSlice(view, schema, late)),
            (std::set<NodeId>{fixture.sr_do_ioctl, fixture.helper_a,
                              fixture.helper_b, fixture.sr_media_change}));
  auto after = query::RunQuery(db, kFigure6);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->size(), 5u);
  query::ExecOptions off;
  off.use_csr_fast_path = false;
  auto walked = query::RunQuery(db, kFigure6, off);
  ASSERT_TRUE(walked.ok()) << walked.status();
  EXPECT_EQ(walked->size(), 5u);

  fixture.graph.store().RemoveNode(late);
  EXPECT_EQ(BackwardSlice(view, schema, fixture.sr_media_change).size(), 4u);
  EXPECT_TRUE(ForwardSlice(view, schema, late).empty());
  auto removed = query::RunQuery(db, kFigure6);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(removed->size(), 4u);
}

// Four threads slice a fresh view while a Fig. 6 query runs on its
// database: one lazy CSR build and one condensation build serve them all
// (run under TSan via the `parallel` ctest label).
TEST(PackedCsrTest, ConcurrentSlicesShareOneBuild) {
  model::CodeGraph kernel;
  extractor::GraphScale scale;
  scale.factor = 0.01;
  extractor::GenerateKernelGraph(scale, &kernel);
  const graph::GraphView& view = kernel.view();
  const model::Schema& schema = kernel.schema();
  graph::NameIndex index = kernel.BuildNameIndex();
  query::Database db = query::MakeFrappeDatabase(view, schema, &index,
                                                 /*label_index=*/nullptr);
  graph::EdgeFilter calls =
      graph::EdgeFilter::Of({schema.edge_type(model::EdgeKind::kCalls)});

  // A function with a unique short name and a non-empty slice.
  NodeId fn = graph::kInvalidNode;
  std::string name;
  graph::TypeId fn_type = schema.node_type(NodeKind::kFunction);
  for (NodeId id = 0; id < view.NodeIdUpperBound(); ++id) {
    if (!view.NodeExists(id) || view.NodeType(id) != fn_type) continue;
    name = std::string(
        view.GetNodeString(id, schema.key(model::PropKey::kShortName)));
    if (index.Lookup("short_name", name).size() == 1 &&
        graph::TransitiveClosure(view, id, calls).size() > 10) {
      fn = id;
      break;
    }
  }
  ASSERT_NE(fn, graph::kInvalidNode);
  const std::vector<NodeId> backward =
      graph::TransitiveClosure(view, fn, calls);
  const std::vector<NodeId> forward = graph::TransitiveClosure(
      view, fn, graph::EdgeFilter::Of(calls.types, graph::Direction::kIn));
  ASSERT_EQ(db.csr->GetStats().forward_bytes, 0u);
  obs::Counter& builds =
      obs::Registry::Global().GetCounter("analytics.condensations");
  const uint64_t builds_before = builds.Value();

  std::vector<std::vector<NodeId>> backs(4), fores(4);
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 4) std::this_thread::yield();
      backs[t] = BackwardSlice(view, schema, fn);
      fores[t] = ForwardSlice(view, schema, fn);
    });
  }
  auto rows = query::RunQuery(
      db, "START n=node:node_auto_index('short_name: " + name +
              "') MATCH n -[:calls*]-> m RETURN distinct m");
  for (std::thread& thread : threads) thread.join();

  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), backward.size());
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(backs[t], backward) << t;
    EXPECT_EQ(fores[t], forward) << t;
  }
  EXPECT_EQ(&db.csr->Get(view), &view.Packed());
  EXPECT_EQ(db.csr->GetStats().forward_bytes,
            view.Packed().ForwardByteSize());
  // The slices raced the `calls` condensation's first build: it happened
  // once, and the uncapped Fig. 6 query may read it but never builds.
  EXPECT_EQ(builds.Value(), builds_before + 1);
  EXPECT_NE(graph::analytics::FindCondensation(view.Packed(), calls.types),
            nullptr);
}

}  // namespace
}  // namespace frappe::analysis
