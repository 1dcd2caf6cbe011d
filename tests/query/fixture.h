#ifndef FRAPPE_TESTS_QUERY_FIXTURE_H_
#define FRAPPE_TESTS_QUERY_FIXTURE_H_

#include <set>
#include <string>

#include "model/code_graph.h"

namespace frappe::query::testing {

// A miniature kernel-shaped code graph exercising every paper query
// (Figures 3-6). Node handles are exposed so tests can assert exact
// results.
//
// Build/link structure (Figure 3):
//   wakeup.elf -linked_from-> wakeup.o -compiled_from-> wakeup.c
//   wakeup.c -file_contains-> field `id` (in struct `message`)
//   sr.elf    -compiled_from-> sr.c -file_contains-> another field `id`
// Call/debug structure (Figures 4-6):
//   sr_media_change -calls(line 100)-> helper_a -calls-> sr_do_ioctl
//   sr_media_change -calls(line 236)-> get_sectorsize
//   sr_media_change -calls(line 300)-> helper_b -calls-> sr_do_ioctl
//   sr_do_ioctl -writes_member(line 150)-> cmd  <-contains- packet_command
//   stale_writer -writes_member-> cmd   (not reachable from any call site)
struct PaperFixture {
  model::CodeGraph graph;

  graph::NodeId wakeup_elf, wakeup_o, wakeup_c, sr_elf, sr_c;
  graph::NodeId message_struct, id_in_wakeup, id_in_sr;
  graph::NodeId packet_command, cmd_field;
  graph::NodeId sr_media_change, get_sectorsize, helper_a, helper_b;
  graph::NodeId sr_do_ioctl, stale_writer;
  graph::EdgeId write_edge;  // sr_do_ioctl -writes_member-> cmd

  PaperFixture() {
    using model::EdgeKind;
    using model::NodeKind;
    auto& g = graph;

    // Files and modules.
    wakeup_elf = g.AddNode(NodeKind::kModule, "wakeup.elf");
    wakeup_o = g.AddNode(NodeKind::kModule, "wakeup.o");
    wakeup_c = g.AddNode(NodeKind::kFile, "wakeup.c");
    sr_elf = g.AddNode(NodeKind::kModule, "sr.elf");
    sr_c = g.AddNode(NodeKind::kFile, "sr.c");
    Must(g.AddEdge(EdgeKind::kLinkedFrom, wakeup_elf, wakeup_o));
    Must(g.AddEdge(EdgeKind::kCompiledFrom, wakeup_o, wakeup_c));
    Must(g.AddEdge(EdgeKind::kCompiledFrom, sr_elf, sr_c));

    // Two fields named `id`, one per module (Figure 3 needs the module
    // constraint to discriminate).
    message_struct = g.AddNode(NodeKind::kStruct, "message");
    id_in_wakeup = g.AddNode(NodeKind::kField, "id");
    g.SetName(id_in_wakeup, "message::id");
    Must(g.AddEdge(EdgeKind::kContains, message_struct, id_in_wakeup));
    Must(g.AddEdge(EdgeKind::kFileContains, wakeup_c, message_struct));
    Must(g.AddEdge(EdgeKind::kFileContains, wakeup_c, id_in_wakeup));
    id_in_sr = g.AddNode(NodeKind::kField, "id");
    Must(g.AddEdge(EdgeKind::kFileContains, sr_c, id_in_sr));

    // Struct packet_command with field cmd (Figure 5).
    packet_command = g.AddNode(NodeKind::kStruct, "packet_command");
    cmd_field = g.AddNode(NodeKind::kField, "cmd");
    Must(g.AddEdge(EdgeKind::kContains, packet_command, cmd_field));
    Must(g.AddEdge(EdgeKind::kFileContains, sr_c, packet_command));

    // Functions.
    sr_media_change = g.AddNode(NodeKind::kFunction, "sr_media_change");
    get_sectorsize = g.AddNode(NodeKind::kFunction, "get_sectorsize");
    helper_a = g.AddNode(NodeKind::kFunction, "helper_a");
    helper_b = g.AddNode(NodeKind::kFunction, "helper_b");
    sr_do_ioctl = g.AddNode(NodeKind::kFunction, "sr_do_ioctl");
    stale_writer = g.AddNode(NodeKind::kFunction, "stale_writer");
    for (graph::NodeId fn : {sr_media_change, get_sectorsize, helper_a,
                             helper_b, sr_do_ioctl, stale_writer}) {
      Must(g.AddEdge(EdgeKind::kFileContains, sr_c, fn));
    }

    // Call sites with source lines (the Figure 5 control-flow
    // approximation compares USE_START_LINE values).
    AddCall(sr_media_change, helper_a, 100);
    AddCall(sr_media_change, get_sectorsize, 236);
    AddCall(sr_media_change, helper_b, 300);
    AddCall(helper_a, sr_do_ioctl, 12);
    AddCall(helper_b, sr_do_ioctl, 20);

    // Writers of packet_command.cmd.
    write_edge = Must(
        g.AddEdge(EdgeKind::kWritesMember, sr_do_ioctl, cmd_field));
    g.SetUseRange(write_edge, {NodeFile(), 150, 3, 150, 20});
    graph::EdgeId stale = Must(
        g.AddEdge(EdgeKind::kWritesMember, stale_writer, cmd_field));
    g.SetUseRange(stale, {NodeFile(), 400, 3, 400, 20});

    // A reference to `id` (go-to-definition target for Figure 4): the
    // name token sits at sr.c:104:16.
    graph::EdgeId read = Must(
        g.AddEdge(EdgeKind::kReadsMember, sr_media_change, id_in_sr));
    g.SetNameRange(read, {NodeFile(), 104, 16, 104, 18});
    g.SetUseRange(read, {NodeFile(), 104, 10, 104, 18});
  }

  int64_t NodeFile() const { return static_cast<int64_t>(sr_c); }

  void AddCall(graph::NodeId from, graph::NodeId to, int64_t line) {
    graph::EdgeId e = Must(
        graph.AddEdge(model::EdgeKind::kCalls, from, to));
    graph.SetUseRange(e, {NodeFile(), line, 9, line, 40});
    graph.SetNameRange(e, {NodeFile(), line, 9, line, 25});
  }

  static graph::EdgeId Must(Result<graph::EdgeId> result) {
    if (!result.ok()) std::abort();
    return *result;
  }
};

// `START a=node(...) WHERE a -[:calls<length>]-> a RETURN a` over up to
// `max_rows` distinct callers of `graph`. Under the default bounded length
// the kernel answers it: one closure per row, each walking the caller's
// call closure until a cycle leads back to it. Under `*` the condensation
// answers it, and its build is the Filter's only heavy work. With fewer
// rows than the executor's 1024-step poll cadence, START never polls a
// budget, so a step, deadline, cancel or memory budget can only trip
// inside the Filter.
inline std::string ReachabilityFilterQuery(const model::CodeGraph& graph,
                                           const std::string& length = "*..64",
                                           size_t max_rows = 150) {
  const graph::GraphView& view = graph.view();
  const graph::TypeId calls = graph.type_id(model::EdgeKind::kCalls);
  std::set<graph::NodeId> callers;
  for (graph::EdgeId e = 0;
       e < view.EdgeIdUpperBound() && callers.size() < max_rows; ++e) {
    if (view.EdgeExists(e) && view.GetEdge(e).type == calls) {
      callers.insert(view.GetEdge(e).src);
    }
  }
  std::string ids;
  for (graph::NodeId id : callers) {
    ids += (ids.empty() ? "" : ", ") + std::to_string(id);
  }
  return "START a=node(" + ids + ") WHERE a -[:calls" + length +
         "]-> a RETURN a";
}

// Figure 5 (debugging) on PaperFixture: the writers of packet_command.cmd
// reachable from the calls sr_media_change makes before get_sectorsize.
inline std::string Figure5Query() {
  return "START from=node:node_auto_index('short_name: sr_media_change'), "
         "to=node:node_auto_index('short_name: get_sectorsize'), "
         "b=node:node_auto_index('short_name: packet_command') "
         "MATCH writer -[write:writes_member]-> ({SHORT_NAME:'cmd'}) "
         "<-[:contains]- b "
         "WITH to, from, writer, write "
         "MATCH direct <-[s:calls]- from -[r:calls{use_start_line: 236}]-> to "
         "WHERE r.use_start_line >= s.use_start_line AND "
         "direct -[:calls*]-> writer "
         "RETURN distinct writer, write.use_start_line";
}

}  // namespace frappe::query::testing

#endif  // FRAPPE_TESTS_QUERY_FIXTURE_H_
