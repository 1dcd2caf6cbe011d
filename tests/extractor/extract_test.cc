#include "extractor/extract.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "extractor/build_model.h"
#include "extractor/c_parser.h"
#include "extractor/synthetic.h"

namespace frappe::extractor {
namespace {

using graph::NodeId;
using model::EdgeKind;
using model::NodeKind;

// Compiles `source` as t.c and returns the graph for inspection.
class ExtractTest : public ::testing::Test {
 protected:
  void Build(const std::string& source) {
    vfs_.AddFile("t.c", source);
    driver_ = std::make_unique<BuildDriver>(&vfs_, &graph_);
    auto result = driver_->Compile("t.c", "t.o");
    ASSERT_TRUE(result.ok()) << result.status();
  }

  // Finds the unique node of `kind` with `short_name`.
  NodeId Find(NodeKind kind, std::string_view name) {
    NodeId found = graph::kInvalidNode;
    graph_.view().ForEachNode([&](NodeId id) {
      if (graph_.KindOf(id) == kind && graph_.ShortName(id) == name) {
        EXPECT_EQ(found, graph::kInvalidNode)
            << "duplicate " << name << " nodes";
        found = id;
      }
    });
    EXPECT_NE(found, graph::kInvalidNode)
        << "no " << model::NodeKindName(kind) << " named " << name;
    return found;
  }

  // Count of `kind` edges src -> dst.
  int EdgeCount(EdgeKind kind, NodeId src, NodeId dst) {
    int count = 0;
    graph_.store().ForEachEdge(
        src, graph::Direction::kOut, [&](graph::EdgeId e, NodeId target) {
          if (target == dst && graph_.EdgeKindOf(e) == kind) ++count;
          return true;
        });
    return count;
  }

  bool HasEdge(EdgeKind kind, NodeId src, NodeId dst) {
    return EdgeCount(kind, src, dst) > 0;
  }

  Vfs vfs_;
  model::CodeGraph graph_;
  std::unique_ptr<BuildDriver> driver_;
};

TEST_F(ExtractTest, CallsEdgeWithRanges) {
  Build("int callee(void) { return 1; }\n"
        "int caller(void) { return callee(); }\n");
  NodeId caller = Find(NodeKind::kFunction, "caller");
  NodeId callee = Find(NodeKind::kFunction, "callee");
  EXPECT_EQ(EdgeCount(EdgeKind::kCalls, caller, callee), 1);
  // The call edge carries use/name ranges on line 2.
  graph_.store().ForEachEdge(
      caller, graph::Direction::kOut, [&](graph::EdgeId e, NodeId) {
        if (graph_.EdgeKindOf(e) != EdgeKind::kCalls) return true;
        model::SourceRange use = graph_.UseRange(e);
        EXPECT_EQ(use.start_line, 2);
        model::SourceRange name = graph_.NameRange(e);
        EXPECT_EQ(name.start_line, 2);
        EXPECT_EQ(name.end_col - name.start_col + 1, 6);  // "callee"
        return true;
      });
}

TEST_F(ExtractTest, CallToPrototypeTargetsDecl) {
  Build("int ext(int);\nint f(void) { return ext(1); }\n");
  NodeId f = Find(NodeKind::kFunction, "f");
  NodeId decl = Find(NodeKind::kFunctionDecl, "ext");
  EXPECT_TRUE(HasEdge(EdgeKind::kCalls, f, decl));
}

TEST_F(ExtractTest, ImplicitDeclarationCreated) {
  Build("int f(void) { return mystery(); }\n");
  NodeId f = Find(NodeKind::kFunction, "f");
  NodeId decl = Find(NodeKind::kFunctionDecl, "mystery");
  EXPECT_TRUE(HasEdge(EdgeKind::kCalls, f, decl));
}

TEST_F(ExtractTest, DeclaresEdgeFromPrototypeToDefinition) {
  Build("int bar(int);\nint bar(int input) { return input; }\n");
  NodeId decl = Find(NodeKind::kFunctionDecl, "bar");
  NodeId def = Find(NodeKind::kFunction, "bar");
  EXPECT_TRUE(HasEdge(EdgeKind::kDeclares, decl, def));
}

TEST_F(ExtractTest, GlobalReadsAndWrites) {
  Build("int counter;\n"
        "void bump(void) { counter = counter + 1; }\n");
  NodeId fn = Find(NodeKind::kFunction, "bump");
  NodeId global = Find(NodeKind::kGlobal, "counter");
  EXPECT_EQ(EdgeCount(EdgeKind::kWrites, fn, global), 1);
  EXPECT_EQ(EdgeCount(EdgeKind::kReads, fn, global), 1);
}

TEST_F(ExtractTest, CompoundAssignReadsAndWrites) {
  Build("int counter;\nvoid bump(void) { counter += 2; }\n");
  NodeId fn = Find(NodeKind::kFunction, "bump");
  NodeId global = Find(NodeKind::kGlobal, "counter");
  EXPECT_EQ(EdgeCount(EdgeKind::kWrites, fn, global), 1);
  EXPECT_EQ(EdgeCount(EdgeKind::kReads, fn, global), 1);
}

TEST_F(ExtractTest, LocalsAndParamsModeled) {
  Build("int f(int input) { int local = input; static int s; return local; }\n");
  NodeId fn = Find(NodeKind::kFunction, "f");
  NodeId param = Find(NodeKind::kParameter, "input");
  NodeId local = Find(NodeKind::kLocal, "local");
  NodeId stat = Find(NodeKind::kStaticLocal, "s");
  EXPECT_TRUE(HasEdge(EdgeKind::kHasParam, fn, param));
  EXPECT_TRUE(HasEdge(EdgeKind::kHasLocal, fn, local));
  EXPECT_TRUE(HasEdge(EdgeKind::kHasLocal, fn, stat));
  EXPECT_TRUE(HasEdge(EdgeKind::kReads, fn, param));
  // Initialization counts as the first write.
  EXPECT_TRUE(HasEdge(EdgeKind::kWrites, fn, local));
}

TEST_F(ExtractTest, MemberAccessEdges) {
  Build("struct dev { int state; int id; };\n"
        "void poke(struct dev *d) {\n"
        "  d->state = d->id;\n"
        "}\n");
  NodeId fn = Find(NodeKind::kFunction, "poke");
  NodeId state = Find(NodeKind::kField, "state");
  NodeId id = Find(NodeKind::kField, "id");
  EXPECT_TRUE(HasEdge(EdgeKind::kWritesMember, fn, state));
  EXPECT_TRUE(HasEdge(EdgeKind::kReadsMember, fn, id));
  // `d->` also reads and dereferences the pointer parameter.
  NodeId d = Find(NodeKind::kParameter, "d");
  EXPECT_TRUE(HasEdge(EdgeKind::kReads, fn, d));
  EXPECT_TRUE(HasEdge(EdgeKind::kDereferences, fn, d));
}

TEST_F(ExtractTest, FieldResolutionThroughTypedef) {
  Build("struct page { int flags; };\n"
        "typedef struct page page_t;\n"
        "int get(page_t *p) { return p->flags; }\n");
  NodeId fn = Find(NodeKind::kFunction, "get");
  NodeId flags = Find(NodeKind::kField, "flags");
  EXPECT_TRUE(HasEdge(EdgeKind::kReadsMember, fn, flags));
}

TEST_F(ExtractTest, AddressOfEdges) {
  Build("struct dev { int state; };\n"
        "int g;\n"
        "void f(struct dev *d) { int *p = &g; int *q = &d->state; }\n");
  NodeId fn = Find(NodeKind::kFunction, "f");
  EXPECT_TRUE(HasEdge(EdgeKind::kTakesAddressOf, fn,
                      Find(NodeKind::kGlobal, "g")));
  EXPECT_TRUE(HasEdge(EdgeKind::kTakesAddressOfMember, fn,
                      Find(NodeKind::kField, "state")));
}

TEST_F(ExtractTest, FunctionReferenceIsAddressOf) {
  Build("int handler(void) { return 0; }\n"
        "int (*table)(void) = 0;\n"
        "void init(void) { table = handler; }\n");
  NodeId init = Find(NodeKind::kFunction, "init");
  NodeId handler = Find(NodeKind::kFunction, "handler");
  EXPECT_TRUE(HasEdge(EdgeKind::kTakesAddressOf, init, handler));
}

TEST_F(ExtractTest, DereferenceEdge) {
  Build("void f(int *p) { *p = 1; }\n");
  NodeId fn = Find(NodeKind::kFunction, "f");
  NodeId p = Find(NodeKind::kParameter, "p");
  EXPECT_TRUE(HasEdge(EdgeKind::kDereferences, fn, p));
}

TEST_F(ExtractTest, CastAndSizeofEdges) {
  Build("struct page { int flags; };\n"
        "unsigned long f(void *v) {\n"
        "  struct page *p = (struct page *)v;\n"
        "  return sizeof(struct page) + _Alignof(struct page);\n"
        "}\n");
  NodeId fn = Find(NodeKind::kFunction, "f");
  NodeId page = Find(NodeKind::kStruct, "page");
  EXPECT_TRUE(HasEdge(EdgeKind::kCastsTo, fn, page));
  EXPECT_TRUE(HasEdge(EdgeKind::kGetsSizeOf, fn, page));
  EXPECT_TRUE(HasEdge(EdgeKind::kGetsAlignOf, fn, page));
}

TEST_F(ExtractTest, EnumeratorUseAndValue) {
  Build("enum state { IDLE, BUSY = 4 };\n"
        "int f(void) { return BUSY; }\n");
  NodeId fn = Find(NodeKind::kFunction, "f");
  NodeId busy = Find(NodeKind::kEnumerator, "BUSY");
  EXPECT_TRUE(HasEdge(EdgeKind::kUsesEnumerator, fn, busy));
  EXPECT_EQ(graph_.store()
                .GetNodeProperty(busy, graph_.key_id(model::PropKey::kValue))
                .AsInt(),
            4);
  NodeId en = Find(NodeKind::kEnumDef, "state");
  EXPECT_TRUE(HasEdge(EdgeKind::kContains, en, busy));
}

TEST_F(ExtractTest, IsaTypeWithQualifiersAndArrays) {
  Build("const char *names[4];\n");
  NodeId global = Find(NodeKind::kGlobal, "names");
  NodeId chr = Find(NodeKind::kPrimitive, "char");
  graph_.store().ForEachEdge(
      global, graph::Direction::kOut, [&](graph::EdgeId e, NodeId target) {
        if (graph_.EdgeKindOf(e) != EdgeKind::kIsaType) return true;
        EXPECT_EQ(target, chr);
        EXPECT_EQ(graph_.store().GetEdgeString(
                      e, graph_.key_id(model::PropKey::kQualifiers)),
                  "]*c");
        EXPECT_EQ(graph_.store().GetEdgeString(
                      e, graph_.key_id(model::PropKey::kArrayLengths)),
                  "4");
        return true;
      });
}

TEST_F(ExtractTest, BitWidthOnContains) {
  Build("struct flags { int ro : 1; };\n");
  NodeId record = Find(NodeKind::kStruct, "flags");
  NodeId field = Find(NodeKind::kField, "ro");
  graph_.store().ForEachEdge(
      record, graph::Direction::kOut, [&](graph::EdgeId e, NodeId target) {
        if (target == field && graph_.EdgeKindOf(e) == EdgeKind::kContains) {
          EXPECT_EQ(graph_.store()
                        .GetEdgeProperty(
                            e, graph_.key_id(model::PropKey::kBitWidth))
                        .AsInt(),
                    1);
        }
        return true;
      });
}

TEST_F(ExtractTest, MacroExpansionAttributedToFunction) {
  Build("#define LIMIT 64\n"
        "int f(void) {\n"
        "  return LIMIT;\n"
        "}\n");
  NodeId fn = Find(NodeKind::kFunction, "f");
  NodeId macro = Find(NodeKind::kMacro, "LIMIT");
  EXPECT_TRUE(HasEdge(EdgeKind::kExpandsMacro, fn, macro));
}

TEST_F(ExtractTest, MacroInterrogationAttributedToFile) {
  Build("#ifdef CONFIG_SMP\nint smp;\n#endif\nint x;\n");
  NodeId macro = Find(NodeKind::kMacro, "CONFIG_SMP");
  NodeId file = Find(NodeKind::kFile, "t.c");
  EXPECT_TRUE(HasEdge(EdgeKind::kInterrogatesMacro, file, macro));
}

TEST_F(ExtractTest, VariadicFlagSet) {
  Build("int printk(const char *fmt, ...);\n");
  NodeId decl = Find(NodeKind::kFunctionDecl, "printk");
  EXPECT_TRUE(graph_.store()
                  .GetNodeProperty(decl,
                                   graph_.key_id(model::PropKey::kVariadic))
                  .AsBool());
}

TEST_F(ExtractTest, InMacroFlagOnGeneratedFunction) {
  Build("#define DEFINE_GETTER(n) int get_##n(void) { return 0; }\n"
        "DEFINE_GETTER(id)\n");
  NodeId fn = Find(NodeKind::kFunction, "get_id");
  EXPECT_TRUE(graph_.store()
                  .GetNodeProperty(fn,
                                   graph_.key_id(model::PropKey::kInMacro))
                  .AsBool());
}

TEST_F(ExtractTest, DirectoryChainBuilt) {
  vfs_.AddFile("drivers/scsi/sr.c", "int sr_init(void) { return 0; }\n");
  driver_ = std::make_unique<BuildDriver>(&vfs_, &graph_);
  ASSERT_TRUE(driver_->Compile("drivers/scsi/sr.c", "sr.o").ok());
  NodeId drivers = Find(NodeKind::kDirectory, "drivers");
  NodeId scsi = Find(NodeKind::kDirectory, "scsi");
  NodeId file = Find(NodeKind::kFile, "sr.c");
  EXPECT_TRUE(HasEdge(EdgeKind::kDirContains, drivers, scsi));
  EXPECT_TRUE(HasEdge(EdgeKind::kDirContains, scsi, file));
  NodeId fn = Find(NodeKind::kFunction, "sr_init");
  EXPECT_TRUE(HasEdge(EdgeKind::kFileContains, file, fn));
}

TEST_F(ExtractTest, SharedHeaderEntitiesDeduplicated) {
  vfs_.AddFile("common.h", "int shared(void);\nstruct s { int x; };\n");
  vfs_.AddFile("a.c", "#include \"common.h\"\nint a(void) { return shared(); }\n");
  vfs_.AddFile("b.c", "#include \"common.h\"\nint b(void) { return shared(); }\n");
  driver_ = std::make_unique<BuildDriver>(&vfs_, &graph_);
  ASSERT_TRUE(driver_->Compile("a.c", "a.o").ok());
  ASSERT_TRUE(driver_->Compile("b.c", "b.o").ok());
  // Find() asserts uniqueness: only one decl node despite two units.
  NodeId decl = Find(NodeKind::kFunctionDecl, "shared");
  NodeId a = Find(NodeKind::kFunction, "a");
  NodeId b = Find(NodeKind::kFunction, "b");
  EXPECT_TRUE(HasEdge(EdgeKind::kCalls, a, decl));
  EXPECT_TRUE(HasEdge(EdgeKind::kCalls, b, decl));
  Find(NodeKind::kStruct, "s");  // asserts single struct node
}

TEST_F(ExtractTest, LinkResolvesAcrossUnits) {
  vfs_.AddFile("api.h", "int impl(void);\n");
  vfs_.AddFile("user.c", "#include \"api.h\"\nint use(void) { return impl(); }\n");
  vfs_.AddFile("impl.c", "#include \"api.h\"\nint impl(void) { return 7; }\n");
  driver_ = std::make_unique<BuildDriver>(&vfs_, &graph_);
  ASSERT_TRUE(driver_->Run("gcc user.c -c -o user.o").ok());
  ASSERT_TRUE(driver_->Run("gcc impl.c -c -o impl.o").ok());
  ASSERT_TRUE(driver_->Run("gcc user.o impl.o -o prog").ok());

  NodeId prog = *driver_->ModuleFor("prog");
  NodeId decl = Find(NodeKind::kFunctionDecl, "impl");
  NodeId def = Find(NodeKind::kFunction, "impl");
  EXPECT_TRUE(HasEdge(EdgeKind::kLinkDeclares, prog, decl));
  EXPECT_TRUE(HasEdge(EdgeKind::kLinkMatches, decl, def));
  EXPECT_TRUE(HasEdge(EdgeKind::kLinkedFrom, prog,
                      *driver_->ModuleFor("user.o")));
  EXPECT_EQ(driver_->stats().symbols_unresolved, 0u);
  EXPECT_GE(driver_->stats().symbols_resolved, 1u);
}

TEST_F(ExtractTest, IncludesEdgeEmitted) {
  vfs_.AddFile("h.h", "int decl(void);\n");
  vfs_.AddFile("m.c", "#include \"h.h\"\n");
  driver_ = std::make_unique<BuildDriver>(&vfs_, &graph_);
  ASSERT_TRUE(driver_->Compile("m.c", "m.o").ok());
  EXPECT_TRUE(HasEdge(EdgeKind::kIncludes, Find(NodeKind::kFile, "m.c"),
                      Find(NodeKind::kFile, "h.h")));
}

// --- Determinism oracle ---
//
// Pins the whole extracted graph, ids and all: nodes in id order with their
// type and properties (sorted by key name, strings resolved), then edges in
// id order with type, endpoints and properties. Any drift in node or edge
// ids, SourceLocs, macro provenance or include structure changes the CRC.

std::string Properties(const graph::GraphView& view,
                       std::span<const graph::PropertyMap::Entry> props) {
  std::vector<std::pair<std::string_view, std::string>> sorted;
  for (const graph::PropertyMap::Entry& e : props) {
    sorted.emplace_back(view.keys().Name(e.key),
                        e.value().ToString(view.strings()));
  }
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [key, value] : sorted) {
    out += " ";
    out += key;
    out += "=";
    out += value;
  }
  return out;
}

std::string CanonicalDump(const graph::GraphView& view) {
  std::string out;
  for (NodeId n = 0; n < view.NodeIdUpperBound(); ++n) {
    if (!view.NodeExists(n)) continue;
    out += "n" + std::to_string(n) + " " +
           std::string(view.NodeTypeName(n)) +
           Properties(view, view.NodeProperties(n)) + "\n";
  }
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound(); ++e) {
    if (!view.EdgeExists(e)) continue;
    graph::Edge edge = view.GetEdge(e);
    out += "e" + std::to_string(e) + " " +
           std::string(view.edge_types().Name(edge.type)) + " " +
           std::to_string(edge.src) + "->" + std::to_string(edge.dst) +
           Properties(view, view.EdgeProperties(e)) + "\n";
  }
  return out;
}

struct Digest {
  size_t nodes;
  size_t edges;
  uint32_t crc;
};

Digest DigestOf(const model::CodeGraph& graph) {
  const graph::GraphView& view = graph.view();
  return Digest{view.NodeCount(), view.EdgeCount(),
                common::Crc32c(CanonicalDump(view))};
}

void Extract(const Vfs& vfs, const std::vector<std::string>& commands,
             model::CodeGraph* graph) {
  BuildDriver driver(&vfs, graph);
  for (const std::string& command : commands) {
    Status status = driver.Run(command);
    ASSERT_TRUE(status.ok()) << command << ": " << status;
  }
}

TEST(ExtractionDigestTest, SyntheticTreeIsPinned) {
  Vfs vfs;
  SourceScale scale;
  scale.subsystems = 3;
  scale.files_per_subsystem = 4;
  scale.functions_per_file = 6;
  scale.seed = 7;
  SourceKernel kernel = GenerateKernelSource(scale, &vfs);
  model::CodeGraph graph;
  Extract(vfs, kernel.build_commands, &graph);
  Digest digest = DigestOf(graph);
  EXPECT_EQ(digest.nodes, 498u);
  EXPECT_EQ(digest.edges, 3799u);
  EXPECT_EQ(digest.crc, 2032827225u);
}

TEST(ExtractionDigestTest, Figure2TreeIsPinned) {
  Vfs vfs;
  vfs.AddFile("foo.h", "int bar(int);\n");
  vfs.AddFile("foo.c",
              "#include \"foo.h\"\n"
              "int bar(int input) {\n"
              "  return input;\n"
              "}\n");
  vfs.AddFile("main.c",
              "#include \"foo.h\"\n"
              "int main(int argc, char **argv) {\n"
              "  return bar(argc);\n"
              "}\n");
  model::CodeGraph graph;
  Extract(vfs, {"gcc foo.c -c -o foo.o", "gcc main.c foo.o -o prog"},
          &graph);
  Digest digest = DigestOf(graph);
  EXPECT_EQ(digest.nodes, 13u);
  EXPECT_EQ(digest.edges, 24u);
  EXPECT_EQ(digest.crc, 2661272553u);
}

// Token pasting, stringizing, -D replacement text and one header seen by
// two units under different configurations: the paths that synthesize
// token text rather than viewing the source.
TEST(ExtractionDigestTest, MacroTreeIsPinned) {
  Vfs vfs;
  vfs.AddFile("include/ops.h",
              "#define GLUE(a, b) a##b\n"
              "#define NAME(x) #x\n"
              "#define CALL(f, ...) f(__VA_ARGS__)\n"
              "#ifdef CONFIG_FAST\n"
              "int GLUE(fast_, LEVEL)(int);\n"
              "#else\n"
              "int GLUE(slow_, LEVEL)(int);\n"
              "#endif\n"
              "struct ops { int (*run)(int); const char *name; };\n");
  vfs.AddFile("a.c",
              "#define LEVEL one\n"
              "#include <ops.h>\n"
              "static struct ops a_ops = { 0, NAME(a_ops) };\n"
              "int a_run(int n) { return CALL(GLUE(fast_, one), n + WIDTH); }\n");
  vfs.AddFile("b.c",
              "#define LEVEL two\n"
              "#include <ops.h>\n"
              "int b_run(int n) { return CALL(GLUE(slow_, two), n); }\n");
  model::CodeGraph graph;
  Extract(vfs,
          {"gcc -Iinclude -DCONFIG_FAST -DWIDTH=4 -c a.c -o a.o",
           "gcc -Iinclude -c b.c -o b.o", "gcc a.o b.o -o prog"},
          &graph);
  Digest digest = DigestOf(graph);
  EXPECT_EQ(digest.nodes, 28u);
  EXPECT_EQ(digest.edges, 51u);
  EXPECT_EQ(digest.crc, 29579308u);
}

}  // namespace
}  // namespace frappe::extractor
