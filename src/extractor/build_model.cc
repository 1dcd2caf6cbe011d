#include "extractor/build_model.h"

#include "common/string_util.h"
#include "extractor/c_parser.h"
#include "extractor/preprocessor.h"

namespace frappe::extractor {

using graph::NodeId;
using model::EdgeKind;
using model::NodeKind;

NodeId BuildDriver::MakeModule(const std::string& output) {
  auto it = modules_.find(output);
  if (it != modules_.end()) return it->second.node;
  NodeId node = extractor_.graph().AddNode(NodeKind::kModule,
                                           BaseName(output));
  extractor_.graph().SetLongName(node, output);
  modules_[output].node = node;
  return node;
}

Result<NodeId> BuildDriver::ModuleFor(const std::string& output) const {
  auto it = modules_.find(output);
  if (it == modules_.end()) {
    return Status::NotFound("no module built as '" + output + "'");
  }
  return it->second.node;
}

Result<NodeId> BuildDriver::Compile(const std::string& source,
                                    const std::string& output,
                                    const PreprocessOptions& options) {
  NodeId module = MakeModule(output);
  FRAPPE_ASSIGN_OR_RETURN(PreprocessedUnit pp,
                          Preprocess(vfs_, source, options, &headers_));
  FRAPPE_ASSIGN_OR_RETURN(TranslationUnit ast, ParseUnit(pp));
  UnitSymbols symbols;
  FRAPPE_RETURN_IF_ERROR(extractor_.ExtractUnit(pp, ast, &symbols));
  extractor_.graph().AddEdgeUnchecked(EdgeKind::kCompiledFrom, module,
                                      symbols.main_file);
  modules_[output].units.push_back(std::move(symbols));
  ++stats_.units_compiled;
  return module;
}

Result<NodeId> BuildDriver::Link(const std::vector<std::string>& inputs,
                                 const std::string& output,
                                 const PreprocessOptions& options,
                                 bool is_library) {
  model::CodeGraph& graph = extractor_.graph();
  NodeId out_module = MakeModule(output);
  ModuleInfo& out_info = modules_[output];

  // Gather participating units: sources compiled directly into the output,
  // then the units of each input module.
  std::vector<const UnitSymbols*> all_units;
  int64_t link_order = 0;
  for (const std::string& input : inputs) {
    if (EndsWith(input, ".c")) {
      FRAPPE_ASSIGN_OR_RETURN(PreprocessedUnit pp,
                              Preprocess(vfs_, input, options, &headers_));
      FRAPPE_ASSIGN_OR_RETURN(TranslationUnit ast, ParseUnit(pp));
      UnitSymbols symbols;
      FRAPPE_RETURN_IF_ERROR(extractor_.ExtractUnit(pp, ast, &symbols));
      graph.AddEdgeUnchecked(EdgeKind::kCompiledFrom, out_module,
                             symbols.main_file);
      out_info.units.push_back(std::move(symbols));
      ++stats_.units_compiled;
      continue;
    }
    auto it = modules_.find(input);
    if (it == modules_.end()) {
      return Status::NotFound("link input '" + input +
                              "' was never compiled");
    }
    EdgeKind kind = EndsWith(input, ".a") || EndsWith(input, ".so")
                        ? EdgeKind::kLinkedFromLib
                        : EdgeKind::kLinkedFrom;
    graph::EdgeId edge =
        graph.AddEdgeUnchecked(kind, out_module, it->second.node);
    graph.SetLinkOrder(edge, link_order++);
    for (const UnitSymbols& unit : it->second.units) {
      all_units.push_back(&unit);
    }
  }
  for (const UnitSymbols& unit : out_info.units) {
    all_units.push_back(&unit);
  }

  // Symbol resolution: every undefined declaration finds its definition
  // among the linked units.
  auto resolve = [&](const std::map<std::string, NodeId>& undefined,
                     auto defined_of, EdgeKind match_kind) {
    for (const auto& [name, decl_node] : undefined) {
      graph.AddEdgeUnchecked(EdgeKind::kLinkDeclares, out_module, decl_node);
      bool resolved = false;
      for (const UnitSymbols* unit : all_units) {
        const auto& defs = defined_of(*unit);
        auto def = defs.find(name);
        if (def != defs.end()) {
          graph.AddEdgeUnchecked(match_kind, decl_node, def->second);
          resolved = true;
          break;
        }
      }
      if (resolved) {
        ++stats_.symbols_resolved;
      } else if (!is_library) {
        ++stats_.symbols_unresolved;
      }
    }
  };
  for (const UnitSymbols* unit : all_units) {
    resolve(
        unit->undefined_functions,
        [](const UnitSymbols& u) -> const std::map<std::string, NodeId>& {
          return u.defined_functions;
        },
        EdgeKind::kLinkMatches);
    resolve(
        unit->undefined_globals,
        [](const UnitSymbols& u) -> const std::map<std::string, NodeId>& {
          return u.defined_globals;
        },
        EdgeKind::kLinkMatches);
  }
  ++stats_.modules_linked;
  return out_module;
}

Status BuildDriver::Run(const std::string& command_line) {
  std::vector<std::string_view> argv = SplitSkipEmpty(command_line, ' ');
  if (argv.empty()) return Status::InvalidArgument("empty command");

  PreprocessOptions options;
  bool compile_only = false;
  std::string output;
  std::vector<std::string> sources;
  std::vector<std::string> objects;

  // argv[0] is the compiler name (the wrapper pattern).
  for (size_t i = 1; i < argv.size(); ++i) {
    std::string_view arg = argv[i];
    if (arg == "-c") {
      compile_only = true;
    } else if (arg == "-o") {
      if (++i >= argv.size()) {
        return Status::InvalidArgument("-o without an argument");
      }
      output = std::string(argv[i]);
    } else if (StartsWith(arg, "-I")) {
      std::string_view dir = arg.substr(2);
      if (dir.empty()) {
        if (++i >= argv.size()) {
          return Status::InvalidArgument("-I without an argument");
        }
        dir = argv[i];
      }
      options.include_dirs.push_back(std::string(dir));
    } else if (StartsWith(arg, "-D")) {
      std::string_view def = arg.substr(2);
      size_t eq = def.find('=');
      if (eq == std::string_view::npos) {
        options.defines[std::string(def)] = "1";
      } else {
        options.defines[std::string(def.substr(0, eq))] =
            std::string(def.substr(eq + 1));
      }
    } else if (StartsWith(arg, "-")) {
      // Other flags (-O2, -Wall, -g, ...) are irrelevant to extraction.
    } else if (EndsWith(arg, ".c") || EndsWith(arg, ".h")) {
      sources.push_back(std::string(arg));
    } else if (EndsWith(arg, ".o") || EndsWith(arg, ".a") ||
               EndsWith(arg, ".so")) {
      objects.push_back(std::string(arg));
    } else {
      return Status::InvalidArgument("unrecognized input '" +
                                     std::string(arg) + "'");
    }
  }

  if (compile_only) {
    if (sources.size() != 1) {
      return Status::InvalidArgument(
          "-c expects exactly one source file");
    }
    if (output.empty()) {
      output = sources[0].substr(0, sources[0].size() - 2) + ".o";
    }
    return Compile(sources[0], output, options).status();
  }
  if (output.empty()) output = "a.out";
  std::vector<std::string> inputs = sources;
  inputs.insert(inputs.end(), objects.begin(), objects.end());
  if (inputs.empty()) {
    return Status::InvalidArgument("nothing to link");
  }
  return Link(inputs, output, options).status();
}

}  // namespace frappe::extractor
