#include "extractor/c_parser.h"

#include <set>
#include <string_view>
#include <unordered_set>

namespace frappe::extractor {

namespace {

// Keyword sets are keyed by views of their literals, so a token's text is
// looked up as is.
const std::unordered_set<std::string_view> kPrimitiveKeywords = {
    "void",   "char",  "short",    "int",      "long",  "float",
    "double", "signed", "unsigned", "_Bool",   "size_t_builtin",
};

const std::unordered_set<std::string_view> kQualifierKeywords = {
    "const", "volatile", "restrict", "__restrict", "__restrict__",
};

const std::unordered_set<std::string_view> kStorageKeywords = {
    "static", "extern", "register", "auto", "inline", "__inline",
    "__inline__", "_Noreturn",
};

class Parser {
 public:
  explicit Parser(const PreprocessedUnit& unit) : tokens_(unit.tokens) {}

  Result<TranslationUnit> Run() {
    while (!Peek().IsEof()) {
      FRAPPE_RETURN_IF_ERROR(ParseTopLevel());
    }
    return std::move(unit_);
  }

 private:
  // --- token plumbing ---

  const CToken& Peek(size_t ahead = 0) const {
    size_t idx = pos_ + ahead;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  const CToken& Advance() {
    const CToken& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool AcceptPunct(std::string_view p) {
    if (Peek().IsPunct(p)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptIdent(std::string_view name) {
    if (Peek().IsIdent(name)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectPunct(std::string_view p) {
    if (!AcceptPunct(p)) {
      return Status::ParseError("expected '" + std::string(p) + "', got '" +
                                std::string(Peek().text) + "' at line " +
                                std::to_string(Peek().loc.line));
    }
    return Status::OK();
  }
  Status ErrorHere(std::string message) const {
    return Status::ParseError(message + " at line " +
                              std::to_string(Peek().loc.line) + " ('" +
                              std::string(Peek().text) + "')");
  }

  void SkipAttributes() {
    while (true) {
      if (Peek().IsIdent("__attribute__") || Peek().IsIdent("__declspec")) {
        Advance();
        if (Peek().IsPunct("(")) SkipBalancedParens();
        continue;
      }
      if (Peek().IsIdent("__extension__") || Peek().IsIdent("__asm__") ||
          Peek().IsIdent("asm")) {
        Advance();
        if (Peek().IsPunct("(")) SkipBalancedParens();
        continue;
      }
      break;
    }
  }

  void SkipBalancedParens() {
    int depth = 0;
    do {
      const CToken& t = Advance();
      if (t.IsPunct("(")) ++depth;
      if (t.IsPunct(")")) --depth;
    } while (depth > 0 && !Peek().IsEof());
  }

  void SkipBalancedBraces() {
    int depth = 0;
    do {
      const CToken& t = Advance();
      if (t.IsPunct("{")) ++depth;
      if (t.IsPunct("}")) --depth;
    } while (depth > 0 && !Peek().IsEof());
  }

  // --- type recognition ---

  bool IsTypeStart(const CToken& t, size_t ahead = 0) const {
    if (t.kind != CToken::Kind::kIdent) return false;
    if (kPrimitiveKeywords.count(t.text) || kQualifierKeywords.count(t.text)) {
      return true;
    }
    if (t.text == "struct" || t.text == "union" || t.text == "enum") {
      return true;
    }
    if (typedefs_.count(t.text)) {
      // A typedef name only starts a declaration if it is not itself being
      // used as a variable: `foo_t x` vs `foo_t = 3` (the latter cannot
      // happen for a real typedef, so this is safe).
      (void)ahead;
      return true;
    }
    return false;
  }

  bool AtDeclarationStart() const {
    const CToken& t = Peek();
    if (t.kind != CToken::Kind::kIdent) return false;
    if (kStorageKeywords.count(t.text) || t.text == "typedef") return true;
    return IsTypeStart(t);
  }

  // Parses declaration specifiers: storage, qualifiers, and the base type.
  struct DeclSpecs {
    TypeName type;
    bool is_static = false;
    bool is_extern = false;
    bool is_typedef = false;
    // Set when the specifier defined a record/enum inline (its tag, for
    // anonymous ones a generated tag).
    bool defined_record = false;
  };

  Result<DeclSpecs> ParseDeclSpecs() {
    DeclSpecs specs;
    std::vector<std::string_view> primitive_parts;
    bool saw_base = false;
    while (true) {
      SkipAttributes();
      const CToken& t = Peek();
      if (t.kind != CToken::Kind::kIdent) break;
      if (t.text == "typedef") {
        specs.is_typedef = true;
        Advance();
        continue;
      }
      if (kStorageKeywords.count(t.text)) {
        if (t.text == "static") specs.is_static = true;
        if (t.text == "extern") specs.is_extern = true;
        Advance();
        continue;
      }
      if (kQualifierKeywords.count(t.text)) {
        if (t.text == "const") specs.type.is_const = true;
        if (t.text == "volatile") specs.type.is_volatile = true;
        if (t.text.find("restrict") != std::string::npos) {
          specs.type.is_restrict = true;
        }
        Advance();
        continue;
      }
      if (t.text == "struct" || t.text == "union") {
        bool is_union = t.text == "union";
        Advance();
        SkipAttributes();
        FRAPPE_ASSIGN_OR_RETURN(std::string tag, ParseRecordBody(is_union));
        specs.type.base =
            is_union ? TypeName::Base::kUnion : TypeName::Base::kStruct;
        specs.type.name = tag;
        specs.defined_record = true;
        saw_base = true;
        continue;
      }
      if (t.text == "enum") {
        Advance();
        SkipAttributes();
        FRAPPE_ASSIGN_OR_RETURN(std::string tag, ParseEnumBody());
        specs.type.base = TypeName::Base::kEnum;
        specs.type.name = tag;
        saw_base = true;
        continue;
      }
      if (kPrimitiveKeywords.count(t.text)) {
        primitive_parts.push_back(t.text);
        Advance();
        saw_base = true;
        continue;
      }
      if (!saw_base && typedefs_.count(t.text)) {
        specs.type.base = TypeName::Base::kTypedefName;
        specs.type.name = t.text;
        Advance();
        saw_base = true;
        continue;
      }
      break;
    }
    if (!primitive_parts.empty()) {
      std::string joined;
      for (std::string_view p : primitive_parts) {
        if (!joined.empty()) joined += " ";
        joined += p;
      }
      specs.type.base = joined == "void" ? TypeName::Base::kVoid
                                         : TypeName::Base::kPrimitive;
      specs.type.name = joined;
    }
    if (!saw_base && specs.type.base == TypeName::Base::kUnknown) {
      // Implicit int (old C) — treat bare `static x;` etc. as int.
      specs.type.base = TypeName::Base::kPrimitive;
      specs.type.name = "int";
    }
    return specs;
  }

  // Parses `struct tag? { ... }?`; returns the tag (generated if
  // anonymous). Records a RecordDecl when a body is present.
  Result<std::string> ParseRecordBody(bool is_union) {
    std::string tag;
    SourceLoc loc = Peek().loc;
    if (Peek().kind == CToken::Kind::kIdent &&
        !Peek().IsPunct("{")) {
      tag = Advance().text;
      loc = Peek().loc;
    }
    if (!Peek().IsPunct("{")) return tag;  // reference only
    Advance();  // {
    RecordDecl record;
    record.is_union = is_union;
    record.tag = tag.empty() ? MakeAnonTag(is_union ? "union" : "struct")
                             : tag;
    record.is_definition = true;
    record.loc = loc;
    while (!Peek().IsPunct("}") && !Peek().IsEof()) {
      FRAPPE_RETURN_IF_ERROR(ParseFieldDeclaration(&record));
    }
    FRAPPE_RETURN_IF_ERROR(ExpectPunct("}"));
    std::string result = record.tag;
    unit_.records.push_back(std::move(record));
    return result;
  }

  Status ParseFieldDeclaration(RecordDecl* record) {
    FRAPPE_ASSIGN_OR_RETURN(DeclSpecs specs, ParseDeclSpecs());
    // Anonymous nested record used directly as a member container:
    // `struct { ... };`
    if (Peek().IsPunct(";")) {
      Advance();
      return Status::OK();
    }
    while (true) {
      FRAPPE_ASSIGN_OR_RETURN(VarDeclarator decl, ParseDeclarator(specs.type));
      if (AcceptPunct(":")) {
        // Bitfield width: constant expression; accept a number or skip.
        if (Peek().kind == CToken::Kind::kNumber) {
          decl.bit_width = ParseNumberText(Advance().text);
        } else {
          FRAPPE_ASSIGN_OR_RETURN(ExprPtr ignored, ParseAssignment());
          (void)ignored;
        }
      }
      SkipAttributes();
      if (!decl.name.empty()) record->fields.push_back(std::move(decl));
      if (AcceptPunct(",")) continue;
      FRAPPE_RETURN_IF_ERROR(ExpectPunct(";"));
      break;
    }
    return Status::OK();
  }

  Result<std::string> ParseEnumBody() {
    std::string tag;
    SourceLoc loc = Peek().loc;
    if (Peek().kind == CToken::Kind::kIdent && !Peek().IsPunct("{")) {
      tag = Advance().text;
    }
    if (!Peek().IsPunct("{")) return tag;
    Advance();  // {
    EnumDecl decl;
    decl.tag = tag.empty() ? MakeAnonTag("enum") : tag;
    decl.is_definition = true;
    decl.loc = loc;
    int64_t next_value = 0;
    while (!Peek().IsPunct("}") && !Peek().IsEof()) {
      if (Peek().kind != CToken::Kind::kIdent) {
        return ErrorHere("expected enumerator name");
      }
      EnumeratorDecl enumerator;
      const CToken& name = Advance();
      enumerator.name = name.text;
      enumerator.loc = name.loc;
      enumerator.name_len = name.length;
      if (AcceptPunct("=")) {
        // Constant expression; evaluate numbers, fall back to sequential.
        if (Peek().kind == CToken::Kind::kNumber &&
            (Peek(1).IsPunct(",") || Peek(1).IsPunct("}"))) {
          enumerator.value = ParseNumberText(Advance().text);
          enumerator.has_value = true;
          next_value = enumerator.value + 1;
        } else if (Peek().IsPunct("-") &&
                   Peek(1).kind == CToken::Kind::kNumber &&
                   (Peek(2).IsPunct(",") || Peek(2).IsPunct("}"))) {
          Advance();
          enumerator.value = -ParseNumberText(Advance().text);
          enumerator.has_value = true;
          next_value = enumerator.value + 1;
        } else {
          FRAPPE_ASSIGN_OR_RETURN(ExprPtr ignored, ParseAssignment());
          (void)ignored;
          enumerator.value = next_value++;
          enumerator.has_value = true;
        }
      } else {
        enumerator.value = next_value++;
        enumerator.has_value = true;
      }
      enumerators_.insert(enumerator.name);
      decl.enumerators.push_back(std::move(enumerator));
      if (!AcceptPunct(",")) break;
    }
    FRAPPE_RETURN_IF_ERROR(ExpectPunct("}"));
    std::string result = decl.tag;
    unit_.enums.push_back(std::move(decl));
    return result;
  }

  // Parses a declarator: pointers, name, arrays, function-pointer form.
  Result<VarDeclarator> ParseDeclarator(TypeName base) {
    VarDeclarator decl;
    decl.type = base;
    while (true) {
      if (AcceptPunct("*")) {
        ++decl.type.pointer_depth;
        continue;
      }
      if (Peek().kind == CToken::Kind::kIdent &&
          kQualifierKeywords.count(Peek().text)) {
        if (Peek().text == "const") decl.type.is_const = true;
        if (Peek().text == "volatile") decl.type.is_volatile = true;
        if (Peek().text.find("restrict") != std::string::npos) {
          decl.type.is_restrict = true;
        }
        Advance();
        continue;
      }
      break;
    }
    SkipAttributes();
    // Function pointer: (*name)(params).
    if (Peek().IsPunct("(") && Peek(1).IsPunct("*")) {
      Advance();  // (
      Advance();  // *
      decl.type.function_pointer = true;
      ++decl.type.pointer_depth;
      if (Peek().kind == CToken::Kind::kIdent) {
        const CToken& name = Advance();
        decl.name = name.text;
        decl.loc = name.loc;
        decl.name_len = name.length;
        decl.in_macro = name.in_macro;
      }
      while (AcceptPunct("[")) {  // array of function pointers
        if (!Peek().IsPunct("]")) Advance();
        FRAPPE_RETURN_IF_ERROR(ExpectPunct("]"));
        decl.type.array_dims.push_back(-1);
      }
      FRAPPE_RETURN_IF_ERROR(ExpectPunct(")"));
      if (Peek().IsPunct("(")) SkipBalancedParens();
      return decl;
    }
    if (Peek().kind == CToken::Kind::kIdent &&
        !kPrimitiveKeywords.count(Peek().text)) {
      const CToken& name = Advance();
      decl.name = name.text;
      decl.loc = name.loc;
      decl.name_len = name.length;
      decl.in_macro = name.in_macro;
    }
    while (AcceptPunct("[")) {
      if (Peek().kind == CToken::Kind::kNumber && Peek(1).IsPunct("]")) {
        decl.type.array_dims.push_back(ParseNumberText(Advance().text));
      } else if (Peek().IsPunct("]")) {
        decl.type.array_dims.push_back(-1);
      } else {
        // Dimension is a constant expression (often an enumerator or a
        // macro-expanded value): parse and discard, dimension unknown.
        FRAPPE_ASSIGN_OR_RETURN(ExprPtr dim, ParseAssignment());
        (void)dim;
        decl.type.array_dims.push_back(-1);
      }
      FRAPPE_RETURN_IF_ERROR(ExpectPunct("]"));
    }
    return decl;
  }

  static int64_t ParseNumberText(std::string_view text) {
    size_t end = text.size();
    while (end > 0 && std::isalpha(static_cast<unsigned char>(
                          text[end - 1]))) {
      --end;
    }
    try {
      return std::stoll(std::string(text.substr(0, end)), nullptr, 0);
    } catch (...) {
      return 0;
    }
  }

  std::string MakeAnonTag(std::string_view kind) {
    return "<anonymous " + std::string(kind) + " " +
           std::to_string(anon_counter_++) + ">";
  }

  // --- top level ---

  Status ParseTopLevel() {
    SkipAttributes();
    if (AcceptPunct(";")) return Status::OK();
    if (!AtDeclarationStart()) {
      return ErrorHere("expected a declaration");
    }
    FRAPPE_ASSIGN_OR_RETURN(DeclSpecs specs, ParseDeclSpecs());

    // Bare record/enum definition: `struct foo { ... };`
    if (Peek().IsPunct(";")) {
      Advance();
      return Status::OK();
    }

    if (specs.is_typedef) {
      while (true) {
        FRAPPE_ASSIGN_OR_RETURN(VarDeclarator decl,
                                ParseDeclarator(specs.type));
        if (!decl.name.empty()) {
          TypedefDecl td;
          td.name = decl.name;
          td.underlying = decl.type;
          td.loc = decl.loc;
          typedefs_.insert(td.name);
          unit_.typedefs.push_back(std::move(td));
        }
        if (AcceptPunct(",")) continue;
        FRAPPE_RETURN_IF_ERROR(ExpectPunct(";"));
        break;
      }
      return Status::OK();
    }

    // Could be a function or global(s). Parse the first declarator and
    // look at what follows.
    FRAPPE_ASSIGN_OR_RETURN(VarDeclarator first, ParseDeclarator(specs.type));
    if (!first.type.function_pointer && Peek().IsPunct("(")) {
      return ParseFunctionRest(specs, std::move(first));
    }
    // Global variable declaration list.
    VarDeclarator decl = std::move(first);
    while (true) {
      SkipAttributes();
      if (AcceptPunct("=")) {
        FRAPPE_ASSIGN_OR_RETURN(decl.init, ParseInitializer());
      }
      if (!decl.name.empty()) {
        GlobalDecl global;
        global.decl = std::move(decl);
        global.is_static = specs.is_static;
        global.is_extern = specs.is_extern;
        unit_.globals.push_back(std::move(global));
      }
      if (AcceptPunct(",")) {
        FRAPPE_ASSIGN_OR_RETURN(decl, ParseDeclarator(specs.type));
        continue;
      }
      FRAPPE_RETURN_IF_ERROR(ExpectPunct(";"));
      break;
    }
    return Status::OK();
  }

  Status ParseFunctionRest(const DeclSpecs& specs, VarDeclarator declarator) {
    FunctionDecl fn;
    fn.name = declarator.name;
    fn.return_type = declarator.type;
    fn.is_static = specs.is_static;
    fn.loc = declarator.loc;
    fn.name_len = declarator.name_len;
    fn.in_macro = declarator.in_macro;
    FRAPPE_RETURN_IF_ERROR(ExpectPunct("("));
    if (!Peek().IsPunct(")")) {
      // `(void)` prototype.
      if (Peek().IsIdent("void") && Peek(1).IsPunct(")")) {
        Advance();
      } else {
        while (true) {
          if (AcceptPunct("...")) {
            fn.variadic = true;
            break;
          }
          FRAPPE_ASSIGN_OR_RETURN(DeclSpecs param_specs, ParseDeclSpecs());
          FRAPPE_ASSIGN_OR_RETURN(VarDeclarator param,
                                  ParseDeclarator(param_specs.type));
          ParamDecl p;
          p.name = param.name;
          p.type = param.type;
          p.loc = param.loc;
          fn.params.push_back(std::move(p));
          if (!AcceptPunct(",")) break;
        }
      }
    }
    FRAPPE_RETURN_IF_ERROR(ExpectPunct(")"));
    SkipAttributes();
    if (AcceptPunct(";")) {
      fn.is_definition = false;
      unit_.functions.push_back(std::move(fn));
      return Status::OK();
    }
    if (!Peek().IsPunct("{")) {
      return ErrorHere("expected ';' or function body");
    }
    fn.is_definition = true;
    FRAPPE_ASSIGN_OR_RETURN(fn.body, ParseCompound());
    unit_.functions.push_back(std::move(fn));
    return Status::OK();
  }

  Result<ExprPtr> ParseInitializer() {
    if (Peek().IsPunct("{")) {
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kInitList;
      expr->loc = Peek().loc;
      Advance();  // {
      while (!Peek().IsPunct("}") && !Peek().IsEof()) {
        // Designators: `.field =` / `[i] =` — skip to the value.
        while (Peek().IsPunct(".") || Peek().IsPunct("[")) {
          if (AcceptPunct(".")) {
            if (Peek().kind == CToken::Kind::kIdent) Advance();
          } else {
            Advance();  // [
            FRAPPE_ASSIGN_OR_RETURN(ExprPtr idx, ParseAssignment());
            expr->args.push_back(std::move(idx));
            FRAPPE_RETURN_IF_ERROR(ExpectPunct("]"));
          }
          AcceptPunct("=");
        }
        FRAPPE_ASSIGN_OR_RETURN(ExprPtr item, ParseInitializer());
        expr->args.push_back(std::move(item));
        if (!AcceptPunct(",")) break;
      }
      FRAPPE_RETURN_IF_ERROR(ExpectPunct("}"));
      SetEnd(expr.get());
      return expr;
    }
    return ParseAssignment();
  }

  // --- statements ---

  Result<StmtPtr> ParseCompound() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kCompound;
    stmt->loc = Peek().loc;
    FRAPPE_RETURN_IF_ERROR(ExpectPunct("{"));
    while (!Peek().IsPunct("}") && !Peek().IsEof()) {
      FRAPPE_ASSIGN_OR_RETURN(StmtPtr child, ParseStatement());
      stmt->children.push_back(std::move(child));
    }
    FRAPPE_RETURN_IF_ERROR(ExpectPunct("}"));
    return stmt;
  }

  Result<StmtPtr> ParseStatement() {
    const CToken& t = Peek();
    if (t.IsPunct("{")) return ParseCompound();
    if (t.IsPunct(";")) {
      Advance();
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kEmpty;
      stmt->loc = t.loc;
      return stmt;
    }
    if (t.IsIdent("if")) return ParseIf();
    if (t.IsIdent("while")) return ParseWhile();
    if (t.IsIdent("do")) return ParseDoWhile();
    if (t.IsIdent("for")) return ParseFor();
    if (t.IsIdent("return")) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kReturn;
      stmt->loc = t.loc;
      Advance();
      if (!Peek().IsPunct(";")) {
        FRAPPE_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
      }
      FRAPPE_RETURN_IF_ERROR(ExpectPunct(";"));
      return stmt;
    }
    if (t.IsIdent("break") || t.IsIdent("continue")) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = t.IsIdent("break") ? StmtKind::kBreak
                                      : StmtKind::kContinue;
      stmt->loc = t.loc;
      Advance();
      FRAPPE_RETURN_IF_ERROR(ExpectPunct(";"));
      return stmt;
    }
    if (t.IsIdent("switch")) return ParseSwitch();
    if (t.IsIdent("case") || t.IsIdent("default")) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kCase;
      stmt->loc = t.loc;
      bool is_default = t.IsIdent("default");
      Advance();
      if (!is_default) {
        FRAPPE_ASSIGN_OR_RETURN(stmt->expr, ParseConditionalExpr());
      }
      FRAPPE_RETURN_IF_ERROR(ExpectPunct(":"));
      return stmt;
    }
    if (t.IsIdent("goto")) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kGoto;
      stmt->loc = t.loc;
      Advance();
      if (Peek().kind == CToken::Kind::kIdent) stmt->label = Advance().text;
      FRAPPE_RETURN_IF_ERROR(ExpectPunct(";"));
      return stmt;
    }
    // Label: ident ':' (not a ternary — statement position).
    if (t.kind == CToken::Kind::kIdent && Peek(1).IsPunct(":") &&
        !IsTypeStart(t)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kLabel;
      stmt->loc = t.loc;
      stmt->label = Advance().text;
      Advance();  // :
      return stmt;
    }
    if (AtDeclarationStart()) return ParseDeclStatement();

    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kExpr;
    stmt->loc = t.loc;
    FRAPPE_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
    FRAPPE_RETURN_IF_ERROR(ExpectPunct(";"));
    return stmt;
  }

  Result<StmtPtr> ParseDeclStatement() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kDecl;
    stmt->loc = Peek().loc;
    FRAPPE_ASSIGN_OR_RETURN(DeclSpecs specs, ParseDeclSpecs());
    stmt->decls_static = specs.is_static;
    if (Peek().IsPunct(";")) {  // local record/enum definition
      Advance();
      return stmt;
    }
    while (true) {
      FRAPPE_ASSIGN_OR_RETURN(VarDeclarator decl, ParseDeclarator(specs.type));
      if (AcceptPunct("=")) {
        FRAPPE_ASSIGN_OR_RETURN(decl.init, ParseInitializer());
      }
      if (!decl.name.empty()) stmt->decls.push_back(std::move(decl));
      if (AcceptPunct(",")) continue;
      FRAPPE_RETURN_IF_ERROR(ExpectPunct(";"));
      break;
    }
    return stmt;
  }

  Result<StmtPtr> ParseIf() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kIf;
    stmt->loc = Peek().loc;
    Advance();  // if
    FRAPPE_RETURN_IF_ERROR(ExpectPunct("("));
    FRAPPE_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
    FRAPPE_RETURN_IF_ERROR(ExpectPunct(")"));
    FRAPPE_ASSIGN_OR_RETURN(StmtPtr then_branch, ParseStatement());
    stmt->children.push_back(std::move(then_branch));
    if (AcceptIdent("else")) {
      FRAPPE_ASSIGN_OR_RETURN(StmtPtr else_branch, ParseStatement());
      stmt->children.push_back(std::move(else_branch));
    }
    return stmt;
  }

  Result<StmtPtr> ParseWhile() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kWhile;
    stmt->loc = Peek().loc;
    Advance();
    FRAPPE_RETURN_IF_ERROR(ExpectPunct("("));
    FRAPPE_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
    FRAPPE_RETURN_IF_ERROR(ExpectPunct(")"));
    FRAPPE_ASSIGN_OR_RETURN(StmtPtr body, ParseStatement());
    stmt->children.push_back(std::move(body));
    return stmt;
  }

  Result<StmtPtr> ParseDoWhile() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kDoWhile;
    stmt->loc = Peek().loc;
    Advance();  // do
    FRAPPE_ASSIGN_OR_RETURN(StmtPtr body, ParseStatement());
    stmt->children.push_back(std::move(body));
    if (!AcceptIdent("while")) return ErrorHere("expected 'while'");
    FRAPPE_RETURN_IF_ERROR(ExpectPunct("("));
    FRAPPE_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
    FRAPPE_RETURN_IF_ERROR(ExpectPunct(")"));
    FRAPPE_RETURN_IF_ERROR(ExpectPunct(";"));
    return stmt;
  }

  Result<StmtPtr> ParseFor() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kFor;
    stmt->loc = Peek().loc;
    Advance();  // for
    FRAPPE_RETURN_IF_ERROR(ExpectPunct("("));
    // Init: declaration or expression.
    if (!Peek().IsPunct(";")) {
      if (AtDeclarationStart()) {
        FRAPPE_ASSIGN_OR_RETURN(DeclSpecs specs, ParseDeclSpecs());
        while (true) {
          FRAPPE_ASSIGN_OR_RETURN(VarDeclarator decl,
                                  ParseDeclarator(specs.type));
          if (AcceptPunct("=")) {
            FRAPPE_ASSIGN_OR_RETURN(decl.init, ParseInitializer());
          }
          if (!decl.name.empty()) stmt->decls.push_back(std::move(decl));
          if (!AcceptPunct(",")) break;
        }
      } else {
        FRAPPE_ASSIGN_OR_RETURN(ExprPtr init, ParseExpression());
        auto init_stmt = std::make_unique<Stmt>();
        init_stmt->kind = StmtKind::kExpr;
        init_stmt->loc = stmt->loc;
        init_stmt->expr = std::move(init);
        stmt->children.push_back(std::move(init_stmt));
      }
    }
    FRAPPE_RETURN_IF_ERROR(ExpectPunct(";"));
    if (!Peek().IsPunct(";")) {
      FRAPPE_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
    }
    FRAPPE_RETURN_IF_ERROR(ExpectPunct(";"));
    if (!Peek().IsPunct(")")) {
      FRAPPE_ASSIGN_OR_RETURN(stmt->expr2, ParseExpression());
    }
    FRAPPE_RETURN_IF_ERROR(ExpectPunct(")"));
    FRAPPE_ASSIGN_OR_RETURN(StmtPtr body, ParseStatement());
    stmt->children.push_back(std::move(body));
    return stmt;
  }

  Result<StmtPtr> ParseSwitch() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kSwitch;
    stmt->loc = Peek().loc;
    Advance();
    FRAPPE_RETURN_IF_ERROR(ExpectPunct("("));
    FRAPPE_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
    FRAPPE_RETURN_IF_ERROR(ExpectPunct(")"));
    FRAPPE_ASSIGN_OR_RETURN(StmtPtr body, ParseStatement());
    stmt->children.push_back(std::move(body));
    return stmt;
  }

  // --- expressions ---

  void SetStart(Expr* expr, const CToken& t) {
    expr->loc = t.loc;
    expr->in_macro = t.in_macro;
  }
  void SetEnd(Expr* expr) {
    // Approximate: end at the token before the current position.
    const CToken& prev = tokens_[pos_ > 0 ? pos_ - 1 : 0];
    expr->end_loc = prev.loc;
    expr->end_len = prev.length;
  }

  Result<ExprPtr> ParseExpression() {
    FRAPPE_ASSIGN_OR_RETURN(ExprPtr left, ParseAssignment());
    while (Peek().IsPunct(",")) {
      Advance();
      FRAPPE_ASSIGN_OR_RETURN(ExprPtr right, ParseAssignment());
      auto comma = std::make_unique<Expr>();
      comma->kind = ExprKind::kBinary;
      comma->text = ",";
      comma->loc = left->loc;
      comma->lhs = std::move(left);
      comma->rhs = std::move(right);
      SetEnd(comma.get());
      left = std::move(comma);
    }
    return left;
  }

  static bool IsAssignOp(const CToken& t) {
    static const std::set<std::string_view> kOps = {
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
    return t.kind == CToken::Kind::kPunct && kOps.count(t.text) != 0;
  }

  Result<ExprPtr> ParseAssignment() {
    FRAPPE_ASSIGN_OR_RETURN(ExprPtr left, ParseConditionalExpr());
    if (IsAssignOp(Peek())) {
      std::string_view op = Advance().text;
      FRAPPE_ASSIGN_OR_RETURN(ExprPtr right, ParseAssignment());
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kBinary;
      expr->text = op;
      expr->loc = left->loc;
      expr->in_macro = left->in_macro;
      expr->lhs = std::move(left);
      expr->rhs = std::move(right);
      SetEnd(expr.get());
      return expr;
    }
    return left;
  }

  Result<ExprPtr> ParseConditionalExpr() {
    FRAPPE_ASSIGN_OR_RETURN(ExprPtr cond, ParseBinary(0));
    if (Peek().IsPunct("?")) {
      Advance();
      // GNU elvis operator `a ?: b`: the middle operand is the condition.
      ExprPtr then_expr;
      if (!Peek().IsPunct(":")) {
        FRAPPE_ASSIGN_OR_RETURN(then_expr, ParseExpression());
      } else {
        then_expr = std::make_unique<Expr>();
        then_expr->kind = ExprKind::kIdent;
        then_expr->text = "";  // opaque: condition value reused
        then_expr->loc = cond->loc;
      }
      FRAPPE_RETURN_IF_ERROR(ExpectPunct(":"));
      FRAPPE_ASSIGN_OR_RETURN(ExprPtr else_expr, ParseConditionalExpr());
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kTernary;
      expr->loc = cond->loc;
      expr->lhs = std::move(cond);
      expr->rhs = std::move(then_expr);
      expr->third = std::move(else_expr);
      SetEnd(expr.get());
      return expr;
    }
    return cond;
  }

  static int BinPrec(const CToken& t) {
    if (t.kind != CToken::Kind::kPunct) return 0;
    std::string_view op = t.text;
    if (op == "||") return 1;
    if (op == "&&") return 2;
    if (op == "|") return 3;
    if (op == "^") return 4;
    if (op == "&") return 5;
    if (op == "==" || op == "!=") return 6;
    if (op == "<" || op == ">" || op == "<=" || op == ">=") return 7;
    if (op == "<<" || op == ">>") return 8;
    if (op == "+" || op == "-") return 9;
    if (op == "*" || op == "/" || op == "%") return 10;
    return 0;
  }

  Result<ExprPtr> ParseBinary(int min_prec) {
    FRAPPE_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (true) {
      int prec = BinPrec(Peek());
      if (prec == 0 || prec < min_prec) break;
      std::string_view op = Advance().text;
      FRAPPE_ASSIGN_OR_RETURN(ExprPtr right, ParseBinary(prec + 1));
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kBinary;
      expr->text = op;
      expr->loc = left->loc;
      expr->in_macro = left->in_macro;
      expr->lhs = std::move(left);
      expr->rhs = std::move(right);
      SetEnd(expr.get());
      left = std::move(expr);
    }
    return left;
  }

  // True if the parenthesis at the current position opens a type name
  // (cast or sizeof operand).
  bool ParenIsType() const {
    if (!Peek().IsPunct("(")) return false;
    const CToken& inner = Peek(1);
    if (inner.kind != CToken::Kind::kIdent) return false;
    return kPrimitiveKeywords.count(inner.text) != 0 ||
           kQualifierKeywords.count(inner.text) != 0 ||
           inner.text == "struct" || inner.text == "union" ||
           inner.text == "enum" || typedefs_.count(inner.text) != 0;
  }

  // Parses a type name inside parentheses (after '(' consumed).
  Result<TypeName> ParseTypeNameRest() {
    FRAPPE_ASSIGN_OR_RETURN(DeclSpecs specs, ParseDeclSpecs());
    TypeName type = specs.type;
    while (true) {
      if (AcceptPunct("*")) {
        ++type.pointer_depth;
        continue;
      }
      if (Peek().kind == CToken::Kind::kIdent &&
          kQualifierKeywords.count(Peek().text)) {
        Advance();
        continue;
      }
      break;
    }
    while (AcceptPunct("[")) {
      if (Peek().kind == CToken::Kind::kNumber) {
        type.array_dims.push_back(ParseNumberText(Advance().text));
      } else {
        type.array_dims.push_back(-1);
      }
      FRAPPE_RETURN_IF_ERROR(ExpectPunct("]"));
    }
    return type;
  }

  Result<ExprPtr> ParseUnary() {
    const CToken& t = Peek();
    // Cast.
    if (ParenIsType()) {
      size_t save = pos_;
      Advance();  // (
      Result<TypeName> type = ParseTypeNameRest();
      if (type.ok() && Peek().IsPunct(")")) {
        Advance();  // )
        // `(type){...}` compound literal or `(type)expr` cast; either way
        // the operand follows.
        FRAPPE_ASSIGN_OR_RETURN(ExprPtr operand,
                                Peek().IsPunct("{") ? ParseInitializer()
                                                    : ParseUnary());
        auto expr = std::make_unique<Expr>();
        expr->kind = ExprKind::kCast;
        SetStart(expr.get(), t);
        expr->type = *type;
        expr->lhs = std::move(operand);
        SetEnd(expr.get());
        return expr;
      }
      pos_ = save;  // not a cast after all
    }
    if (t.IsIdent("sizeof") || t.IsIdent("_Alignof") ||
        t.IsIdent("__alignof__")) {
      bool is_align = !t.IsIdent("sizeof");
      Advance();
      auto expr = std::make_unique<Expr>();
      expr->kind = is_align ? ExprKind::kAlignof : ExprKind::kSizeof;
      SetStart(expr.get(), t);
      if (ParenIsType()) {
        Advance();  // (
        FRAPPE_ASSIGN_OR_RETURN(expr->type, ParseTypeNameRest());
        FRAPPE_RETURN_IF_ERROR(ExpectPunct(")"));
      } else {
        FRAPPE_ASSIGN_OR_RETURN(expr->lhs, ParseUnary());
      }
      SetEnd(expr.get());
      return expr;
    }
    static const std::set<std::string_view> kUnaryOps = {
        "*", "&", "!", "~", "-", "+", "++", "--"};
    if (t.kind == CToken::Kind::kPunct && kUnaryOps.count(t.text)) {
      std::string_view op = Advance().text;
      FRAPPE_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kUnary;
      expr->text = op;
      SetStart(expr.get(), t);
      expr->lhs = std::move(operand);
      SetEnd(expr.get());
      return expr;
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    FRAPPE_ASSIGN_OR_RETURN(ExprPtr expr, ParsePrimary());
    while (true) {
      const CToken& t = Peek();
      if (t.IsPunct("(")) {
        Advance();
        auto call = std::make_unique<Expr>();
        call->kind = ExprKind::kCall;
        call->loc = expr->loc;
        call->in_macro = expr->in_macro;
        call->lhs = std::move(expr);
        if (!Peek().IsPunct(")")) {
          while (true) {
            FRAPPE_ASSIGN_OR_RETURN(ExprPtr arg, ParseAssignment());
            call->args.push_back(std::move(arg));
            if (!AcceptPunct(",")) break;
          }
        }
        FRAPPE_RETURN_IF_ERROR(ExpectPunct(")"));
        SetEnd(call.get());
        expr = std::move(call);
        continue;
      }
      if (t.IsPunct("[")) {
        Advance();
        auto index = std::make_unique<Expr>();
        index->kind = ExprKind::kIndex;
        index->loc = expr->loc;
        index->in_macro = expr->in_macro;
        index->lhs = std::move(expr);
        FRAPPE_ASSIGN_OR_RETURN(index->rhs, ParseExpression());
        FRAPPE_RETURN_IF_ERROR(ExpectPunct("]"));
        SetEnd(index.get());
        expr = std::move(index);
        continue;
      }
      if (t.IsPunct(".") || t.IsPunct("->")) {
        bool arrow = t.IsPunct("->");
        Advance();
        if (Peek().kind != CToken::Kind::kIdent) {
          return ErrorHere("expected member name");
        }
        const CToken& member = Advance();
        auto access = std::make_unique<Expr>();
        access->kind = ExprKind::kMember;
        access->loc = expr->loc;
        access->in_macro = expr->in_macro || member.in_macro;
        access->arrow = arrow;
        access->text = member.text;
        access->lhs = std::move(expr);
        access->end_loc = member.loc;
        access->end_len = member.length;
        expr = std::move(access);
        continue;
      }
      if (t.IsPunct("++") || t.IsPunct("--")) {
        std::string_view op = Advance().text;
        auto postfix = std::make_unique<Expr>();
        postfix->kind = ExprKind::kPostfix;
        postfix->text = op;
        postfix->loc = expr->loc;
        postfix->in_macro = expr->in_macro;
        postfix->lhs = std::move(expr);
        SetEnd(postfix.get());
        expr = std::move(postfix);
        continue;
      }
      break;
    }
    return expr;
  }

  Result<ExprPtr> ParsePrimary() {
    const CToken& t = Peek();
    if (t.IsPunct("(")) {
      // GNU statement expression `({ ... })`: tolerated as an opaque value
      // (its internal references are not extracted — documented subset
      // limitation).
      if (Peek(1).IsPunct("{")) {
        Advance();  // (
        SkipBalancedBraces();
        FRAPPE_RETURN_IF_ERROR(ExpectPunct(")"));
        auto opaque = std::make_unique<Expr>();
        opaque->kind = ExprKind::kNumber;
        opaque->text = "0";
        SetStart(opaque.get(), t);
        SetEnd(opaque.get());
        return opaque;
      }
      Advance();
      FRAPPE_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpression());
      FRAPPE_RETURN_IF_ERROR(ExpectPunct(")"));
      return inner;
    }
    auto expr = std::make_unique<Expr>();
    SetStart(expr.get(), t);
    expr->end_loc = t.loc;
    expr->end_len = t.length;
    switch (t.kind) {
      case CToken::Kind::kIdent:
        expr->kind = ExprKind::kIdent;
        expr->text = t.text;
        Advance();
        return expr;
      case CToken::Kind::kNumber:
        expr->kind = ExprKind::kNumber;
        expr->text = t.text;
        Advance();
        return expr;
      case CToken::Kind::kString: {
        expr->kind = ExprKind::kString;
        expr->text = t.text;
        Advance();
        // Adjacent string literal concatenation.
        while (Peek().kind == CToken::Kind::kString) Advance();
        return expr;
      }
      case CToken::Kind::kCharLit:
        expr->kind = ExprKind::kCharLit;
        expr->text = t.text;
        Advance();
        return expr;
      default:
        return ErrorHere("expected expression");
    }
  }

  const std::vector<CToken>& tokens_;
  size_t pos_ = 0;
  TranslationUnit unit_;
  std::set<std::string, std::less<>> typedefs_;
  std::set<std::string, std::less<>> enumerators_;
  int anon_counter_ = 0;
};

}  // namespace

Result<TranslationUnit> ParseUnit(const PreprocessedUnit& unit) {
  Parser parser(unit);
  return parser.Run();
}

}  // namespace frappe::extractor
