#include "query/parser.h"

#include <utility>

#include "common/string_util.h"
#include "query/lexer.h"

namespace frappe::query {

namespace {

// Keywords that terminate an expression or pattern region.
bool IsClauseKeyword(const Token& t) {
  return t.IsKeyword("start") || t.IsKeyword("match") ||
         t.IsKeyword("where") || t.IsKeyword("with") ||
         t.IsKeyword("return") || t.IsKeyword("order") ||
         t.IsKeyword("limit") || t.IsKeyword("skip");
}

// Reserved words that can never be variable names in value position.
bool IsReservedIdent(const Token& t) {
  return IsClauseKeyword(t) || t.IsKeyword("and") || t.IsKeyword("or") ||
         t.IsKeyword("not") || t.IsKeyword("distinct") || t.IsKeyword("as") ||
         t.IsKeyword("by") || t.IsKeyword("asc") || t.IsKeyword("desc");
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> ParseQuery() {
    Query query;
    // EXPLAIN / PROFILE prefix keywords (at most one, before any clause).
    if (Peek().IsKeyword("explain")) {
      query.mode = QueryMode::kExplain;
      Advance();
    } else if (Peek().IsKeyword("profile")) {
      query.mode = QueryMode::kProfile;
      Advance();
    }
    while (!At(TokenType::kEnd)) {
      const Token& t = Peek();
      if (t.IsKeyword("start")) {
        Advance();
        FRAPPE_ASSIGN_OR_RETURN(StartClause clause, ParseStart());
        query.clauses.emplace_back(std::move(clause));
      } else if (t.IsKeyword("match")) {
        Advance();
        FRAPPE_ASSIGN_OR_RETURN(MatchClause clause, ParseMatch());
        query.clauses.emplace_back(std::move(clause));
      } else if (t.IsKeyword("where")) {
        Advance();
        WhereClause clause;
        FRAPPE_ASSIGN_OR_RETURN(clause.predicate, ParseExpr());
        query.clauses.emplace_back(std::move(clause));
      } else if (t.IsKeyword("with")) {
        Advance();
        FRAPPE_ASSIGN_OR_RETURN(WithClause clause, ParseWith());
        query.clauses.emplace_back(std::move(clause));
      } else if (t.IsKeyword("return")) {
        Advance();
        FRAPPE_ASSIGN_OR_RETURN(ReturnClause clause, ParseReturn());
        query.clauses.emplace_back(std::move(clause));
      } else {
        return Error("expected a clause keyword, got " + TokenDescription(t));
      }
    }
    if (query.clauses.empty()) return Error("empty query");
    return query;
  }

 private:
  // --- token plumbing ---

  const Token& Peek(size_t ahead = 0) const {
    size_t idx = pos_ + ahead;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  bool At(TokenType type) const { return Peek().type == type; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Accept(TokenType type) {
    if (!At(type)) return false;
    ++pos_;
    return true;
  }
  Status Expect(TokenType type, std::string_view what) {
    if (!At(type)) {
      return Status::ParseError("expected " + std::string(what) + ", got " +
                                TokenDescription(Peek()) + " at offset " +
                                std::to_string(Peek().offset));
    }
    ++pos_;
    return Status::OK();
  }
  Status Error(std::string message) const {
    return Status::ParseError(message + " (offset " +
                              std::to_string(Peek().offset) + ")");
  }
  size_t Save() const { return pos_; }
  void Restore(size_t save) { pos_ = save; }

  // --- clauses ---

  Result<StartClause> ParseStart() {
    StartClause clause;
    do {
      StartItem item;
      if (!At(TokenType::kIdent) || IsReservedIdent(Peek())) {
        return Error("expected variable name in START");
      }
      item.var = Advance().text;
      FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kEq, "'=' in START item"));
      if (!Peek().IsKeyword("node")) {
        return Error("expected 'node' in START item");
      }
      Advance();
      if (Accept(TokenType::kColon)) {
        // node:node_auto_index('...'). The index name is accepted and
        // ignored — Frappé has a single auto index, like the paper.
        if (!At(TokenType::kIdent)) return Error("expected index name");
        Advance();
        FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
        if (!At(TokenType::kString)) {
          return Error("expected quoted index query");
        }
        item.kind = StartItem::Kind::kIndexQuery;
        item.index_query = Advance().text;
        FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      } else if (Accept(TokenType::kLParen)) {
        if (Accept(TokenType::kStar)) {
          item.kind = StartItem::Kind::kAllNodes;
        } else {
          item.kind = StartItem::Kind::kByIds;
          do {
            if (!At(TokenType::kInt)) return Error("expected node id");
            item.ids.push_back(
                static_cast<uint64_t>(Advance().int_value));
          } while (Accept(TokenType::kComma));
        }
        FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      } else {
        return Error("expected ':' or '(' after 'node'");
      }
      clause.items.push_back(std::move(item));
    } while (Accept(TokenType::kComma));
    return clause;
  }

  Result<MatchClause> ParseMatch() {
    MatchClause clause;
    do {
      FRAPPE_ASSIGN_OR_RETURN(PatternChain chain, ParsePatternChain());
      clause.chains.push_back(std::move(chain));
    } while (Accept(TokenType::kComma));
    return clause;
  }

  Result<WithClause> ParseWith() {
    WithClause clause;
    if (Peek().IsKeyword("distinct")) {
      Advance();
      clause.distinct = true;
    }
    FRAPPE_ASSIGN_OR_RETURN(clause.items, ParseProjectionItems());
    return clause;
  }

  Result<ReturnClause> ParseReturn() {
    ReturnClause clause;
    if (Peek().IsKeyword("distinct")) {
      Advance();
      clause.distinct = true;
    }
    FRAPPE_ASSIGN_OR_RETURN(clause.items, ParseProjectionItems());
    if (Peek().IsKeyword("order")) {
      Advance();
      if (!Peek().IsKeyword("by")) return Error("expected BY after ORDER");
      Advance();
      do {
        OrderItem item;
        FRAPPE_ASSIGN_OR_RETURN(item.expr, ParseValue());
        if (Peek().IsKeyword("desc")) {
          Advance();
          item.ascending = false;
        } else if (Peek().IsKeyword("asc")) {
          Advance();
        }
        clause.order_by.push_back(std::move(item));
      } while (Accept(TokenType::kComma));
    }
    if (Peek().IsKeyword("skip")) {
      Advance();
      if (!At(TokenType::kInt)) return Error("expected integer after SKIP");
      clause.skip = Advance().int_value;
    }
    if (Peek().IsKeyword("limit")) {
      Advance();
      if (!At(TokenType::kInt)) return Error("expected integer after LIMIT");
      clause.limit = Advance().int_value;
    }
    return clause;
  }

  Result<std::vector<ProjectionItem>> ParseProjectionItems() {
    std::vector<ProjectionItem> items;
    do {
      ProjectionItem item;
      FRAPPE_ASSIGN_OR_RETURN(item.expr, ParseValue());
      if (Peek().IsKeyword("as")) {
        Advance();
        if (!At(TokenType::kIdent)) return Error("expected alias after AS");
        item.alias = Advance().text;
      } else {
        item.alias = DeriveAlias(*item.expr);
      }
      items.push_back(std::move(item));
    } while (Accept(TokenType::kComma));
    return items;
  }

  static std::string DeriveAlias(const Expr& expr) {
    if (const auto* v = std::get_if<VarExpr>(&expr.node)) return v->name;
    if (const auto* p = std::get_if<PropExpr>(&expr.node)) {
      return p->var + "." + p->key;
    }
    if (const auto* c = std::get_if<CallExpr>(&expr.node)) {
      if (c->star) return c->function + "(*)";
      return c->function + "(...)";
    }
    return "expr";
  }

  // --- patterns ---

  // True if the upcoming tokens begin a relationship pattern.
  bool AtRelStart() const {
    if (At(TokenType::kMinus)) return true;
    return At(TokenType::kLt) && Peek(1).type == TokenType::kMinus;
  }

  Result<PatternChain> ParsePatternChain() {
    // shortestPath((a)-[:t*]->(b)) — paper Section 4.4's "shortest path
    // queries are also useful" use case.
    if (Peek().IsKeyword("shortestpath") &&
        Peek(1).type == TokenType::kLParen) {
      Advance();  // shortestPath
      Advance();  // (
      FRAPPE_ASSIGN_OR_RETURN(PatternChain inner, ParsePatternChain());
      FRAPPE_RETURN_IF_ERROR(
          Expect(TokenType::kRParen, "')' closing shortestPath"));
      if (inner.rels.size() != 1 || !inner.rels[0].var_length) {
        return Error(
            "shortestPath expects a single variable-length relationship");
      }
      inner.shortest = true;
      return inner;
    }
    PatternChain chain;
    FRAPPE_ASSIGN_OR_RETURN(NodePattern first, ParseNodePattern());
    chain.nodes.push_back(std::move(first));
    while (AtRelStart()) {
      FRAPPE_ASSIGN_OR_RETURN(RelPattern rel, ParseRelPattern());
      chain.rels.push_back(std::move(rel));
      FRAPPE_ASSIGN_OR_RETURN(NodePattern node, ParseNodePattern());
      chain.nodes.push_back(std::move(node));
    }
    return chain;
  }

  Result<NodePattern> ParseNodePattern() {
    NodePattern node;
    if (At(TokenType::kIdent) && !IsReservedIdent(Peek())) {
      node.var = Advance().text;
      return node;
    }
    FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kLParen, "node pattern"));
    if (At(TokenType::kIdent) && !IsReservedIdent(Peek())) {
      node.var = Advance().text;
    }
    while (Accept(TokenType::kColon)) {
      if (!At(TokenType::kIdent)) return Error("expected label name");
      node.labels.push_back(Advance().text);
    }
    if (At(TokenType::kLBrace)) {
      FRAPPE_ASSIGN_OR_RETURN(node.props, ParsePropMap());
    }
    FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')' in node pattern"));
    return node;
  }

  Result<RelPattern> ParseRelPattern() {
    RelPattern rel;
    bool incoming = false;
    if (Accept(TokenType::kLt)) {
      FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kMinus, "'-' after '<'"));
      incoming = true;
    } else {
      FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kMinus, "'-'"));
    }
    if (Accept(TokenType::kLBracket)) {
      FRAPPE_RETURN_IF_ERROR(ParseRelDetail(&rel));
      FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'"));
    }
    FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kMinus, "'-' closing relationship"));
    bool outgoing = false;
    if (!incoming && Accept(TokenType::kGt)) outgoing = true;
    if (incoming) {
      rel.direction = graph::Direction::kIn;
    } else if (outgoing) {
      rel.direction = graph::Direction::kOut;
    } else {
      rel.direction = graph::Direction::kBoth;
    }
    return rel;
  }

  Status ParseRelDetail(RelPattern* rel) {
    if (At(TokenType::kIdent) && !IsReservedIdent(Peek())) {
      rel->var = Advance().text;
    }
    if (Accept(TokenType::kColon)) {
      if (!At(TokenType::kIdent)) return Error("expected relationship type");
      rel->types.push_back(Advance().text);
      while (Accept(TokenType::kPipe)) {
        Accept(TokenType::kColon);  // `|:type` (Cypher 2.x) or `|type` (1.x)
        if (!At(TokenType::kIdent)) {
          return Error("expected relationship type after '|'");
        }
        rel->types.push_back(Advance().text);
      }
    }
    if (Accept(TokenType::kStar)) {
      rel->var_length = true;
      rel->min_length = 1;
      rel->max_length = kUnboundedLength;
      if (At(TokenType::kInt)) {
        int64_t n = Advance().int_value;
        if (n < 0) return Error("negative path length");
        rel->min_length = static_cast<uint32_t>(n);
        rel->max_length = static_cast<uint32_t>(n);
        if (Accept(TokenType::kDotDot)) {
          rel->max_length = kUnboundedLength;
          if (At(TokenType::kInt)) {
            rel->max_length = static_cast<uint32_t>(Advance().int_value);
          }
        }
      } else if (Accept(TokenType::kDotDot)) {
        // `*..3`
        if (At(TokenType::kInt)) {
          rel->max_length = static_cast<uint32_t>(Advance().int_value);
        }
      }
      if (rel->min_length > rel->max_length) {
        return Error("path length range is empty");
      }
    }
    if (At(TokenType::kLBrace)) {
      FRAPPE_ASSIGN_OR_RETURN(rel->props, ParsePropMap());
    }
    return Status::OK();
  }

  Result<std::vector<PropConstraint>> ParsePropMap() {
    std::vector<PropConstraint> props;
    FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kLBrace, "'{'"));
    if (!Accept(TokenType::kRBrace)) {
      do {
        PropConstraint prop;
        if (!At(TokenType::kIdent)) return Error("expected property name");
        prop.key = Advance().text;
        FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kColon, "':'"));
        FRAPPE_ASSIGN_OR_RETURN(prop.value, ParseLiteral());
        props.push_back(std::move(prop));
      } while (Accept(TokenType::kComma));
      FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kRBrace, "'}'"));
    }
    return props;
  }

  Result<Literal> ParseLiteral() {
    bool negative = Accept(TokenType::kMinus);
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInt:
        Advance();
        return Literal::Int(negative ? -t.int_value : t.int_value);
      case TokenType::kDouble:
        Advance();
        return Literal::Double(negative ? -t.double_value : t.double_value);
      case TokenType::kString:
        if (negative) return Error("'-' before string literal");
        Advance();
        return Literal::String(t.text);
      case TokenType::kIdent:
        if (negative) return Error("'-' before identifier");
        if (t.IsKeyword("true")) {
          Advance();
          return Literal::Bool(true);
        }
        if (t.IsKeyword("false")) {
          Advance();
          return Literal::Bool(false);
        }
        if (t.IsKeyword("null")) {
          Advance();
          return Literal::Null();
        }
        return Error("expected literal, got " + TokenDescription(t));
      default:
        return Error("expected literal, got " + TokenDescription(t));
    }
  }

  // --- expressions ---

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    FRAPPE_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (Peek().IsKeyword("or")) {
      Advance();
      FRAPPE_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      auto expr = std::make_unique<Expr>();
      expr->node = BoolExpr{BoolOp::kOr, std::move(left), std::move(right)};
      left = std::move(expr);
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    FRAPPE_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (Peek().IsKeyword("and")) {
      Advance();
      FRAPPE_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      auto expr = std::make_unique<Expr>();
      expr->node = BoolExpr{BoolOp::kAnd, std::move(left), std::move(right)};
      left = std::move(expr);
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (Peek().IsKeyword("not")) {
      Advance();
      FRAPPE_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
      auto expr = std::make_unique<Expr>();
      expr->node = NotExpr{std::move(inner)};
      return expr;
    }
    return ParseCondition();
  }

  // A condition is a pattern predicate, a comparison, or a bare boolean
  // value expression.
  Result<ExprPtr> ParseCondition() {
    // Attempt a pattern predicate first; roll back unless the parse
    // succeeds AND the chain has at least one relationship (a bare variable
    // or parenthesized expression must be treated as a value).
    size_t save = Save();
    if (At(TokenType::kIdent) || At(TokenType::kLParen)) {
      Result<PatternChain> chain = ParsePatternChain();
      if (chain.ok() && !chain->rels.empty()) {
        auto expr = std::make_unique<Expr>();
        expr->node = PatternExpr{std::move(*chain)};
        return expr;
      }
      Restore(save);
    }
    FRAPPE_ASSIGN_OR_RETURN(ExprPtr left, ParseValue());
    CompareOp op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = CompareOp::kEq;
        break;
      case TokenType::kNe:
        op = CompareOp::kNe;
        break;
      case TokenType::kLt:
        op = CompareOp::kLt;
        break;
      case TokenType::kLe:
        op = CompareOp::kLe;
        break;
      case TokenType::kGt:
        op = CompareOp::kGt;
        break;
      case TokenType::kGe:
        op = CompareOp::kGe;
        break;
      default:
        return left;  // bare value used as condition
    }
    Advance();
    FRAPPE_ASSIGN_OR_RETURN(ExprPtr right, ParseValue());
    auto expr = std::make_unique<Expr>();
    expr->node = CompareExpr{op, std::move(left), std::move(right)};
    return expr;
  }

  // Value-level expression: literal, variable, property access, function
  // call, or parenthesized boolean expression.
  Result<ExprPtr> ParseValue() {
    const Token& t = Peek();
    if (t.type == TokenType::kLParen) {
      Advance();
      FRAPPE_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
      FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return inner;
    }
    if (t.type == TokenType::kIdent && !IsReservedIdent(t)) {
      // Function call?
      if (Peek(1).type == TokenType::kLParen) {
        return ParseCall();
      }
      std::string var = Advance().text;
      if (Accept(TokenType::kDot)) {
        if (!At(TokenType::kIdent)) return Error("expected property name");
        auto expr = std::make_unique<Expr>();
        expr->node = PropExpr{std::move(var), Advance().text};
        return expr;
      }
      auto expr = std::make_unique<Expr>();
      expr->node = VarExpr{std::move(var)};
      return expr;
    }
    // Literals (including keywords true/false/null).
    FRAPPE_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
    auto expr = std::make_unique<Expr>();
    expr->node = LiteralExpr{std::move(lit)};
    return expr;
  }

  Result<ExprPtr> ParseCall() {
    CallExpr call;
    call.function = ToLower(Advance().text);
    FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    if (Accept(TokenType::kStar)) {
      call.star = true;
    } else if (!At(TokenType::kRParen)) {
      if (Peek().IsKeyword("distinct")) {
        Advance();
        call.distinct = true;
      }
      do {
        FRAPPE_ASSIGN_OR_RETURN(ExprPtr arg, ParseValue());
        call.args.push_back(std::move(arg));
      } while (Accept(TokenType::kComma));
    }
    FRAPPE_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    auto expr = std::make_unique<Expr>();
    expr->node = std::move(call);
    return expr;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> Parse(std::string_view input) {
  FRAPPE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

}  // namespace frappe::query
