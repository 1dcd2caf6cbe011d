#include "query/parser.h"

#include <gtest/gtest.h>

#include <string>

#include "query/lexer.h"

namespace frappe::query {
namespace {

const StartClause& AsStart(const Clause& c) {
  return std::get<StartClause>(c);
}
const MatchClause& AsMatch(const Clause& c) {
  return std::get<MatchClause>(c);
}
const WhereClause& AsWhere(const Clause& c) {
  return std::get<WhereClause>(c);
}
const ReturnClause& AsReturn(const Clause& c) {
  return std::get<ReturnClause>(c);
}

TEST(ParserTest, StartIndexQuery) {
  auto q = Parse("START n=node:node_auto_index('short_name: id') RETURN n");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->clauses.size(), 2u);
  const StartClause& start = AsStart(q->clauses[0]);
  ASSERT_EQ(start.items.size(), 1u);
  EXPECT_EQ(start.items[0].var, "n");
  EXPECT_EQ(start.items[0].kind, StartItem::Kind::kIndexQuery);
  EXPECT_EQ(start.items[0].index_query, "short_name: id");
}

TEST(ParserTest, StartMultipleItems) {
  auto q = Parse(
      "START from=node:node_auto_index('short_name: a'),"
      "      to=node:node_auto_index('short_name: b') RETURN from");
  ASSERT_TRUE(q.ok()) << q.status();
  const StartClause& start = AsStart(q->clauses[0]);
  ASSERT_EQ(start.items.size(), 2u);
  EXPECT_EQ(start.items[0].var, "from");
  EXPECT_EQ(start.items[1].var, "to");
}

TEST(ParserTest, StartByIdAndAll) {
  auto q = Parse("START a=node(3, 5), b=node(*) RETURN a");
  ASSERT_TRUE(q.ok()) << q.status();
  const StartClause& start = AsStart(q->clauses[0]);
  EXPECT_EQ(start.items[0].kind, StartItem::Kind::kByIds);
  EXPECT_EQ(start.items[0].ids, (std::vector<uint64_t>{3, 5}));
  EXPECT_EQ(start.items[1].kind, StartItem::Kind::kAllNodes);
}

TEST(ParserTest, MatchSimpleOutgoing) {
  auto q = Parse("MATCH n -[:calls]-> m RETURN m");
  ASSERT_TRUE(q.ok()) << q.status();
  const MatchClause& match = AsMatch(q->clauses[0]);
  ASSERT_EQ(match.chains.size(), 1u);
  const PatternChain& chain = match.chains[0];
  ASSERT_EQ(chain.nodes.size(), 2u);
  ASSERT_EQ(chain.rels.size(), 1u);
  EXPECT_EQ(chain.nodes[0].var, "n");
  EXPECT_EQ(chain.nodes[1].var, "m");
  EXPECT_EQ(chain.rels[0].types, std::vector<std::string>{"calls"});
  EXPECT_EQ(chain.rels[0].direction, graph::Direction::kOut);
  EXPECT_FALSE(chain.rels[0].var_length);
}

TEST(ParserTest, MatchIncomingAndUndirected) {
  auto q = Parse("MATCH a <-[:x]- b -- c RETURN a");
  ASSERT_TRUE(q.ok()) << q.status();
  const PatternChain& chain = AsMatch(q->clauses[0]).chains[0];
  ASSERT_EQ(chain.rels.size(), 2u);
  EXPECT_EQ(chain.rels[0].direction, graph::Direction::kIn);
  EXPECT_EQ(chain.rels[1].direction, graph::Direction::kBoth);
  EXPECT_TRUE(chain.rels[1].types.empty());
}

TEST(ParserTest, MatchBareArrow) {
  auto q = Parse("MATCH a --> b RETURN b");
  ASSERT_TRUE(q.ok()) << q.status();
  const PatternChain& chain = AsMatch(q->clauses[0]).chains[0];
  EXPECT_EQ(chain.rels[0].direction, graph::Direction::kOut);
  EXPECT_TRUE(chain.rels[0].types.empty());
}

TEST(ParserTest, TypeAlternation) {
  auto q = Parse("MATCH m -[:compiled_from|linked_from*]-> f RETURN f");
  ASSERT_TRUE(q.ok()) << q.status();
  const RelPattern& rel = AsMatch(q->clauses[0]).chains[0].rels[0];
  EXPECT_EQ(rel.types,
            (std::vector<std::string>{"compiled_from", "linked_from"}));
  EXPECT_TRUE(rel.var_length);
  EXPECT_EQ(rel.min_length, 1u);
  EXPECT_EQ(rel.max_length, kUnboundedLength);
}

TEST(ParserTest, TypeAlternationWithRepeatedColon) {
  auto q = Parse("MATCH m -[:a|:b]-> f RETURN f");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(AsMatch(q->clauses[0]).chains[0].rels[0].types,
            (std::vector<std::string>{"a", "b"}));
}

TEST(ParserTest, VarLengthRanges) {
  auto q = Parse("MATCH a -[*2]-> b, c -[*1..3]-> d, e -[*..4]-> f RETURN a");
  ASSERT_TRUE(q.ok()) << q.status();
  const MatchClause& match = AsMatch(q->clauses[0]);
  ASSERT_EQ(match.chains.size(), 3u);
  EXPECT_EQ(match.chains[0].rels[0].min_length, 2u);
  EXPECT_EQ(match.chains[0].rels[0].max_length, 2u);
  EXPECT_EQ(match.chains[1].rels[0].min_length, 1u);
  EXPECT_EQ(match.chains[1].rels[0].max_length, 3u);
  EXPECT_EQ(match.chains[2].rels[0].min_length, 1u);
  EXPECT_EQ(match.chains[2].rels[0].max_length, 4u);
}

TEST(ParserTest, NodeLabelsAndProps) {
  auto q = Parse("MATCH (n:container:symbol {name: 'foo'}) RETURN n");
  ASSERT_TRUE(q.ok()) << q.status();
  const NodePattern& node = AsMatch(q->clauses[0]).chains[0].nodes[0];
  EXPECT_EQ(node.var, "n");
  EXPECT_EQ(node.labels, (std::vector<std::string>{"container", "symbol"}));
  ASSERT_EQ(node.props.size(), 1u);
  EXPECT_EQ(node.props[0].key, "name");
  EXPECT_EQ(node.props[0].value.kind, Literal::Kind::kString);
  EXPECT_EQ(node.props[0].value.string_value, "foo");
}

TEST(ParserTest, AnonymousNodeWithProps) {
  auto q = Parse("MATCH writer -[w:writes_member]-> ({SHORT_NAME:'cmd'}) "
                 "RETURN writer");
  ASSERT_TRUE(q.ok()) << q.status();
  const PatternChain& chain = AsMatch(q->clauses[0]).chains[0];
  EXPECT_TRUE(chain.nodes[1].var.empty());
  ASSERT_EQ(chain.nodes[1].props.size(), 1u);
  EXPECT_EQ(chain.nodes[1].props[0].key, "SHORT_NAME");
  EXPECT_EQ(chain.rels[0].var, "w");
}

TEST(ParserTest, RelPropertyMap) {
  auto q = Parse("MATCH a -[r:calls {use_start_line: 236}]-> b RETURN r");
  ASSERT_TRUE(q.ok()) << q.status();
  const RelPattern& rel = AsMatch(q->clauses[0]).chains[0].rels[0];
  ASSERT_EQ(rel.props.size(), 1u);
  EXPECT_EQ(rel.props[0].key, "use_start_line");
  EXPECT_EQ(rel.props[0].value.int_value, 236);
}

TEST(ParserTest, NegativeNumberLiteralInProps) {
  auto q = Parse("MATCH (n {value: -3}) RETURN n");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(AsMatch(q->clauses[0]).chains[0].nodes[0].props[0].value.int_value,
            -3);
}

TEST(ParserTest, WherePatternPredicate) {
  auto q = Parse("START n=node(1) WHERE (n) <-[{name_start_line: 104}]- () "
                 "RETURN n");
  ASSERT_TRUE(q.ok()) << q.status();
  const WhereClause& where = AsWhere(q->clauses[1]);
  const auto* pattern = std::get_if<PatternExpr>(&where.predicate->node);
  ASSERT_NE(pattern, nullptr);
  EXPECT_EQ(pattern->chain.rels.size(), 1u);
  EXPECT_EQ(pattern->chain.rels[0].direction, graph::Direction::kIn);
  EXPECT_EQ(pattern->chain.rels[0].props.size(), 1u);
}

TEST(ParserTest, WhereComparisonAndPattern) {
  auto q = Parse(
      "START n=node(1) "
      "WHERE r.use_start_line >= s.use_start_line AND direct -[:calls*]-> w "
      "RETURN n");
  ASSERT_TRUE(q.ok()) << q.status();
  const WhereClause& where = AsWhere(q->clauses[1]);
  const auto* boolean = std::get_if<BoolExpr>(&where.predicate->node);
  ASSERT_NE(boolean, nullptr);
  EXPECT_EQ(boolean->op, BoolOp::kAnd);
  EXPECT_NE(std::get_if<CompareExpr>(&boolean->left->node), nullptr);
  EXPECT_NE(std::get_if<PatternExpr>(&boolean->right->node), nullptr);
}

TEST(ParserTest, WhereOperatorPrecedenceOrOverAnd) {
  auto q = Parse("START n=node(1) WHERE a = 1 AND b = 2 OR c = 3 RETURN n");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto* top = std::get_if<BoolExpr>(&AsWhere(q->clauses[1])
                                              .predicate->node);
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->op, BoolOp::kOr);
  const auto* left = std::get_if<BoolExpr>(&top->left->node);
  ASSERT_NE(left, nullptr);
  EXPECT_EQ(left->op, BoolOp::kAnd);
}

TEST(ParserTest, WhereNot) {
  auto q = Parse("START n=node(1) WHERE NOT n.flag = true RETURN n");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_NE(std::get_if<NotExpr>(&AsWhere(q->clauses[1]).predicate->node),
            nullptr);
}

TEST(ParserTest, WithDistinctAndReturnDistinct) {
  auto q = Parse(
      "START n=node(1) MATCH n --> f WITH distinct f "
      "MATCH f --> g RETURN distinct g");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->clauses.size(), 5u);
  const WithClause& with = std::get<WithClause>(q->clauses[2]);
  EXPECT_TRUE(with.distinct);
  ASSERT_EQ(with.items.size(), 1u);
  EXPECT_EQ(with.items[0].alias, "f");
  EXPECT_TRUE(AsReturn(q->clauses[4]).distinct);
}

TEST(ParserTest, ReturnItemsWithAliasesAndProps) {
  auto q = Parse("START n=node(1) RETURN n AS node_alias, n.short_name");
  ASSERT_TRUE(q.ok()) << q.status();
  const ReturnClause& ret = AsReturn(q->clauses[1]);
  ASSERT_EQ(ret.items.size(), 2u);
  EXPECT_EQ(ret.items[0].alias, "node_alias");
  EXPECT_EQ(ret.items[1].alias, "n.short_name");
}

TEST(ParserTest, ReturnOrderSkipLimit) {
  auto q = Parse(
      "START n=node(*) RETURN n ORDER BY n.short_name DESC, n.name "
      "SKIP 2 LIMIT 10");
  ASSERT_TRUE(q.ok()) << q.status();
  const ReturnClause& ret = AsReturn(q->clauses[1]);
  ASSERT_EQ(ret.order_by.size(), 2u);
  EXPECT_FALSE(ret.order_by[0].ascending);
  EXPECT_TRUE(ret.order_by[1].ascending);
  EXPECT_EQ(ret.skip, 2);
  EXPECT_EQ(ret.limit, 10);
}

TEST(ParserTest, CountVariants) {
  auto q = Parse("START n=node(*) RETURN count(*), count(n), "
                 "count(distinct n)");
  ASSERT_TRUE(q.ok()) << q.status();
  const ReturnClause& ret = AsReturn(q->clauses[1]);
  const auto& star = std::get<CallExpr>(ret.items[0].expr->node);
  EXPECT_TRUE(star.star);
  const auto& plain = std::get<CallExpr>(ret.items[1].expr->node);
  EXPECT_FALSE(plain.star);
  EXPECT_FALSE(plain.distinct);
  const auto& distinct = std::get<CallExpr>(ret.items[2].expr->node);
  EXPECT_TRUE(distinct.distinct);
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  auto q = Parse("start n=node(1) match n --> m return m");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->clauses.size(), 3u);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("BOGUS n").ok());
  EXPECT_FALSE(Parse("START n node(1) RETURN n").ok());          // missing =
  EXPECT_FALSE(Parse("START n=node(1) RETURN").ok());            // no items
  EXPECT_FALSE(Parse("MATCH n -[:x> m RETURN m").ok());          // bad rel
  EXPECT_FALSE(Parse("MATCH (n RETURN n").ok());                 // unclosed
  EXPECT_FALSE(Parse("MATCH a -[*3..1]-> b RETURN a").ok());     // empty range
  EXPECT_FALSE(Parse("START n=node(1) WHERE RETURN n").ok());    // no expr
  EXPECT_FALSE(Parse("START n=node(1) RETURN n LIMIT x").ok());  // bad limit
  EXPECT_FALSE(Parse("ANALYZE").ok());                           // no command
}

TEST(ParserTest, ErrorsEchoLongTokensCutShort) {
  // A megabyte token must not make a megabyte message: it reaches the HTTP
  // 400 body and the slow-query log.
  auto q = Parse("'" + std::string(1 << 20, 'x') + "'");
  ASSERT_FALSE(q.ok());
  const std::string& message = q.status().message();
  EXPECT_NE(message.find("got string '" + std::string(kErrorEchoBytes, 'x') +
                         "\u2026'"),
            std::string::npos)
      << message;
  EXPECT_LE(message.size(), 120u) << message;

  auto ident = Parse(std::string(1 << 20, 'a'));
  ASSERT_FALSE(ident.ok());
  EXPECT_LE(ident.status().message().size(), 120u)
      << ident.status().message();
}

TEST(ParserTest, PaperFigure3Parses) {
  auto q = Parse(R"(
    START m=node:node_auto_index('short_name: wakeup.elf')
    MATCH m -[:compiled_from|linked_from*]-> f
    WITH distinct f
    MATCH f -[:file_contains]-> (n:field{short_name: 'id'})
    RETURN n
  )");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->clauses.size(), 5u);
}

TEST(ParserTest, PaperFigure5Parses) {
  auto q = Parse(R"(
    START from=node:node_auto_index('short_name: sr_media_change'),
          to=node:node_auto_index('short_name: get_sectorsize'),
          b=node:node_auto_index('short_name: packet_command')
    MATCH writer -[write:writes_member]-> ({SHORT_NAME:'cmd'}) <-[:contains]- b
    WITH to, from, writer, write
    MATCH direct <-[s:calls]- from -[r:calls{use_start_line: 236}]-> to
    WHERE r.use_start_line >= s.use_start_line AND direct -[:calls*]-> writer
    RETURN distinct writer, write.use_start_line
  )");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->clauses.size(), 6u);
}

}  // namespace
}  // namespace frappe::query
