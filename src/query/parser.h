#ifndef FRAPPE_QUERY_PARSER_H_
#define FRAPPE_QUERY_PARSER_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "query/lexer.h"

namespace frappe::query {

// Parses an FQL query string into its AST. Returns ParseError with a
// human-readable message (including offset context) on malformed input.
Result<Query> Parse(std::string_view input);
// Parses tokens that Lex produced whole (ending in kEnd).
Result<Query> Parse(std::vector<Token> tokens);

}  // namespace frappe::query

#endif  // FRAPPE_QUERY_PARSER_H_
