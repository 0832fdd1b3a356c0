// The Query value type: parsed AQL with cheap copies.
//
// Queries are first-class in the algebra (§3.1 allows send(p2, q@p1) —
// code shipping) so they need a wire form: the canonical AQL text. A
// Query is immutable; rewrites build new Query values.

#ifndef AXML_QUERY_QUERY_H_
#define AXML_QUERY_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "query/executor.h"
#include "xml/schema.h"

namespace axml {

/// An immutable, shareable declarative query.
class Query {
 public:
  Query() = default;

  /// Parses AQL text.
  static Result<Query> Parse(std::string_view text);
  /// Wraps an already-built AST.
  static Query FromAst(aql::QueryAst ast);

  bool valid() const { return ast_ != nullptr; }
  const aql::QueryAst& ast() const { return *ast_; }

  /// Number of input streams (0 for closed queries over doc() only).
  int arity() const { return ast_ == nullptr ? 0 : ast_->Arity(); }

  /// Canonical text (the wire format of shipped queries).
  const std::string& text() const { return text_; }

  /// The identity query `for $x in input(0) return $x`.
  static Query Identity();

  /// One-shot batch evaluation over fully-known inputs.
  Result<std::vector<TreePtr>> Eval(
      const std::vector<std::vector<TreePtr>>& inputs, DocResolver docs,
      NodeIdGen* gen) const;

  /// Structural comparison via canonical text.
  bool operator==(const Query& other) const { return text_ == other.text_; }

 private:
  std::shared_ptr<const aql::QueryAst> ast_;
  std::string text_;
};

}  // namespace axml

#endif  // AXML_QUERY_QUERY_H_
