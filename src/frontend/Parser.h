//===- frontend/Parser.h - Recursive-descent parser -------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the loop language.  On error it records a
/// diagnostic and returns null; it never throws.
///
/// The parser owns the unit's parse arena and string interner: tokens,
/// AST nodes, child lists, and identifier spellings all live there, so the
/// returned FuncDecl* is valid exactly as long as the Parser and the whole
/// tree is batch-freed when the Parser is destroyed.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_FRONTEND_PARSER_H
#define BEYONDIV_FRONTEND_PARSER_H

#include "frontend/AST.h"
#include "frontend/Lexer.h"
#include "support/Arena.h"
#include "support/StringInterner.h"
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace biv {
namespace frontend {

/// Deepest nesting the parser accepts, counted separately for statements and
/// for expressions.  A statement directly in the function body is at depth 1
/// and each enclosing if/loop/for/while adds one.  An expression's depth is
/// the height of its tree, and also counts the parser's own recursion, where
/// each parenthesis, subscript, unary minus or `^` operand adds one, so
/// `a + b + c` is 2 deep and `((a))` 3.  Later passes recurse over the tree,
/// so deeper input gets a diagnostic instead of a stack overflow.  Stated in
/// docs/LANGUAGE.md (tools/check_docs.sh compares the two).
inline constexpr unsigned MaxNestingDepth = 1000;

/// Parses one function per call; diagnostics accumulate in errors().
class Parser {
public:
  /// Lexes all of \p Source up front; the parser keeps no reference to it.
  explicit Parser(std::string_view Source);

  /// Parses a single `func`; returns null and records diagnostics on error.
  /// The declaration lives in this parser's arena.
  FuncDecl *parseFunction();

  const std::vector<std::string> &errors() const { return Errors; }

  /// The parse arena (AST nodes, spellings, token text).
  support::Arena &arena() { return A; }

  /// The unit's interner; FuncDecl::Strings points here.
  const support::StringInterner &strings() const { return SI; }

private:
  const Token &peek() const { return Tokens[Pos]; }
  const Token &peekAhead(size_t N) const {
    return Tokens[std::min(Pos + N, Tokens.size() - 1)];
  }
  Token advance();
  bool check(TokenKind K) const { return peek().is(K); }
  bool accept(TokenKind K);
  bool expect(TokenKind K, const char *Context);
  void error(const std::string &Msg);

  /// Holds one level of a nesting counter for its lifetime.
  struct Nesting {
    Nesting(Parser &P, unsigned &Depth, const char *What);
    ~Nesting() { --Depth; }
    unsigned &Depth;
    bool TooDeep;
  };
  /// Reports \p What nested past MaxNestingDepth, once: the unwinding parse
  /// would otherwise add a diagnostic per level.
  void tooDeep(const char *What);
  /// \p E, or null after a diagnostic when its tree is too tall.
  Expr *bounded(Expr *E);

  StmtList parseBlock();
  Stmt *parseStatement();
  StmtList parseBlockOrStatement();
  Expr *parseExpr();
  Expr *parseComparison();
  Expr *parseAdditive();
  Expr *parseMultiplicative();
  Expr *parseUnary();
  Expr *parsePower();
  Expr *parsePrimary();

  /// A fresh interned "L$<n>" label.
  std::pair<std::string_view, support::Symbol> freshLabel();

  support::Arena A; // must precede the interner and all parse products
  support::StringInterner SI{A};
  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::vector<std::string> Errors;
  bool Failed = false;
  /// Set by tooDeep(); later diagnostics are dropped.
  bool Silenced = false;
  unsigned StmtDepth = 0;
  unsigned ExprDepth = 0;
  unsigned NextLabel = 1;
};

} // namespace frontend
} // namespace biv

#endif // BEYONDIV_FRONTEND_PARSER_H
