//===- frontend/Lexer.h - Lexer for the loop language -----------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer.  Comments run from '#' to end of line.
///
/// Identifiers are interned as they are scanned: keyword recognition is a
/// symbol-table lookup (the keywords are interned up front), not a string
/// compare chain, and every identifier token carries its Symbol so later
/// stages never touch the spelling.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_FRONTEND_LEXER_H
#define BEYONDIV_FRONTEND_LEXER_H

#include "frontend/Token.h"
#include "support/StringInterner.h"
#include <memory>
#include <string_view>
#include <vector>

namespace biv {
namespace frontend {

/// Splits a source buffer into tokens; malformed input yields an Error
/// token carrying a message in its Text.
class Lexer {
public:
  /// Lexes into \p Strings (the caller's per-unit interner); identifier
  /// spellings outlive the lexer and the source buffer.  \p Source is
  /// borrowed and must outlive the lexer.
  Lexer(std::string_view Source, support::StringInterner &Strings);

  /// Convenience form owning a private interner, for standalone use (tests,
  /// tooling).  Token spellings then live only as long as the lexer.
  explicit Lexer(std::string_view Source);

  /// Lexes and returns the next token.
  Token next();

  /// Lexes the entire buffer (including the trailing EndOfFile token).
  std::vector<Token> lexAll();

  /// The interner receiving this lexer's identifiers.
  support::StringInterner &strings() { return *SI; }

private:
  char peek() const { return Pos < Src.size() ? Src[Pos] : '\0'; }
  char get();
  void skipTrivia();
  Token make(TokenKind K, std::string_view Text = {});
  void seedKeywords();

  /// Backing storage for the single-argument constructor.
  struct OwnedStrings {
    support::Arena A;
    support::StringInterner SI{A};
  };

  std::unique_ptr<OwnedStrings> Owned; ///< Only set for standalone lexers.
  support::StringInterner *SI;
  std::string_view Src;
  size_t Pos = 0;
  SourceLoc Loc;
  SourceLoc TokenStart;
  /// Keyword symbol -> token kind (keywords are interned first, so their
  /// symbols are small); identifiers map through this to detect keywords.
  support::ArenaVector<TokenKind> KwKinds;
};

} // namespace frontend
} // namespace biv

#endif // BEYONDIV_FRONTEND_LEXER_H
