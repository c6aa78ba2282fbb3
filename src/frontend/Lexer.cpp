//===- frontend/Lexer.cpp - Lexer for the loop language --------------------===//

#include "frontend/Lexer.h"
#include <cctype>
#include <cstdint>

using namespace biv::frontend;

const char *biv::frontend::tokenKindName(TokenKind K) {
  switch (K) {
  case TokenKind::EndOfFile:
    return "end of input";
  case TokenKind::Error:
    return "invalid token";
  case TokenKind::Number:
    return "number";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::KwFunc:
    return "'func'";
  case TokenKind::KwLoop:
    return "'loop'";
  case TokenKind::KwFor:
    return "'for'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwBreak:
    return "'break'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwTo:
    return "'to'";
  case TokenKind::KwDownTo:
    return "'downto'";
  case TokenKind::KwBy:
    return "'by'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Caret:
    return "'^'";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'!='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  }
  return "<bad token kind>";
}

Lexer::Lexer(std::string_view Source, biv::support::StringInterner &Strings)
    : SI(&Strings), Src(Source) {
  seedKeywords();
}

Lexer::Lexer(std::string_view Source)
    : Owned(std::make_unique<OwnedStrings>()), SI(&Owned->SI), Src(Source) {
  seedKeywords();
}

void Lexer::seedKeywords() {
  static constexpr struct {
    const char *Spelling;
    TokenKind Kind;
  } Keywords[] = {
      {"func", TokenKind::KwFunc},     {"loop", TokenKind::KwLoop},
      {"for", TokenKind::KwFor},       {"while", TokenKind::KwWhile},
      {"if", TokenKind::KwIf},         {"else", TokenKind::KwElse},
      {"break", TokenKind::KwBreak},   {"return", TokenKind::KwReturn},
      {"to", TokenKind::KwTo},         {"downto", TokenKind::KwDownTo},
      {"by", TokenKind::KwBy},
  };
  support::Arena &A = SI->arena();
  for (const auto &KW : Keywords) {
    support::Symbol Sym = SI->intern(KW.Spelling);
    if (Sym >= KwKinds.size())
      KwKinds.resize(A, Sym + 1, TokenKind::Identifier);
    KwKinds[Sym] = KW.Kind;
  }
}

char Lexer::get() {
  char C = peek();
  if (C == '\0')
    return C;
  ++Pos;
  if (C == '\n') {
    ++Loc.Line;
    Loc.Col = 1;
  } else {
    ++Loc.Col;
  }
  return C;
}

void Lexer::skipTrivia() {
  while (true) {
    char C = peek();
    if (C == '#') {
      while (peek() != '\n' && peek() != '\0')
        get();
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      get();
      continue;
    }
    return;
  }
}

Token Lexer::make(TokenKind K, std::string_view Text) {
  Token T;
  T.Kind = K;
  T.Text = Text;
  T.Loc = TokenStart;
  return T;
}

Token Lexer::next() {
  skipTrivia();
  TokenStart = Loc;
  char C = peek();
  if (C == '\0')
    return make(TokenKind::EndOfFile);

  if (std::isdigit(static_cast<unsigned char>(C))) {
    size_t Start = Pos;
    while (std::isdigit(static_cast<unsigned char>(peek())))
      get();
    std::string_view Digits(Src.data() + Start, Pos - Start);
    // Accumulate with an explicit overflow check: source text is untrusted
    // (the fuzzer feeds arbitrary digit strings) and std::stoll would throw.
    int64_t V = 0;
    for (char D : Digits) {
      int64_t Digit = D - '0';
      if (V > (INT64_MAX - Digit) / 10)
        return make(TokenKind::Error,
                    SI->internView("integer literal out of range: " +
                                   std::string(Digits)));
      V = V * 10 + Digit;
    }
    Token T = make(TokenKind::Number);
    T.Value = V;
    return T;
  }

  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    size_t Start = Pos;
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
      get();
    support::Symbol Sym =
        SI->intern(std::string_view(Src.data() + Start, Pos - Start));
    TokenKind Kind = Sym < KwKinds.size() ? KwKinds[Sym] : TokenKind::Identifier;
    Token T = make(Kind, SI->str(Sym));
    T.Sym = Sym;
    return T;
  }

  get();
  switch (C) {
  case '(':
    return make(TokenKind::LParen);
  case ')':
    return make(TokenKind::RParen);
  case '{':
    return make(TokenKind::LBrace);
  case '}':
    return make(TokenKind::RBrace);
  case '[':
    return make(TokenKind::LBracket);
  case ']':
    return make(TokenKind::RBracket);
  case ',':
    return make(TokenKind::Comma);
  case ';':
    return make(TokenKind::Semicolon);
  case ':':
    return make(TokenKind::Colon);
  case '+':
    return make(TokenKind::Plus);
  case '-':
    return make(TokenKind::Minus);
  case '*':
    return make(TokenKind::Star);
  case '/':
    return make(TokenKind::Slash);
  case '^':
    return make(TokenKind::Caret);
  case '=':
    if (peek() == '=') {
      get();
      return make(TokenKind::EqEq);
    }
    return make(TokenKind::Assign);
  case '!':
    if (peek() == '=') {
      get();
      return make(TokenKind::NotEq);
    }
    return make(TokenKind::Error, "stray '!'");
  case '<':
    if (peek() == '=') {
      get();
      return make(TokenKind::LessEq);
    }
    return make(TokenKind::Less);
  case '>':
    if (peek() == '=') {
      get();
      return make(TokenKind::GreaterEq);
    }
    return make(TokenKind::Greater);
  default:
    return make(TokenKind::Error,
                SI->internView(std::string("unexpected character '") + C +
                               "'"));
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  // Sized to the input: source text averages under three bytes per token
  // (a name or number and the space after it), so two bytes per token
  // covers typical units in one allocation; denser text regrows once.
  Tokens.reserve(Src.size() / 2 + 8);
  while (true) {
    Tokens.push_back(next());
    if (Tokens.back().is(TokenKind::EndOfFile) ||
        Tokens.back().is(TokenKind::Error))
      break;
  }
  return Tokens;
}
