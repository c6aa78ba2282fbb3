//===- frontend/Parser.cpp - Recursive-descent parser -----------------------===//

#include "frontend/Parser.h"
#include "support/Stats.h"
#include <cstdio>

using namespace biv::frontend;

namespace {
const biv::stats::Counter NumTokens("frontend.tokens");
const biv::stats::Counter NumDiagnostics("frontend.diagnostics");
} // namespace

Parser::Parser(std::string_view Source) {
  Lexer L(Source, SI);
  Tokens = L.lexAll();
  NumTokens.bump(Tokens.size());
  if (Tokens.back().is(TokenKind::Error)) {
    error("lex error: " + std::string(Tokens.back().Text));
    // Replace the error token by EOF so the parser can bail out cleanly.
    Tokens.back().Kind = TokenKind::EndOfFile;
  }
}

Token Parser::advance() {
  Token T = peek();
  if (!T.is(TokenKind::EndOfFile))
    ++Pos;
  return T;
}

bool Parser::accept(TokenKind K) {
  if (!check(K))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (accept(K))
    return true;
  error(std::string("expected ") + tokenKindName(K) + " " + Context +
        ", found " + tokenKindName(peek().Kind));
  return false;
}

void Parser::error(const std::string &Msg) {
  Failed = true;
  if (Silenced)
    return;
  NumDiagnostics.bump();
  Errors.push_back(peek().Loc.str() + ": " + Msg);
}

Parser::Nesting::Nesting(Parser &P, unsigned &Depth, const char *What)
    : Depth(Depth), TooDeep(++Depth > MaxNestingDepth) {
  if (TooDeep)
    P.tooDeep(What);
}

void Parser::tooDeep(const char *What) {
  error(std::string(What) + " nested deeper than " +
        std::to_string(MaxNestingDepth) + " levels");
  Silenced = true;
}

Expr *Parser::bounded(Expr *E) {
  if (E->height() <= MaxNestingDepth)
    return E;
  tooDeep("expression");
  return nullptr;
}

std::pair<std::string_view, biv::support::Symbol> Parser::freshLabel() {
  char Buf[16];
  int Len = std::snprintf(Buf, sizeof(Buf), "L$%u", NextLabel++);
  support::Symbol Sym = SI.intern(std::string_view(Buf, size_t(Len)));
  return {SI.str(Sym), Sym};
}

FuncDecl *Parser::parseFunction() {
  auto *F = A.create<FuncDecl>();
  F->Strings = &SI;
  F->Loc = peek().Loc;
  if (!expect(TokenKind::KwFunc, "at start of function"))
    return nullptr;
  if (!check(TokenKind::Identifier)) {
    error("expected function name");
    return nullptr;
  }
  Token Name = advance();
  F->Name = Name.Text;
  F->NameSym = Name.Sym;
  if (!expect(TokenKind::LParen, "after function name"))
    return nullptr;
  if (!check(TokenKind::RParen)) {
    do {
      if (!check(TokenKind::Identifier)) {
        error("expected parameter name");
        return nullptr;
      }
      Token P = advance();
      F->Params.push_back(A, ParamDecl{P.Text, P.Sym});
    } while (accept(TokenKind::Comma));
  }
  if (!expect(TokenKind::RParen, "after parameters"))
    return nullptr;
  if (!expect(TokenKind::LBrace, "before function body"))
    return nullptr;
  F->Body = parseBlock();
  if (Failed)
    return nullptr;
  return F;
}

StmtList Parser::parseBlock() {
  StmtList Body;
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile) &&
         !Failed) {
    Stmt *S = parseStatement();
    if (!S)
      break;
    Body.push_back(A, S);
  }
  expect(TokenKind::RBrace, "to close block");
  return Body;
}

StmtList Parser::parseBlockOrStatement() {
  if (accept(TokenKind::LBrace))
    return parseBlock();
  StmtList Body;
  if (Stmt *S = parseStatement())
    Body.push_back(A, S);
  return Body;
}

Stmt *Parser::parseStatement() {
  Nesting Level(*this, StmtDepth, "statement");
  if (Level.TooDeep)
    return nullptr;
  SourceLoc Loc = peek().Loc;

  if (accept(TokenKind::KwBreak)) {
    expect(TokenKind::Semicolon, "after 'break'");
    return A.create<BreakStmt>(Loc);
  }

  if (accept(TokenKind::KwReturn)) {
    Expr *V = nullptr;
    if (!check(TokenKind::Semicolon)) {
      V = parseExpr();
      if (!V)
        return nullptr;
    }
    expect(TokenKind::Semicolon, "after 'return'");
    return A.create<ReturnStmt>(V, Loc);
  }

  if (accept(TokenKind::KwIf)) {
    if (!expect(TokenKind::LParen, "after 'if'"))
      return nullptr;
    Expr *Cond = parseExpr();
    if (!Cond)
      return nullptr;
    if (!expect(TokenKind::RParen, "after if condition"))
      return nullptr;
    StmtList Then = parseBlockOrStatement();
    StmtList Else;
    if (accept(TokenKind::KwElse))
      Else = parseBlockOrStatement();
    return A.create<IfStmt>(Cond, Then, Else, Loc);
  }

  if (accept(TokenKind::KwLoop)) {
    std::string_view Label;
    support::Symbol LabelSym;
    if (check(TokenKind::Identifier)) {
      Token T = advance();
      Label = T.Text;
      LabelSym = T.Sym;
    } else {
      std::tie(Label, LabelSym) = freshLabel();
    }
    if (!expect(TokenKind::LBrace, "to open loop body"))
      return nullptr;
    StmtList Body = parseBlock();
    return A.create<LoopStmt>(Label, LabelSym, Body, Loc);
  }

  if (accept(TokenKind::KwFor)) {
    // `for L18: i = ...` or `for i = ...`.
    std::string_view Label;
    support::Symbol LabelSym = support::NoSymbol;
    if (check(TokenKind::Identifier) && peekAhead(1).is(TokenKind::Colon)) {
      Token T = advance();
      Label = T.Text;
      LabelSym = T.Sym;
      advance(); // ':'
    }
    if (!check(TokenKind::Identifier)) {
      error("expected loop variable after 'for'");
      return nullptr;
    }
    Token VarTok = advance();
    if (Label.empty())
      std::tie(Label, LabelSym) = freshLabel();
    if (!expect(TokenKind::Assign, "after for-loop variable"))
      return nullptr;
    Expr *Lo = parseExpr();
    if (!Lo)
      return nullptr;
    bool Down = false;
    if (accept(TokenKind::KwDownTo))
      Down = true;
    else if (!expect(TokenKind::KwTo, "in for-loop bounds"))
      return nullptr;
    Expr *Hi = parseExpr();
    if (!Hi)
      return nullptr;
    Expr *Step = nullptr;
    if (accept(TokenKind::KwBy)) {
      Step = parseExpr();
      if (!Step)
        return nullptr;
    }
    if (!expect(TokenKind::LBrace, "to open for-loop body"))
      return nullptr;
    StmtList Body = parseBlock();
    return A.create<ForStmt>(Label, LabelSym, VarTok.Text, VarTok.Sym, Lo, Hi,
                             Step, Down, Body, Loc);
  }

  if (accept(TokenKind::KwWhile)) {
    std::string_view Label;
    support::Symbol LabelSym = support::NoSymbol;
    if (check(TokenKind::Identifier) && peekAhead(1).is(TokenKind::Colon)) {
      Token T = advance();
      Label = T.Text;
      LabelSym = T.Sym;
      advance(); // ':'
    }
    if (Label.empty())
      std::tie(Label, LabelSym) = freshLabel();
    if (!expect(TokenKind::LParen, "after 'while'"))
      return nullptr;
    Expr *Cond = parseExpr();
    if (!Cond)
      return nullptr;
    if (!expect(TokenKind::RParen, "after while condition"))
      return nullptr;
    if (!expect(TokenKind::LBrace, "to open while body"))
      return nullptr;
    StmtList Body = parseBlock();
    return A.create<WhileStmt>(Label, LabelSym, Cond, Body, Loc);
  }

  if (check(TokenKind::Identifier)) {
    Token Name = advance();
    if (accept(TokenKind::LBracket)) {
      ExprList Indices;
      do {
        Expr *E = parseExpr();
        if (!E)
          return nullptr;
        Indices.push_back(A, E);
      } while (accept(TokenKind::Comma));
      if (!expect(TokenKind::RBracket, "after subscripts"))
        return nullptr;
      if (!expect(TokenKind::Assign, "in array assignment"))
        return nullptr;
      Expr *V = parseExpr();
      if (!V)
        return nullptr;
      expect(TokenKind::Semicolon, "after assignment");
      return A.create<ArrayAssignStmt>(Name.Text, Name.Sym, Indices, V, Loc);
    }
    if (!expect(TokenKind::Assign, "in assignment"))
      return nullptr;
    Expr *V = parseExpr();
    if (!V)
      return nullptr;
    expect(TokenKind::Semicolon, "after assignment");
    return A.create<AssignStmt>(Name.Text, Name.Sym, V, Loc);
  }

  error(std::string("expected statement, found ") +
        tokenKindName(peek().Kind));
  return nullptr;
}

Expr *Parser::parseExpr() { return parseComparison(); }

Expr *Parser::parseComparison() {
  Expr *L = parseAdditive();
  if (!L)
    return nullptr;
  while (true) {
    BinOp Op;
    if (check(TokenKind::EqEq))
      Op = BinOp::EQ;
    else if (check(TokenKind::NotEq))
      Op = BinOp::NE;
    else if (check(TokenKind::Less))
      Op = BinOp::LT;
    else if (check(TokenKind::LessEq))
      Op = BinOp::LE;
    else if (check(TokenKind::Greater))
      Op = BinOp::GT;
    else if (check(TokenKind::GreaterEq))
      Op = BinOp::GE;
    else
      return L;
    SourceLoc Loc = advance().Loc;
    Expr *R = parseAdditive();
    if (!R)
      return nullptr;
    L = bounded(A.create<BinaryExpr>(Op, L, R, Loc));
    if (!L)
      return nullptr;
  }
}

Expr *Parser::parseAdditive() {
  Expr *L = parseMultiplicative();
  if (!L)
    return nullptr;
  while (check(TokenKind::Plus) || check(TokenKind::Minus)) {
    BinOp Op = check(TokenKind::Plus) ? BinOp::Add : BinOp::Sub;
    SourceLoc Loc = advance().Loc;
    Expr *R = parseMultiplicative();
    if (!R)
      return nullptr;
    L = bounded(A.create<BinaryExpr>(Op, L, R, Loc));
    if (!L)
      return nullptr;
  }
  return L;
}

Expr *Parser::parseMultiplicative() {
  Expr *L = parseUnary();
  if (!L)
    return nullptr;
  while (check(TokenKind::Star) || check(TokenKind::Slash)) {
    BinOp Op = check(TokenKind::Star) ? BinOp::Mul : BinOp::Div;
    SourceLoc Loc = advance().Loc;
    Expr *R = parseUnary();
    if (!R)
      return nullptr;
    L = bounded(A.create<BinaryExpr>(Op, L, R, Loc));
    if (!L)
      return nullptr;
  }
  return L;
}

Expr *Parser::parseUnary() {
  // Every nested operand passes through here, so this counts the parser's
  // own recursion; bounded() below caps the tree height.
  Nesting Level(*this, ExprDepth, "expression");
  if (Level.TooDeep)
    return nullptr;
  if (check(TokenKind::Minus)) {
    SourceLoc Loc = advance().Loc;
    Expr *S = parseUnary();
    if (!S)
      return nullptr;
    return bounded(A.create<UnaryExpr>(S, Loc));
  }
  return parsePower();
}

Expr *Parser::parsePower() {
  Expr *L = parsePrimary();
  if (!L)
    return nullptr;
  if (check(TokenKind::Caret)) {
    SourceLoc Loc = advance().Loc;
    // Right associative: a^b^c == a^(b^c).
    Expr *R = parseUnary();
    if (!R)
      return nullptr;
    return bounded(A.create<BinaryExpr>(BinOp::Pow, L, R, Loc));
  }
  return L;
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = peek().Loc;
  if (check(TokenKind::Number)) {
    Token T = advance();
    return A.create<IntLitExpr>(T.Value, Loc);
  }
  if (check(TokenKind::Identifier)) {
    Token Name = advance();
    if (accept(TokenKind::LBracket)) {
      ExprList Indices;
      do {
        Expr *E = parseExpr();
        if (!E)
          return nullptr;
        Indices.push_back(A, E);
      } while (accept(TokenKind::Comma));
      if (!expect(TokenKind::RBracket, "after subscripts"))
        return nullptr;
      return bounded(A.create<ArrayRefExpr>(Name.Text, Name.Sym, Indices, Loc));
    }
    return A.create<VarRefExpr>(Name.Text, Name.Sym, Loc);
  }
  if (accept(TokenKind::LParen)) {
    Expr *E = parseExpr();
    if (!E)
      return nullptr;
    if (!expect(TokenKind::RParen, "to close parenthesized expression"))
      return nullptr;
    return E;
  }
  error(std::string("expected expression, found ") +
        tokenKindName(peek().Kind));
  return nullptr;
}
