//===- frontend/Lowering.cpp - AST to CFG lowering ---------------------------===//

#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/Stats.h"
#include <algorithm>
#include <cstdio>
#include <span>

using namespace biv;
using namespace biv::frontend;

namespace {

using support::Symbol;

/// Walks the AST once to find which names are assigned (scalars), which are
/// subscripted (arrays, with rank), and basic semantic errors.
///
/// All bookkeeping is symbol-indexed over the parse interner's dense id
/// space -- flat vectors instead of string sets/maps.  The var/array
/// creation order handed to the driver is sorted by spelling, which is
/// exactly the iteration order the old std::set/std::map produced; the SSA
/// builder places phis in variable creation order, so this keeps printed IR
/// (and cache digests) byte-identical.
class NameCollector {
public:
  /// Every table lives in \p Scratch, which must outlive the collector.
  NameCollector(const support::StringInterner &SI, support::Arena &Scratch)
      : SI(SI), S(Scratch) {
    Rank.resize(S, SI.size(), 0);
    IsParam.resize(S, SI.size(), 0);
    IsAssigned.resize(S, SI.size(), 0);
    IsLabel.resize(S, SI.size(), 0);
  }

  /// Assigned scalar symbols, sorted by spelling.
  support::ArenaVector<Symbol> ScalarsByName;
  /// Array symbols, sorted by spelling; Rank[Sym] is their rank.
  support::ArenaVector<Symbol> ArraysByName;
  support::ArenaVector<uint32_t> Rank;
  std::vector<std::string> Errors;

  void run(const FuncDecl &F) {
    for (const ParamDecl &P : F.Params) {
      if (IsParam[P.Sym])
        Errors.push_back("duplicate parameter name '" + std::string(P.Name) +
                         "'");
      IsParam[P.Sym] = 1;
    }
    visit(F.Body);
    auto BySpelling = [this](Symbol A, Symbol B) {
      return SI.str(A) < SI.str(B);
    };
    std::sort(ScalarsByName.begin(), ScalarsByName.end(), BySpelling);
    std::sort(ArraysByName.begin(), ArraysByName.end(), BySpelling);
    for (Symbol Sym : ArraysByName)
      if (IsAssigned[Sym] || IsParam[Sym])
        Errors.push_back("name '" + std::string(SI.str(Sym)) +
                         "' used as both array and scalar");
  }

private:
  const support::StringInterner &SI;
  support::Arena &S;
  support::ArenaVector<uint8_t> IsParam;
  support::ArenaVector<uint8_t> IsAssigned;
  support::ArenaVector<uint8_t> IsLabel;

  void noteAssigned(Symbol Sym) {
    if (!IsAssigned[Sym]) {
      IsAssigned[Sym] = 1;
      ScalarsByName.push_back(S, Sym);
    }
  }

  /// Loop labels must be unique: analyses address loops by name
  /// (LoopInfo::byName), so a duplicate would be silently ambiguous.
  void noteLabel(std::string_view Label, Symbol Sym, SourceLoc Loc) {
    if (IsLabel[Sym])
      Errors.push_back(Loc.str() + ": duplicate loop label '" +
                       std::string(Label) + "'");
    IsLabel[Sym] = 1;
  }

  void noteArray(std::string_view Name, Symbol Sym, unsigned ArrRank,
                 SourceLoc Loc) {
    if (!Rank[Sym]) {
      Rank[Sym] = ArrRank;
      ArraysByName.push_back(S, Sym);
    } else if (Rank[Sym] != ArrRank) {
      Errors.push_back(Loc.str() + ": array '" + std::string(Name) +
                       "' used with inconsistent rank");
    }
  }

  void visit(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
    case ExprKind::VarRef:
      return;
    case ExprKind::ArrayRef: {
      const auto *A = ast_cast<ArrayRefExpr>(E);
      noteArray(A->name(), A->sym(), A->indices().size(), A->loc());
      for (const Expr *I : A->indices())
        visit(I);
      return;
    }
    case ExprKind::Binary: {
      const auto *B = ast_cast<BinaryExpr>(E);
      visit(B->lhs());
      visit(B->rhs());
      return;
    }
    case ExprKind::Unary:
      visit(ast_cast<UnaryExpr>(E)->sub());
      return;
    }
  }

  void visit(const StmtList &Body) {
    for (const Stmt *S : Body)
      visit(S);
  }

  void visit(const Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *A = ast_cast<AssignStmt>(S);
      noteAssigned(A->sym());
      visit(A->value());
      return;
    }
    case StmtKind::ArrayAssign: {
      const auto *A = ast_cast<ArrayAssignStmt>(S);
      noteArray(A->name(), A->sym(), A->indices().size(), A->loc());
      for (const Expr *I : A->indices())
        visit(I);
      visit(A->value());
      return;
    }
    case StmtKind::If: {
      const auto *I = ast_cast<IfStmt>(S);
      visit(I->cond());
      visit(I->thenBody());
      visit(I->elseBody());
      return;
    }
    case StmtKind::Loop: {
      const auto *L = ast_cast<LoopStmt>(S);
      noteLabel(L->label(), L->labelSym(), L->loc());
      visit(L->body());
      return;
    }
    case StmtKind::For: {
      const auto *F = ast_cast<ForStmt>(S);
      noteLabel(F->label(), F->labelSym(), F->loc());
      noteAssigned(F->varSym());
      visit(F->lo());
      visit(F->hi());
      if (F->step())
        visit(F->step());
      visit(F->body());
      return;
    }
    case StmtKind::While: {
      const auto *W = ast_cast<WhileStmt>(S);
      noteLabel(W->label(), W->labelSym(), W->loc());
      visit(W->cond());
      visit(W->body());
      return;
    }
    case StmtKind::Break:
      return;
    case StmtKind::Return:
      if (const Expr *V = ast_cast<ReturnStmt>(S)->value())
        visit(V);
      return;
    }
  }
};

/// Lowers one function.  Name resolution is a vector index: the collector's
/// symbol space maps straight to ir::Var*/Array*/Argument* tables.
class LoweringDriver {
public:
  LoweringDriver(const FuncDecl &Decl, std::vector<std::string> &Errors)
      : Decl(Decl), Errors(Errors) {}

  std::unique_ptr<ir::Function> run() {
    assert(Decl.Strings && "FuncDecl lost its interner");
    const support::StringInterner &Names = *Decl.Strings;
    NameCollector NC(Names, Scratch.arena());
    NC.run(Decl);
    for (std::string &E : NC.Errors)
      Errors.push_back(std::move(E));
    if (!Errors.empty())
      return nullptr;

    F = std::make_unique<ir::Function>(Decl.Name);
    VarBySym.resize(Scratch.arena(), Names.size(), nullptr);
    ArrayBySym.resize(Scratch.arena(), Names.size(), nullptr);
    ArgBySym.resize(Scratch.arena(), Names.size(), nullptr);
    for (const ParamDecl &P : Decl.Params)
      ArgBySym[P.Sym] = F->addArgument(P.Name);
    for (Symbol Sym : NC.ScalarsByName)
      VarBySym[Sym] = F->getOrCreateVar(Names.str(Sym));
    for (Symbol Sym : NC.ArraysByName)
      ArrayBySym[Sym] = F->getOrCreateArray(Names.str(Sym), NC.Rank[Sym]);

    B = std::make_unique<ir::IRBuilder>(*F, F->createBlock("entry"));
    lowerBody(Decl.Body);
    if (!B->insertBlock()->terminator())
      B->ret();
    if (!Errors.empty())
      return nullptr;

    F->removeUnreachableBlocks();
    ir::verifyOrDie(*F);
    return std::move(F);
  }

private:
  /// The name tables, loop-exit stack and subscript scratch below.
  support::ScratchScope Scratch;
  const FuncDecl &Decl;
  std::vector<std::string> &Errors;
  std::unique_ptr<ir::Function> F;
  std::unique_ptr<ir::IRBuilder> B;
  support::ArenaVector<ir::Var *> VarBySym;
  support::ArenaVector<ir::Array *> ArrayBySym;
  support::ArenaVector<ir::Argument *> ArgBySym;
  support::ArenaVector<ir::BasicBlock *> LoopExits;
  /// Shared subscript scratch: nested array refs stack their index values
  /// here (each ref restores its own base), so lowering a ref allocates
  /// nothing once the vector has grown to the deepest nesting seen.
  support::ArenaVector<ir::Value *> IndexScratch;

  void error(SourceLoc Loc, const std::string &Msg) {
    Errors.push_back(Loc.str() + ": " + Msg);
  }

  /// "<label><suffix>" block (e.g. "L1.header"); short names stay on the
  /// stack via SSO.
  ir::BasicBlock *labeledBlock(std::string_view Label, const char *Suffix) {
    std::string N(Label);
    N += Suffix;
    return F->createBlock(N);
  }

  /// Starts a fresh anonymous block for code following a `break`/`return`;
  /// it is unreachable and removed at the end.
  void startDeadBlock() { B->setInsertBlock(F->createBlock("dead")); }

  /// Lowers \p Indices onto IndexScratch and emits via \p Emit, restoring
  /// the scratch watermark afterwards.
  template <typename EmitFn>
  ir::Instruction *withIndices(const ExprList &Indices, EmitFn Emit) {
    size_t Base = IndexScratch.size();
    for (const Expr *I : Indices)
      IndexScratch.push_back(Scratch.arena(), lowerExpr(I));
    ir::Instruction *Out = Emit(std::span<ir::Value *const>(
        IndexScratch.data() + Base, Indices.size()));
    IndexScratch.truncate(Base);
    return Out;
  }

  ir::Value *lowerExpr(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return B->constInt(ast_cast<IntLitExpr>(E)->value());
    case ExprKind::VarRef: {
      const auto *V = ast_cast<VarRefExpr>(E);
      if (ir::Var *Var = VarBySym[V->sym()])
        return B->loadVar(Var);
      if (ir::Argument *A = ArgBySym[V->sym()])
        return A;
      error(V->loc(), "use of undefined name '" + std::string(V->name()) +
                          "'");
      return B->constInt(0);
    }
    case ExprKind::ArrayRef: {
      const auto *A = ast_cast<ArrayRefExpr>(E);
      return withIndices(A->indices(),
                         [&](std::span<ir::Value *const> Idx) {
                           return B->arrayLoad(ArrayBySym[A->sym()], Idx);
                         });
    }
    case ExprKind::Binary: {
      const auto *Bin = ast_cast<BinaryExpr>(E);
      ir::Value *L = lowerExpr(Bin->lhs());
      ir::Value *R = lowerExpr(Bin->rhs());
      switch (Bin->op()) {
      case BinOp::Add:
        return B->add(L, R);
      case BinOp::Sub:
        return B->sub(L, R);
      case BinOp::Mul:
        return B->mul(L, R);
      case BinOp::Div:
        return B->div(L, R);
      case BinOp::Pow:
        return B->exp(L, R);
      case BinOp::EQ:
        return B->binary(ir::Opcode::CmpEQ, L, R);
      case BinOp::NE:
        return B->binary(ir::Opcode::CmpNE, L, R);
      case BinOp::LT:
        return B->binary(ir::Opcode::CmpLT, L, R);
      case BinOp::LE:
        return B->binary(ir::Opcode::CmpLE, L, R);
      case BinOp::GT:
        return B->binary(ir::Opcode::CmpGT, L, R);
      case BinOp::GE:
        return B->binary(ir::Opcode::CmpGE, L, R);
      }
      assert(false && "unknown binop");
      return nullptr;
    }
    case ExprKind::Unary: {
      // Fold negative literals so loop bounds like `-4` are constants.
      const auto *U = ast_cast<UnaryExpr>(E);
      if (const auto *Lit = ast_dyn_cast<IntLitExpr>(U->sub()))
        return B->constInt(-Lit->value());
      return B->neg(lowerExpr(U->sub()));
    }
    }
    assert(false && "unknown expr kind");
    return nullptr;
  }

  void lowerBody(const StmtList &Body) {
    for (const Stmt *S : Body)
      lowerStmt(S);
  }

  void lowerStmt(const Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *A = ast_cast<AssignStmt>(S);
      ir::Value *V = lowerExpr(A->value());
      B->storeVar(VarBySym[A->sym()], V);
      return;
    }
    case StmtKind::ArrayAssign: {
      // Lower subscripts and value before forming the scratch span: either
      // lowering may grow (reallocate) the scratch vector.
      const auto *A = ast_cast<ArrayAssignStmt>(S);
      size_t Base = IndexScratch.size();
      for (const Expr *I : A->indices())
        IndexScratch.push_back(Scratch.arena(), lowerExpr(I));
      ir::Value *V = lowerExpr(A->value());
      B->arrayStore(ArrayBySym[A->sym()],
                    std::span<ir::Value *const>(IndexScratch.data() + Base,
                                                A->indices().size()),
                    V);
      IndexScratch.truncate(Base);
      return;
    }
    case StmtKind::If:
      lowerIf(ast_cast<IfStmt>(S));
      return;
    case StmtKind::Loop:
      lowerLoop(ast_cast<LoopStmt>(S));
      return;
    case StmtKind::For:
      lowerFor(ast_cast<ForStmt>(S));
      return;
    case StmtKind::While:
      lowerWhile(ast_cast<WhileStmt>(S));
      return;
    case StmtKind::Break: {
      if (LoopExits.empty()) {
        error(S->loc(), "'break' outside of a loop");
        return;
      }
      B->br(LoopExits.back());
      startDeadBlock();
      return;
    }
    case StmtKind::Return: {
      const auto *R = ast_cast<ReturnStmt>(S);
      ir::Value *V = R->value() ? lowerExpr(R->value()) : nullptr;
      B->ret(V);
      startDeadBlock();
      return;
    }
    }
  }

  void lowerIf(const IfStmt *S) {
    ir::Value *Cond = lowerExpr(S->cond());
    ir::BasicBlock *ThenBB = F->createBlock("if.then");
    ir::BasicBlock *JoinBB = F->createBlock("if.join");
    ir::BasicBlock *ElseBB =
        S->elseBody().empty() ? JoinBB : F->createBlock("if.else");
    B->condBr(Cond, ThenBB, ElseBB);

    B->setInsertBlock(ThenBB);
    lowerBody(S->thenBody());
    if (!B->insertBlock()->terminator())
      B->br(JoinBB);

    if (!S->elseBody().empty()) {
      B->setInsertBlock(ElseBB);
      lowerBody(S->elseBody());
      if (!B->insertBlock()->terminator())
        B->br(JoinBB);
    }
    B->setInsertBlock(JoinBB);
  }

  void lowerLoop(const LoopStmt *S) {
    ir::BasicBlock *Header = labeledBlock(S->label(), ".header");
    ir::BasicBlock *Exit = labeledBlock(S->label(), ".exit");
    B->br(Header);
    B->setInsertBlock(Header);
    LoopExits.push_back(Scratch.arena(), Exit);
    lowerBody(S->body());
    LoopExits.pop_back();
    if (!B->insertBlock()->terminator())
      B->br(Header); // The fall-through end of the body is the backedge.
    B->setInsertBlock(Exit);
  }

  void lowerFor(const ForStmt *S) {
    ir::Var *V = VarBySym[S->varSym()];
    ir::Value *Lo = lowerExpr(S->lo());
    ir::Value *Hi = lowerExpr(S->hi());
    ir::Value *Step = S->step() ? lowerExpr(S->step())
                                : static_cast<ir::Value *>(B->constInt(1));
    B->storeVar(V, Lo);

    ir::BasicBlock *Header = labeledBlock(S->label(), ".header");
    ir::BasicBlock *Body = labeledBlock(S->label(), ".body");
    ir::BasicBlock *Latch = labeledBlock(S->label(), ".latch");
    ir::BasicBlock *Exit = labeledBlock(S->label(), ".exit");

    B->br(Header);
    B->setInsertBlock(Header);
    ir::Value *Cur = B->loadVar(V);
    ir::Value *Cond =
        B->binary(S->isDown() ? ir::Opcode::CmpGE : ir::Opcode::CmpLE, Cur,
                  Hi);
    B->condBr(Cond, Body, Exit);

    B->setInsertBlock(Body);
    LoopExits.push_back(Scratch.arena(), Exit);
    lowerBody(S->body());
    LoopExits.pop_back();
    if (!B->insertBlock()->terminator())
      B->br(Latch);

    B->setInsertBlock(Latch);
    ir::Value *Next = B->loadVar(V);
    Next = S->isDown() ? B->sub(Next, Step) : B->add(Next, Step);
    B->storeVar(V, Next);
    B->br(Header);

    B->setInsertBlock(Exit);
  }

  void lowerWhile(const WhileStmt *S) {
    ir::BasicBlock *Header = labeledBlock(S->label(), ".header");
    ir::BasicBlock *Body = labeledBlock(S->label(), ".body");
    ir::BasicBlock *Exit = labeledBlock(S->label(), ".exit");

    B->br(Header);
    B->setInsertBlock(Header);
    ir::Value *Cond = lowerExpr(S->cond());
    B->condBr(Cond, Body, Exit);

    B->setInsertBlock(Body);
    LoopExits.push_back(Scratch.arena(), Exit);
    lowerBody(S->body());
    LoopExits.pop_back();
    if (!B->insertBlock()->terminator())
      B->br(Header);

    B->setInsertBlock(Exit);
  }
};

} // namespace

std::unique_ptr<ir::Function>
biv::frontend::lower(const FuncDecl &Decl, std::vector<std::string> &Errors) {
  return LoweringDriver(Decl, Errors).run();
}

namespace {
const biv::stats::Timer ParsePhase("phase.parse");
const biv::stats::Counter NumFunctionsLowered("frontend.functions_lowered");
// Lowering diagnostics share the parser's counter (same registry cell).
const biv::stats::Counter NumLowerDiagnostics("frontend.diagnostics");
// Unit memory footprint at lowering time: the parse arena (AST + tokens'
// interned text) plus the function arena (IR built so far).  SSA and the
// analyses grow the function arena further; these counters capture the
// front-end cost that DESIGN.md §11 budgets.
const biv::stats::Counter NumAllocBytes("alloc.bytes");
const biv::stats::Counter NumAllocChunks("alloc.chunks");
const biv::stats::Counter NumInternSymbols("intern.symbols");
} // namespace

std::unique_ptr<ir::Function>
biv::frontend::parseAndLower(std::string_view Source,
                             std::vector<std::string> &Errors) {
  stats::ScopedSpan Span(ParsePhase);
  Parser P(Source);
  FuncDecl *Decl = P.parseFunction();
  if (!Decl) {
    Errors.insert(Errors.end(), P.errors().begin(), P.errors().end());
    return nullptr;
  }
  size_t ErrorsBefore = Errors.size();
  std::unique_ptr<ir::Function> F = lower(*Decl, Errors);
  NumLowerDiagnostics.bump(Errors.size() - ErrorsBefore);
  if (F) {
    NumFunctionsLowered.bump();
    NumAllocBytes.bump(P.arena().bytesAllocated() +
                       F->arena().bytesAllocated());
    NumAllocChunks.bump(P.arena().numChunks() + F->arena().numChunks());
    NumInternSymbols.bump(P.strings().size() + F->interner().size());
  }
  return F;
}

std::unique_ptr<ir::Function>
biv::frontend::parseAndLowerOrDie(std::string_view Source) {
  std::vector<std::string> Errors;
  std::unique_ptr<ir::Function> F = parseAndLower(Source, Errors);
  if (F)
    return F;
  std::fprintf(stderr, "parseAndLowerOrDie failed:\n");
  for (const std::string &E : Errors)
    std::fprintf(stderr, "  %s\n", E.c_str());
  abort();
}
