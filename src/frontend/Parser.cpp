//===- Parser.cpp - Parser/lowerer for the stencil C dialect --------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"

#include <map>
#include <optional>

using namespace hextile;
using namespace hextile::frontend;

namespace {

/// Recursive-descent parser building the StencilProgram directly; the
/// dialect is simple enough that no separate AST pays its way.
class Parser {
public:
  explicit Parser(const std::string &Source, const std::string &Name)
      : Tokens(tokenize(Source)), Name(Name) {}

  ParseResult run() {
    ParseResult R;
    parseProgram();
    if (!Error.empty()) {
      R.Error = Error;
      return R;
    }
    R.Program = std::move(Prog);
    std::string Verify = R.Program.verify();
    if (!Verify.empty())
      R.Error = "semantic error: " + Verify;
    return R;
  }

private:
  // ---- Token helpers -----------------------------------------------------
  const Token &peek() const { return Tokens[Pos]; }
  const Token &advance() { return Tokens[Pos++]; }
  bool check(TokenKind K) const { return peek().is(K); }
  bool match(TokenKind K) {
    if (!check(K))
      return false;
    ++Pos;
    return true;
  }
  const Token *expect(TokenKind K, const std::string &Context) {
    if (check(K))
      return &advance();
    fail(peek().location() + ": expected " + tokenKindName(K) + " " +
         Context + ", found " + tokenKindName(peek().Kind));
    return nullptr;
  }
  void fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
  }
  bool failed() const { return !Error.empty(); }

  // ---- Grammar -----------------------------------------------------------
  void parseProgram() {
    Prog = ir::StencilProgram(); // Rank set after the first grid decl.
    while (check(TokenKind::KwGrid) && !failed())
      parseGridDecl();
    if (Grids.empty())
      return fail("expected at least one 'grid' declaration");
    parseTimeLoop();
    if (!failed() && !check(TokenKind::Eof))
      fail(peek().location() + ": trailing input after the time loop");
  }

  void parseGridDecl() {
    advance(); // 'grid'
    const Token *Id = expect(TokenKind::Identifier, "after 'grid'");
    if (!Id)
      return;
    std::vector<int64_t> Dims;
    while (match(TokenKind::LBracket)) {
      const Token *Sz = expect(TokenKind::IntLiteral, "as grid extent");
      if (!Sz)
        return;
      Dims.push_back(Sz->IntValue);
      if (!expect(TokenKind::RBracket, "after grid extent"))
        return;
    }
    if (!expect(TokenKind::Semicolon, "after grid declaration"))
      return;
    if (Dims.empty())
      return fail(Id->location() + ": grid '" + Id->Text +
                  "' needs at least one dimension");
    if (Grids.empty()) {
      Rank = Dims.size();
      Prog = ir::StencilProgram(Name, Rank);
      Sizes = Dims;
    } else if (Dims != Sizes) {
      return fail(Id->location() + ": grid '" + Id->Text +
                  "' extents differ from earlier grids");
    }
    if (Grids.count(Id->Text))
      return fail(Id->location() + ": grid '" + Id->Text + "' redeclared");
    Grids[Id->Text] = Prog.addField(Id->Text);
  }

  void parseTimeLoop() {
    if (!expect(TokenKind::KwFor, "to open the time loop"))
      return;
    std::optional<LoopHeader> H = parseLoopHeader();
    if (!H)
      return;
    TimeVar = H->Var;
    if (H->Lower != 0)
      return fail("time loop must start at 0");
    TimeSteps = H->Upper;
    // Body: one or more statement nests.
    bool Braced = match(TokenKind::LBrace);
    do {
      parseStatementNest();
      if (failed())
        return;
    } while (Braced && !check(TokenKind::RBrace) && !check(TokenKind::Eof));
    if (Braced && !expect(TokenKind::RBrace, "to close the time loop"))
      return;
    Prog.setSpaceSizes(Sizes);
    Prog.setTimeSteps(TimeSteps);
  }

  struct LoopHeader {
    std::string Var;
    int64_t Lower;
    int64_t Upper;
  };

  /// Parses "( ident = int ; ident < bound ; ident ++ )"; bound is an int
  /// or an int-minus-int expression (e.g. "N - 1" is not allowed; sizes
  /// are literal in this dialect).
  std::optional<LoopHeader> parseLoopHeader() {
    if (!expect(TokenKind::LParen, "after 'for'"))
      return std::nullopt;
    const Token *Var = expect(TokenKind::Identifier, "as loop iterator");
    if (!Var || !expect(TokenKind::Assign, "in loop initialization"))
      return std::nullopt;
    const Token *Lo = expect(TokenKind::IntLiteral, "as loop lower bound");
    if (!Lo || !expect(TokenKind::Semicolon, "after loop initialization"))
      return std::nullopt;
    const Token *Var2 = expect(TokenKind::Identifier, "in loop condition");
    if (!Var2)
      return std::nullopt;
    if (Var2->Text != Var->Text) {
      fail(Var2->location() + ": loop condition tests '" + Var2->Text +
           "' but the iterator is '" + Var->Text + "'");
      return std::nullopt;
    }
    if (!expect(TokenKind::Less, "in loop condition"))
      return std::nullopt;
    const Token *Hi = expect(TokenKind::IntLiteral, "as loop upper bound");
    if (!Hi)
      return std::nullopt;
    int64_t Upper = Hi->IntValue;
    if (match(TokenKind::Minus)) {
      const Token *Sub = expect(TokenKind::IntLiteral, "in loop bound");
      if (!Sub)
        return std::nullopt;
      Upper -= Sub->IntValue;
    }
    if (!expect(TokenKind::Semicolon, "after loop condition"))
      return std::nullopt;
    const Token *Var3 = expect(TokenKind::Identifier, "in loop increment");
    if (!Var3 || Var3->Text != Var->Text) {
      fail("loop increment must use the loop iterator");
      return std::nullopt;
    }
    if (!expect(TokenKind::PlusPlus, "in loop increment") ||
        !expect(TokenKind::RParen, "to close the loop header"))
      return std::nullopt;
    return LoopHeader{Var->Text, Lo->IntValue, Upper};
  }

  void parseStatementNest() {
    SpatialVars.clear();
    unsigned Depth = 0;
    while (check(TokenKind::KwFor)) {
      advance();
      std::optional<LoopHeader> H = parseLoopHeader();
      if (!H)
        return;
      SpatialVars.push_back(H->Var);
      ++Depth;
      match(TokenKind::LBrace); // Optional braces per level.
      BraceDepth.push_back(Tokens[Pos - 1].is(TokenKind::LBrace));
    }
    if (Depth != Rank)
      return fail(peek().location() + ": statement nest has " +
                  std::to_string(Depth) + " spatial loops, grids have rank " +
                  std::to_string(Rank));
    parseAssignment();
    // Close optional braces.
    for (unsigned I = 0; I < Depth && !failed(); ++I)
      if (BraceDepth[Depth - 1 - I])
        expect(TokenKind::RBrace, "to close a spatial loop");
    BraceDepth.clear();
  }

  /// Array reference: Name '[' t-index ']' ('[' spatial index ']')*.
  struct ArrayRef {
    unsigned Field;
    int64_t TimeIndexOffset; // Relative to the time iterator.
    std::vector<int64_t> Offsets;
  };

  std::optional<ArrayRef> parseArrayRef(const Token &NameTok) {
    auto It = Grids.find(NameTok.Text);
    if (It == Grids.end()) {
      fail(NameTok.location() + ": unknown grid '" + NameTok.Text + "'");
      return std::nullopt;
    }
    ArrayRef Ref;
    Ref.Field = It->second;
    // Time subscript.
    if (!expect(TokenKind::LBracket, "to open the time subscript"))
      return std::nullopt;
    const Token *TVar = expect(TokenKind::Identifier, "as time index");
    if (!TVar)
      return std::nullopt;
    if (TVar->Text != TimeVar) {
      fail(TVar->location() + ": time subscript must use '" + TimeVar + "'");
      return std::nullopt;
    }
    Ref.TimeIndexOffset = 0;
    if (match(TokenKind::Plus)) {
      const Token *O = expect(TokenKind::IntLiteral, "in time subscript");
      if (!O)
        return std::nullopt;
      Ref.TimeIndexOffset = O->IntValue;
    } else if (match(TokenKind::Minus)) {
      const Token *O = expect(TokenKind::IntLiteral, "in time subscript");
      if (!O)
        return std::nullopt;
      Ref.TimeIndexOffset = -O->IntValue;
    }
    if (!expect(TokenKind::RBracket, "after the time subscript"))
      return std::nullopt;
    // Spatial subscripts.
    for (unsigned D = 0; D < Rank; ++D) {
      if (!expect(TokenKind::LBracket, "to open a spatial subscript"))
        return std::nullopt;
      const Token *SVar = expect(TokenKind::Identifier, "as spatial index");
      if (!SVar)
        return std::nullopt;
      if (SVar->Text != SpatialVars[D]) {
        fail(SVar->location() + ": subscript " + std::to_string(D) +
             " must use iterator '" + SpatialVars[D] + "'");
        return std::nullopt;
      }
      int64_t Off = 0;
      if (match(TokenKind::Plus)) {
        const Token *O = expect(TokenKind::IntLiteral, "in subscript");
        if (!O)
          return std::nullopt;
        Off = O->IntValue;
      } else if (match(TokenKind::Minus)) {
        const Token *O = expect(TokenKind::IntLiteral, "in subscript");
        if (!O)
          return std::nullopt;
        Off = -O->IntValue;
      }
      Ref.Offsets.push_back(Off);
      if (!expect(TokenKind::RBracket, "after a spatial subscript"))
        return std::nullopt;
    }
    return Ref;
  }

  void parseAssignment() {
    const Token *Name = expect(TokenKind::Identifier, "to start a statement");
    if (!Name)
      return;
    std::optional<ArrayRef> LHS = parseArrayRef(*Name);
    if (!LHS)
      return;
    if (LHS->TimeIndexOffset != 1)
      return fail(Name->location() +
                  ": statements must write to the next time step (t+1)");
    for (int64_t O : LHS->Offsets)
      if (O != 0)
        return fail(Name->location() +
                    ": writes must target the loop point (zero offsets)");
    if (!expect(TokenKind::Assign, "in the statement"))
      return;
    CurStmt = ir::StencilStmt();
    CurStmt.Name = Tokens[Pos].Text.empty() ? "S" : "";
    CurStmt.WriteField = LHS->Field;
    ir::StencilExpr RHS = parseExpr();
    if (failed())
      return;
    CurStmt.RHS = RHS;
    if (!expect(TokenKind::Semicolon, "to end the statement"))
      return;
    CurStmt.Name = "S" + std::to_string(Prog.numStmts());
    Prog.addStmt(std::move(CurStmt));
  }

  // Expression grammar: expr := term (('+'|'-') term)*;
  // term := factor (('*'|'/') factor)*; factor := literal | ref | call |
  // '(' expr ')' | '-' factor.
  ir::StencilExpr parseExpr() {
    ir::StencilExpr E = parseTerm();
    while (!failed() &&
           (check(TokenKind::Plus) || check(TokenKind::Minus))) {
      bool IsAdd = advance().is(TokenKind::Plus);
      ir::StencilExpr R = parseTerm();
      E = IsAdd ? E + R : E - R;
    }
    return E;
  }

  ir::StencilExpr parseTerm() {
    ir::StencilExpr E = parseFactor();
    while (!failed() && (check(TokenKind::Star) || check(TokenKind::Slash))) {
      bool IsMul = advance().is(TokenKind::Star);
      ir::StencilExpr R = parseFactor();
      E = IsMul ? E * R : E / R;
    }
    return E;
  }

  /// Consumes a numeric literal, if one is next, and returns its value.
  std::optional<float> matchLiteral() {
    if (check(TokenKind::FloatLiteral))
      return static_cast<float>(advance().FloatValue);
    if (check(TokenKind::IntLiteral))
      return static_cast<float>(advance().IntValue);
    return std::nullopt;
  }

  ir::StencilExpr parseFactor() {
    if (failed())
      return ir::StencilExpr::constant(0);
    if (match(TokenKind::Minus)) {
      // A minus directly on a literal is the constant's sign, so a printed
      // negative constant (-0.0f included) reads back as one constant, not
      // as a negation costing a FLOP.
      if (std::optional<float> V = matchLiteral())
        return ir::StencilExpr::constant(-*V);
      return ir::StencilExpr::neg(parseFactor());
    }
    if (std::optional<float> V = matchLiteral())
      return ir::StencilExpr::constant(*V);
    if (match(TokenKind::LParen)) {
      ir::StencilExpr E = parseExpr();
      expect(TokenKind::RParen, "to close the parenthesis");
      return E;
    }
    if (check(TokenKind::Identifier)) {
      const Token &Name = advance();
      // Intrinsic calls.
      if (check(TokenKind::LParen)) {
        advance();
        ir::StencilExpr A = parseExpr();
        if (Name.Text == "sqrtf") {
          expect(TokenKind::RParen, "to close the call");
          return ir::StencilExpr::sqrt(A);
        }
        if (Name.Text == "fabsf") {
          expect(TokenKind::RParen, "to close the call");
          return ir::StencilExpr::abs(A);
        }
        if (Name.Text == "fminf" || Name.Text == "fmaxf") {
          expect(TokenKind::Comma, "between call arguments");
          ir::StencilExpr B = parseExpr();
          expect(TokenKind::RParen, "to close the call");
          return Name.Text == "fminf" ? ir::StencilExpr::min(A, B)
                                      : ir::StencilExpr::max(A, B);
        }
        fail(Name.location() + ": unknown function '" + Name.Text + "'");
        return ir::StencilExpr::constant(0);
      }
      // Array read.
      std::optional<ArrayRef> Ref = parseArrayRef(Name);
      if (!Ref)
        return ir::StencilExpr::constant(0);
      // Reads of A[t+k][...] become TimeOffset k-1 relative to the write
      // at t+1 (the IR's "current step").
      int64_t Dt = Ref->TimeIndexOffset - 1;
      if (Dt > 0) {
        fail(Name.location() + ": read of a future time step");
        return ir::StencilExpr::constant(0);
      }
      // Repeated references to one cell share a single ReadAccess, so the
      // per-statement load count matches Table 3's "Loads" (and the
      // printer round-trip) instead of counting syntactic occurrences.
      for (size_t R = 0; R < CurStmt.Reads.size(); ++R) {
        const ir::ReadAccess &A = CurStmt.Reads[R];
        if (A.Field == Ref->Field && A.TimeOffset == Dt &&
            A.Offsets == Ref->Offsets)
          return ir::StencilExpr::read(R);
      }
      CurStmt.Reads.push_back(
          {Ref->Field, static_cast<int>(Dt), Ref->Offsets});
      return ir::StencilExpr::read(CurStmt.Reads.size() - 1);
    }
    fail(peek().location() + ": expected an expression, found " +
         tokenKindName(peek().Kind));
    return ir::StencilExpr::constant(0);
  }

  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::string Name;
  std::string Error;

  ir::StencilProgram Prog;
  std::map<std::string, unsigned> Grids;
  std::vector<int64_t> Sizes;
  unsigned Rank = 0;
  std::string TimeVar;
  int64_t TimeSteps = 0;
  std::vector<std::string> SpatialVars;
  std::vector<bool> BraceDepth;
  ir::StencilStmt CurStmt;
};

} // namespace

ParseResult frontend::parseStencilProgram(const std::string &Source,
                                          const std::string &Name) {
  Parser P(Source, Name);
  return P.run();
}
