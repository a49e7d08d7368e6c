//===- Lexer.cpp - Tokenizer for the stencil C dialect ---------------------===//

#include "frontend/Lexer.h"

#include <cctype>

using namespace hextile;
using namespace hextile::frontend;

std::string frontend::tokenKindName(TokenKind K) {
  switch (K) {
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::FloatLiteral:
    return "float literal";
  case TokenKind::KwFor:
    return "'for'";
  case TokenKind::KwGrid:
    return "'grid'";
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
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Comma:
    return "','";
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
  case TokenKind::Less:
    return "'<'";
  case TokenKind::PlusPlus:
    return "'++'";
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Error:
    return "invalid character";
  }
  return "?";
}

std::vector<Token> frontend::tokenize(const std::string &Source) {
  std::vector<Token> Tokens;
  unsigned Line = 1, Col = 1;
  size_t I = 0, N = Source.size();
  auto make = [&](TokenKind K, std::string Text) {
    Token T;
    T.Kind = K;
    T.Text = std::move(Text);
    T.Line = Line;
    T.Col = Col;
    return T;
  };
  while (I < N) {
    char C = Source[I];
    if (C == '\n') {
      ++Line;
      Col = 1;
      ++I;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++Col;
      ++I;
      continue;
    }
    // Line comments.
    if (C == '/' && I + 1 < N && Source[I + 1] == '/') {
      while (I < N && Source[I] != '\n')
        ++I;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        ++I;
      std::string Word = Source.substr(Start, I - Start);
      TokenKind K = Word == "for"    ? TokenKind::KwFor
                    : Word == "grid" ? TokenKind::KwGrid
                                     : TokenKind::Identifier;
      Tokens.push_back(make(K, Word));
      Col += Word.size();
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = I;
      bool IsFloat = false;
      while (I < N && (std::isdigit(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '.' || Source[I] == 'e' ||
                       Source[I] == 'f')) {
        if (Source[I] == '.' || Source[I] == 'e' || Source[I] == 'f')
          IsFloat = true;
        ++I;
      }
      std::string Num = Source.substr(Start, I - Start);
      Token T = make(IsFloat ? TokenKind::FloatLiteral
                             : TokenKind::IntLiteral,
                     Num);
      if (IsFloat) {
        std::string Clean = Num;
        if (!Clean.empty() && Clean.back() == 'f')
          Clean.pop_back();
        T.FloatValue = std::stod(Clean);
      } else {
        T.IntValue = std::stoll(Num);
      }
      Tokens.push_back(T);
      Col += Num.size();
      continue;
    }
    TokenKind K;
    std::string Text(1, C);
    switch (C) {
    case '(':
      K = TokenKind::LParen;
      break;
    case ')':
      K = TokenKind::RParen;
      break;
    case '{':
      K = TokenKind::LBrace;
      break;
    case '}':
      K = TokenKind::RBrace;
      break;
    case '[':
      K = TokenKind::LBracket;
      break;
    case ']':
      K = TokenKind::RBracket;
      break;
    case ';':
      K = TokenKind::Semicolon;
      break;
    case ',':
      K = TokenKind::Comma;
      break;
    case '=':
      K = TokenKind::Assign;
      break;
    case '+':
      if (I + 1 < N && Source[I + 1] == '+') {
        K = TokenKind::PlusPlus;
        Text += '+';
        ++I;
      } else {
        K = TokenKind::Plus;
      }
      break;
    case '-':
      K = TokenKind::Minus;
      break;
    case '*':
      K = TokenKind::Star;
      break;
    case '/':
      K = TokenKind::Slash;
      break;
    case '<':
      K = TokenKind::Less;
      break;
    default:
      K = TokenKind::Error;
      break;
    }
    Tokens.push_back(make(K, Text));
    Col += Text.size();
    ++I;
    if (K == TokenKind::Error)
      return Tokens;
  }
  Tokens.push_back(make(TokenKind::Eof, ""));
  return Tokens;
}
