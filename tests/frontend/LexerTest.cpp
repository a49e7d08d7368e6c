//===- LexerTest.cpp - Tokenizer tests ------------------------------------------===//

#include "frontend/Lexer.h"

#include <gtest/gtest.h>

using namespace hextile;
using namespace hextile::frontend;

TEST(LexerTest, BasicTokens) {
  std::vector<Token> T = tokenize("for (i = 0; i < 10; i++)");
  ASSERT_GE(T.size(), 12u);
  EXPECT_EQ(T[0].Kind, TokenKind::KwFor);
  EXPECT_EQ(T[1].Kind, TokenKind::LParen);
  EXPECT_EQ(T[2].Kind, TokenKind::Identifier);
  EXPECT_EQ(T[2].Text, "i");
  EXPECT_EQ(T[3].Kind, TokenKind::Assign);
  EXPECT_EQ(T[4].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(T[4].IntValue, 0);
  EXPECT_EQ(T[7].Kind, TokenKind::Less);
  EXPECT_EQ(T[11].Kind, TokenKind::PlusPlus);
  EXPECT_EQ(T[11].Text, "++");
  EXPECT_EQ(T.back().Kind, TokenKind::Eof);
}

TEST(LexerTest, FloatLiterals) {
  std::vector<Token> T = tokenize("0.2f 1.5 2e3");
  EXPECT_EQ(T[0].Kind, TokenKind::FloatLiteral);
  EXPECT_FLOAT_EQ(T[0].FloatValue, 0.2);
  EXPECT_EQ(T[1].Kind, TokenKind::FloatLiteral);
  EXPECT_FLOAT_EQ(T[1].FloatValue, 1.5);
  EXPECT_EQ(T[2].Kind, TokenKind::FloatLiteral);
}

TEST(LexerTest, Comments) {
  std::vector<Token> T = tokenize("grid // a comment\nA");
  EXPECT_EQ(T[0].Kind, TokenKind::KwGrid);
  EXPECT_EQ(T[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(T[1].Line, 2u);
}

TEST(LexerTest, LineAndColumnTracking) {
  std::vector<Token> T = tokenize("a\n  b");
  EXPECT_EQ(T[0].Line, 1u);
  EXPECT_EQ(T[0].Col, 1u);
  EXPECT_EQ(T[1].Line, 2u);
  EXPECT_EQ(T[1].Col, 3u);
}

TEST(LexerTest, InvalidCharacter) {
  std::vector<Token> T = tokenize("a @ b");
  EXPECT_EQ(T.back().Kind, TokenKind::Error);
}

TEST(LexerTest, SubscriptOperators) {
  std::vector<Token> T = tokenize("A[t+1][i-1]");
  EXPECT_EQ(T[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(T[1].Kind, TokenKind::LBracket);
  EXPECT_EQ(T[3].Kind, TokenKind::Plus);
  EXPECT_EQ(T[8].Kind, TokenKind::Minus);
}
