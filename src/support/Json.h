//===- Json.h - One JSON object-row writer ----------------------*- C++ -*-===//
//
// Part of the hextile project: a reproduction of "Hybrid Hexagonal/Classical
// Tiling for GPUs" (Grosser et al., CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON writer of the repository: JsonRow renders the members of
/// one JSON object -- ordered key/value pairs of strings, numbers and
/// integer lists -- with RFC 8259 string escaping. The bench harnesses'
/// JSON reports and the tuning tables (tune::TuningTable::toJson) both
/// render their rows through it. Header-only; the repo bakes in no JSON
/// dependency.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_SUPPORT_JSON_H
#define HEXTILE_SUPPORT_JSON_H

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

namespace hextile {

/// One result row of a JSON report: ordered key/value pairs, strings,
/// numbers and integer lists. rendered() is the object's members without
/// the braces.
class JsonRow {
public:
  JsonRow &str(std::string_view Key, std::string_view Value) {
    add(Key, "\"" + escaped(Value) + "\"");
    return *this;
  }
  JsonRow &num(std::string_view Key, double Value) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.10g", Value);
    add(Key, Buf);
    return *this;
  }
  JsonRow &num(std::string_view Key, int64_t Value) {
    add(Key, std::to_string(Value));
    return *this;
  }
  JsonRow &num(std::string_view Key, size_t Value) {
    add(Key, std::to_string(Value));
    return *this;
  }
  /// An array of integers: "key": [1, 2, 3].
  JsonRow &nums(std::string_view Key, std::span<const int64_t> Values) {
    std::string List = "[";
    for (size_t I = 0; I < Values.size(); ++I) {
      if (I)
        List += ", ";
      List += std::to_string(Values[I]);
    }
    add(Key, List + "]");
    return *this;
  }

  const std::string &rendered() const { return Body; }

  /// RFC 8259 string escaping: quotes, backslashes and all control
  /// characters.
  static std::string escaped(std::string_view S) {
    std::string Out;
    for (char C : S) {
      switch (C) {
      case '"':
        Out += "\\\"";
        break;
      case '\\':
        Out += "\\\\";
        break;
      case '\n':
        Out += "\\n";
        break;
      case '\t':
        Out += "\\t";
        break;
      case '\r':
        Out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(C) < 0x20) {
          char Buf[8];
          std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
          Out += Buf;
        } else {
          Out += C;
        }
      }
    }
    return Out;
  }

private:
  void add(std::string_view Key, std::string_view Rendered) {
    if (!Body.empty())
      Body += ", ";
    Body += "\"" + escaped(Key) + "\": ";
    Body += Rendered;
  }

  std::string Body;
};

} // namespace hextile

#endif // HEXTILE_SUPPORT_JSON_H
