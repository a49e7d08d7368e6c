//===- TuningTable.cpp - Per-device empirical tuning tables ---------------===//

#include "tune/TuningTable.h"

#include "support/Json.h"

#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

using namespace hextile;
using namespace hextile::tune;

codegen::TunedSizes TunedEntry::tunedSizes() const {
  codegen::TunedSizes T;
  T.H = H;
  T.W0 = W0;
  T.InnerWidths = InnerWidths;
  T.Config = codegen::OptimizationConfig::level(Rung);
  T.Config.ShimThreads = ShimThreads;
  return T;
}

bool TunedEntry::operator==(const TunedEntry &O) const {
  return Program == O.Program && H == O.H && W0 == O.W0 &&
         InnerWidths == O.InnerWidths && Rung == O.Rung &&
         Flavor == O.Flavor && ShimThreads == O.ShimThreads &&
         MeasuredGStencils == O.MeasuredGStencils &&
         AnalyticGStencils == O.AnalyticGStencils &&
         ModelLoadToCompute == O.ModelLoadToCompute && GapPct == O.GapPct;
}

std::optional<codegen::EmitSchedule>
tune::emitScheduleByName(const std::string &Name) {
  for (codegen::EmitSchedule S :
       {codegen::EmitSchedule::Hex, codegen::EmitSchedule::Hybrid,
        codegen::EmitSchedule::Classical, codegen::EmitSchedule::Overlapped})
    if (Name == codegen::emitScheduleName(S))
      return S;
  return std::nullopt;
}

void TuningTable::put(TunedEntry E) {
  for (TunedEntry &Existing : Entries)
    if (Existing.Program == E.Program) {
      Existing = std::move(E);
      return;
    }
  Entries.push_back(std::move(E));
}

const TunedEntry *TuningTable::lookup(const std::string &Program) const {
  for (const TunedEntry &E : Entries)
    if (E.Program == Program)
      return &E;
  return nullptr;
}

namespace {

/// Appends code point \p CP to \p Out as UTF-8.
void appendUtf8(std::string &Out, uint32_t CP) {
  if (CP < 0x80) {
    Out += static_cast<char>(CP);
  } else if (CP < 0x800) {
    Out += static_cast<char>(0xC0 | (CP >> 6));
    Out += static_cast<char>(0x80 | (CP & 0x3F));
  } else if (CP < 0x10000) {
    Out += static_cast<char>(0xE0 | (CP >> 12));
    Out += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
    Out += static_cast<char>(0x80 | (CP & 0x3F));
  } else {
    Out += static_cast<char>(0xF0 | (CP >> 18));
    Out += static_cast<char>(0x80 | ((CP >> 12) & 0x3F));
    Out += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
    Out += static_cast<char>(0x80 | (CP & 0x3F));
  }
}

//===----------------------------------------------------------------------===//
// A small standard JSON reader. Values are doubles, strings (every RFC 8259
// escape decoded, \uXXXX as UTF-8), arrays of values, or objects;
// true/false/null are read as Null, since no table field is a boolean.
// Parse errors carry the byte offset.
//===----------------------------------------------------------------------===//

struct JsonValue {
  enum Kind { Null, Num, Str, Arr, Obj } K = Null;
  double Number = 0;
  std::string String;
  std::vector<JsonValue> Array;
  std::vector<std::pair<std::string, JsonValue>> Object;

  const JsonValue *field(const std::string &Name) const {
    for (const auto &[Key, Val] : Object)
      if (Key == Name)
        return &Val;
    return nullptr;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : S(Text) {}

  std::optional<JsonValue> parse(std::string *Err) {
    std::optional<JsonValue> V = value();
    skipWs();
    if (V && Pos != S.size()) {
      Error = "trailing characters at offset " + std::to_string(Pos);
      V = std::nullopt;
    }
    if (!V && Err)
      *Err = Error.empty() ? "malformed JSON" : Error;
    return V;
  }

private:
  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool eat(char C) {
    skipWs();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> fail(const std::string &Why) {
    if (Error.empty())
      Error = Why + " at offset " + std::to_string(Pos);
    return std::nullopt;
  }

  std::optional<JsonValue> value() {
    skipWs();
    if (Pos >= S.size())
      return fail("unexpected end of input");
    char C = S[Pos];
    if (C == '"')
      return string();
    if (C == '[')
      return array();
    if (C == '{')
      return object();
    for (const char *Word : {"true", "false", "null"})
      if (S.compare(Pos, std::strlen(Word), Word) == 0) {
        Pos += std::strlen(Word);
        return JsonValue();
      }
    if (C == '-' || std::isdigit(static_cast<unsigned char>(C)))
      return number();
    return fail(std::string("unexpected character '") + C + "'");
  }

  std::optional<JsonValue> string() {
    ++Pos; // opening quote
    JsonValue V;
    V.K = JsonValue::Str;
    while (Pos < S.size() && S[Pos] != '"') {
      char C = S[Pos++];
      if (C != '\\' || Pos >= S.size()) {
        V.String += C;
        continue;
      }
      // Escapes: \b \f \n \r \t, \uXXXX; '"', '\\' and '/' stand for
      // themselves.
      char E = S[Pos++];
      if (size_t I = std::string_view("bfnrt").find(E);
          I != std::string::npos) {
        V.String += "\b\f\n\r\t"[I];
        continue;
      }
      if (E != 'u') {
        V.String += E;
        continue;
      }
      std::optional<uint32_t> CP = hex4();
      if (!CP)
        return fail("malformed \\u escape");
      // A UTF-16 surrogate pair encodes one code point beyond the BMP.
      if (*CP >= 0xD800 && *CP < 0xDC00 && S.compare(Pos, 2, "\\u") == 0) {
        Pos += 2;
        std::optional<uint32_t> Low = hex4();
        if (!Low || *Low < 0xDC00 || *Low >= 0xE000)
          return fail("malformed surrogate pair");
        CP = 0x10000 + ((*CP - 0xD800) << 10) + (*Low - 0xDC00);
      }
      appendUtf8(V.String, *CP);
    }
    if (Pos >= S.size())
      return fail("unterminated string");
    ++Pos; // closing quote
    return V;
  }

  /// Reads the four hex digits of a \uXXXX escape.
  std::optional<uint32_t> hex4() {
    if (Pos + 4 > S.size())
      return std::nullopt;
    std::string Digits = S.substr(Pos, 4);
    for (char C : Digits)
      if (!std::isxdigit(static_cast<unsigned char>(C)))
        return std::nullopt;
    Pos += 4;
    return static_cast<uint32_t>(std::stoul(Digits, nullptr, 16));
  }

  std::optional<JsonValue> number() {
    size_t Start = Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '-' || S[Pos] == '+' || S[Pos] == '.' ||
            S[Pos] == 'e' || S[Pos] == 'E'))
      ++Pos;
    JsonValue V;
    V.K = JsonValue::Num;
    try {
      V.Number = std::stod(S.substr(Start, Pos - Start));
    } catch (...) {
      return fail("malformed number");
    }
    return V;
  }

  std::optional<JsonValue> array() {
    ++Pos; // '['
    JsonValue V;
    V.K = JsonValue::Arr;
    if (eat(']'))
      return V;
    while (true) {
      std::optional<JsonValue> Elem = value();
      if (!Elem)
        return std::nullopt;
      V.Array.push_back(std::move(*Elem));
      if (eat(']'))
        return V;
      if (!eat(','))
        return fail("expected ',' or ']' in array");
    }
  }

  std::optional<JsonValue> object() {
    ++Pos; // '{'
    JsonValue V;
    V.K = JsonValue::Obj;
    if (eat('}'))
      return V;
    while (true) {
      skipWs();
      if (Pos >= S.size() || S[Pos] != '"')
        return fail("expected string key in object");
      std::optional<JsonValue> Key = string();
      if (!Key)
        return std::nullopt;
      if (!eat(':'))
        return fail("expected ':' after object key");
      std::optional<JsonValue> Val = value();
      if (!Val)
        return std::nullopt;
      V.Object.emplace_back(std::move(Key->String), std::move(*Val));
      if (eat('}'))
        return V;
      if (!eat(','))
        return fail("expected ',' or '}' in object");
    }
  }

  const std::string &S;
  size_t Pos = 0;
  std::string Error;
};

/// Reads one entries[] element back into a TunedEntry. Returns false (and
/// fills Err) when a required field is missing or mistyped.
bool entryFromJson(const JsonValue &V, TunedEntry &E, std::string *Err) {
  auto Fail = [&](const std::string &Why) {
    if (Err)
      *Err = Why;
    return false;
  };
  if (V.K != JsonValue::Obj)
    return Fail("entry is not an object");
  const JsonValue *Program = V.field("program");
  if (!Program || Program->K != JsonValue::Str || Program->String.empty())
    return Fail("entry missing \"program\"");
  E.Program = Program->String;

  auto Num = [&](const char *Name, double &Out, bool Required) {
    const JsonValue *F = V.field(Name);
    if (!F || F->K != JsonValue::Num)
      return !Required;
    Out = F->Number;
    return true;
  };
  double H = 1, W0 = 1, Shim = 0;
  if (!Num("h", H, true) || !Num("w0", W0, true))
    return Fail("entry for " + E.Program + " missing \"h\"/\"w0\"");
  E.H = static_cast<int64_t>(H);
  E.W0 = static_cast<int64_t>(W0);
  Num("shim_threads", Shim, false);
  E.ShimThreads = static_cast<int>(Shim);
  Num("measured_gstencils", E.MeasuredGStencils, false);
  Num("analytic_gstencils", E.AnalyticGStencils, false);
  Num("model_load_to_compute", E.ModelLoadToCompute, false);
  Num("gap_pct", E.GapPct, false);

  if (const JsonValue *Inner = V.field("inner_widths")) {
    if (Inner->K != JsonValue::Arr)
      return Fail("\"inner_widths\" is not an array");
    for (const JsonValue &W : Inner->Array) {
      if (W.K != JsonValue::Num)
        return Fail("\"inner_widths\" holds a non-number");
      E.InnerWidths.push_back(static_cast<int64_t>(W.Number));
    }
  }
  if (const JsonValue *Rung = V.field("rung")) {
    if (Rung->K != JsonValue::Str || Rung->String.size() != 1 ||
        Rung->String[0] < 'a' || Rung->String[0] > 'f')
      return Fail("\"rung\" must be one letter 'a'..'f'");
    E.Rung = Rung->String[0];
  }
  if (const JsonValue *Flavor = V.field("flavor")) {
    if (Flavor->K != JsonValue::Str ||
        !emitScheduleByName(Flavor->String))
      return Fail("\"flavor\" must be hex/hybrid/classical/overlapped");
    E.Flavor = Flavor->String;
  }
  return true;
}

} // namespace

std::string TuningTable::toJson() const {
  JsonRow Device;
  Device.str("device", Dev);
  std::string Out = "{\n  " + Device.rendered() + ",\n  \"entries\": [\n";
  for (size_t I = 0; I < Entries.size(); ++I) {
    const TunedEntry &E = Entries[I];
    JsonRow Row;
    Row.str("program", E.Program)
        .num("h", E.H)
        .num("w0", E.W0)
        .nums("inner_widths", E.InnerWidths)
        .str("rung", std::string(1, E.Rung))
        .str("flavor", E.Flavor)
        .num("shim_threads", static_cast<int64_t>(E.ShimThreads))
        .num("measured_gstencils", E.MeasuredGStencils)
        .num("analytic_gstencils", E.AnalyticGStencils)
        .num("model_load_to_compute", E.ModelLoadToCompute)
        .num("gap_pct", E.GapPct);
    Out += "    {" + Row.rendered() + "}" +
           (I + 1 < Entries.size() ? "," : "") + "\n";
  }
  return Out + "  ]\n}\n";
}

std::optional<TuningTable> TuningTable::fromJson(const std::string &Json,
                                                 std::string *Err) {
  JsonParser Parser(Json);
  std::optional<JsonValue> Root = Parser.parse(Err);
  if (!Root)
    return std::nullopt;
  auto Fail = [&](const std::string &Why) {
    if (Err)
      *Err = Why;
    return std::nullopt;
  };
  if (Root->K != JsonValue::Obj)
    return Fail("tuning table must be a JSON object");
  TuningTable Table;
  if (const JsonValue *Dev = Root->field("device");
      Dev && Dev->K == JsonValue::Str)
    Table.Dev = Dev->String;
  const JsonValue *Entries = Root->field("entries");
  if (!Entries || Entries->K != JsonValue::Arr)
    return Fail("tuning table missing \"entries\" array");
  for (const JsonValue &V : Entries->Array) {
    TunedEntry E;
    std::string EntryErr;
    if (!entryFromJson(V, E, &EntryErr))
      return Fail(EntryErr);
    Table.put(std::move(E));
  }
  return Table;
}

bool TuningTable::writeFile(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  Out << toJson();
  return static_cast<bool>(Out.flush());
}

std::optional<TuningTable> TuningTable::fromFile(const std::string &Path,
                                                  std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    if (Err)
      *Err = "cannot open " + Path;
    return std::nullopt;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return fromJson(Buf.str(), Err);
}
