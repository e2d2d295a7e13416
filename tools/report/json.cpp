#include "report/json.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace photherm::report {

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : members) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

std::string JsonValue::text_or(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? v->text : fallback;
}

DecimalScan scan_decimal(const std::string& text, std::size_t pos) {
  const auto at = [&](char ch) { return pos < text.size() && text[pos] == ch; };
  const auto digits = [&] {
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      ++pos;
    }
    return pos > start;
  };
  if (at('-')) {
    ++pos;
  }
  if (at('0')) {
    ++pos;
  } else if (!digits()) {
    return {pos, "expected a JSON value"};
  }
  if (at('.')) {
    ++pos;
    if (!digits()) {
      return {pos, "malformed number: no digit after the decimal point"};
    }
  }
  if (at('e') || at('E')) {
    ++pos;
    if (at('+') || at('-')) {
      ++pos;
    }
    if (!digits()) {
      return {pos, "malformed number: no digit in the exponent"};
    }
  }
  return {pos, nullptr};
}

namespace {

class JsonParser {
 public:
  JsonParser(const std::string& text, const std::string& context)
      : text_(text), context_(context) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "trailing content after the top-level value");
    return value;
  }

 private:
  void require(bool ok, const std::string& message) const {
    if (!ok) {
      std::ostringstream os;
      os << context_ << ": JSON parse error at byte " << pos_ << ": " << message;
      throw Error(os.str());
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    require(pos_ < text_.size() && text_[pos_] == ch,
            std::string("expected `") + ch + "`");
    ++pos_;
  }

  bool consume_keyword(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      require(pos_ < text_.size(), "unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') {
        return out;
      }
      if (ch != '\\') {
        out.push_back(ch);
        continue;
      }
      require(pos_ < text_.size(), "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          require(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char hex = text_[pos_++];
            unsigned digit = 0;
            if (hex >= '0' && hex <= '9') {
              digit = static_cast<unsigned>(hex - '0');
            } else if (hex >= 'a' && hex <= 'f') {
              digit = static_cast<unsigned>(hex - 'a') + 10;
            } else if (hex >= 'A' && hex <= 'F') {
              digit = static_cast<unsigned>(hex - 'A') + 10;
            } else {
              require(false, "invalid \\u escape digit");
            }
            code = code * 16 + digit;
          }
          // This tool only needs ASCII fidelity (its inputs escape control
          // characters); anything beyond is preserved as a placeholder.
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          require(false, "unknown escape character");
      }
    }
  }

  /// One number (see parse_json): a non-finite spelling, or
  /// -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  double parse_number() {
    const std::size_t start = pos_;
    bool non_finite = false;
    for (const char* word : {"-Infinity", "Infinity", "NaN", "-inf", "inf", "-nan", "nan"}) {
      if (consume_keyword(word)) {
        non_finite = true;
        break;
      }
    }
    if (!non_finite) {
      const DecimalScan scan = scan_decimal(text_, pos_);
      pos_ = scan.end;
      if (scan.error != nullptr) {
        require(false, scan.error);
      }
    }
    // A number ends where a value may: `0x10`, `01` and `infinity` must not
    // load as the number their first bytes spell.
    const auto number_byte = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' || c == '+' ||
             c == '-';
    };
    require(pos_ == text_.size() || !number_byte(text_[pos_]), "malformed number");
    const std::string token = text_.substr(start, pos_ - start);
    return std::strtod(token.c_str(), nullptr);
  }

  /// Nesting bound far above the 4 levels of any artifact this tool reads;
  /// it keeps a hostile file from exhausting the stack through recursion.
  static constexpr std::size_t kMaxDepth = 256;

  JsonValue parse_value(std::size_t depth = 0) {
    skip_ws();
    require(depth <= kMaxDepth, "values nest too deeply");
    const char ch = peek();
    JsonValue value;
    if (ch == '{') {
      value.kind = JsonValue::Kind::kObject;
      expect('{');
      skip_ws();
      if (peek() == '}') {
        expect('}');
        return value;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        value.members.emplace_back(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          expect(',');
          continue;
        }
        expect('}');
        return value;
      }
    }
    if (ch == '[') {
      value.kind = JsonValue::Kind::kArray;
      expect('[');
      skip_ws();
      if (peek() == ']') {
        expect(']');
        return value;
      }
      while (true) {
        value.items.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          expect(',');
          continue;
        }
        expect(']');
        return value;
      }
    }
    if (ch == '"') {
      value.kind = JsonValue::Kind::kString;
      value.text = parse_string();
      return value;
    }
    if (consume_keyword("true")) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (consume_keyword("false")) {
      value.kind = JsonValue::Kind::kBool;
      return value;
    }
    if (consume_keyword("null")) {
      return value;
    }
    value.kind = JsonValue::Kind::kNumber;
    value.number = parse_number();
    return value;
  }

  const std::string& text_;
  const std::string& context_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text, const std::string& context) {
  return JsonParser(text, context).parse();
}

}  // namespace photherm::report
