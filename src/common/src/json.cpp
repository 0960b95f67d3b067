#include "cpm/common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "cpm/common/error.hpp"

namespace cpm {

Json::Json(JsonArray a)
    : type_(Type::kArray), arr_(std::make_shared<JsonArray>(std::move(a))) {}

Json::Json(JsonObject o)
    : type_(Type::kObject), obj_(std::make_shared<JsonObject>(std::move(o))) {}

bool Json::as_bool() const {
  require(is_bool(), "Json: not a boolean");
  return bool_;
}

double Json::as_number() const {
  require(is_number(), "Json: not a number");
  return num_;
}

const std::string& Json::as_string() const {
  require(is_string(), "Json: not a string");
  return str_;
}

const JsonArray& Json::as_array() const {
  require(is_array(), "Json: not an array");
  return *arr_;
}

const JsonObject& Json::as_object() const {
  require(is_object(), "Json: not an object");
  return *obj_;
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw Error("Json: missing key '" + key + "'");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return is_object() && obj_->count(key) > 0;
}

double Json::number_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::string Json::string_or(const std::string& key, std::string fallback) const {
  return contains(key) ? at(key).as_string() : std::move(fallback);
}

void Json::throw_not_integer(const std::string& lo, const std::string& hi) const {
  // Shortest round-trip text: the value as the document most likely wrote it.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, num_);
  throw Error("Json: " + std::string(buf, res.ptr) +
              " is not an integer in [" + lo + ", " + hi + "]");
}

const Json& Json::at(std::size_t index) const {
  const auto& arr = as_array();
  require(index < arr.size(), "Json: array index out of range");
  return arr[index];
}

std::size_t Json::size() const {
  if (is_array()) return arr_->size();
  if (is_object()) return obj_->size();
  throw Error("Json: size() on a scalar");
}

// ---- parsing ---------------------------------------------------------------

namespace {

/// True for a string character JSON text holds as itself: anything but a
/// quote, a backslash or a control character.
bool is_plain(char c) {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

/// Appends code point `code` (at most 0x10FFFF) as UTF-8.
void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (code >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error("Json parse error at " + std::to_string(line) + ":" +
                std::to_string(col) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(const char* lit) {
    std::size_t i = 0;
    while (lit[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != lit[i]) return false;
      ++i;
    }
    pos_ += i;
    return true;
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == Json::kMaxNesting)
          fail("nesting deeper than " + std::to_string(Json::kMaxNesting) +
               " levels");
        ++depth_;
        Json value = c == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      // Documents list members in key order, so the end is the usual
      // place; a duplicate key keeps the first member, as emplace does.
      obj.emplace_hint(obj.end(), std::move(key), parse_value());
      skip_whitespace();
      const char c = next();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_whitespace();
      const char c = next();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const std::size_t run = pos_;
      while (pos_ < text_.size() && is_plain(text_[pos_])) ++pos_;
      out.append(text_, run, pos_ - run);
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') {
        --pos_;
        fail("unescaped control character in string");
      }
      const char esc = next();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, parse_code_point()); break;
        default:
          --pos_;
          fail("invalid escape sequence");
      }
    }
  }

  /// The four hex digits of a \u escape.
  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = next();
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return code;
  }

  /// The code point of a \u escape whose "\u" is consumed: a BMP
  /// character, or a high surrogate whose low surrogate follows as a second
  /// escape. A surrogate without its partner is an error at its escape.
  unsigned parse_code_point() {
    const std::size_t escape = pos_ - 2;
    const unsigned code = parse_hex4();
    if (code < 0xD800 || code > 0xDFFF) return code;
    if (code <= 0xDBFF && consume_literal("\\u")) {
      const unsigned low = parse_hex4();
      if (low >= 0xDC00 && low <= 0xDFFF)
        return 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    pos_ = escape;
    fail("unpaired surrogate in \\u escape");
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool digits = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      digits = true;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (!digits) fail("invalid number");
    // from_chars reads the token in place and rounds as strtod does. A
    // token it reports out of range goes to strtod, which turns underflow
    // into a signed zero and overflow into an inf that fails below.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    std::from_chars_result r = std::from_chars(first, last, value);
    if (r.ec == std::errc::result_out_of_range) {
      const std::string token(first, last);
      char* token_end = nullptr;
      value = std::strtod(token.c_str(), &token_end);
      r.ptr = first + (token_end - token.c_str());
    }
    if (r.ptr != last || !std::isfinite(value))
      fail("invalid number '" + std::string(first, last) + "'");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open at pos_
};

void dump_string(std::string& out, const std::string& s) {
  out.push_back('"');
  std::size_t run = 0;  // first character not yet written
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (is_plain(c)) continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, run, s.size() - run);
  out.push_back('"');
}

void dump_number(std::string& out, double d) {
  // Integers print without a decimal point; everything else as printf's
  // "%.17g" in the C locale, enough digits to round-trip. The range test
  // comes first: casting an inf, a NaN or |d| >= 2^63 is undefined.
  char buf[32];
  std::to_chars_result r{};
  if (std::abs(d) < 1e15 && d == static_cast<double>(static_cast<long long>(d)))
    r = std::to_chars(buf, buf + sizeof buf, static_cast<long long>(d));
  else
    r = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

void Json::dump_to(std::string& out, int indent, int depth) const {
  // Pretty-printing starts each member on a new line, `indent` spaces per
  // level, and puts the closing bracket on a line of its own.
  auto newline = [&out, indent](int level) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: dump_number(out, num_); break;
    case Type::kString: dump_string(out, str_); break;
    case Type::kArray: {
      if (arr_->empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const auto& v : *arr_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      if (obj_->empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : *obj_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        dump_string(out, key);
        out += indent > 0 ? ": " : ":";
        value.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace cpm
