#include "src/exp/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace psga::exp {

Json Json::boolean(bool value) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = value;
  return j;
}

Json Json::number(double value) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = value;
  return j;
}

Json Json::integer(std::int64_t value) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = static_cast<double>(value);
  j.exact_int_ = true;
  j.negative_ = value < 0;
  j.u64_ = j.negative_ ? static_cast<std::uint64_t>(-(value + 1)) + 1
                       : static_cast<std::uint64_t>(value);
  return j;
}

Json Json::uinteger(std::uint64_t value) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = static_cast<double>(value);
  j.exact_int_ = true;
  j.u64_ = value;
  return j;
}

template <typename T>
T Json::integer_as(const char* type) const {
  using Limits = std::numeric_limits<T>;
  const auto refuse = [&](const std::string& why) {
    throw std::invalid_argument("Json: " + dump() + " " + why);
  };
  if (kind_ != Kind::kNumber) refuse("is not a number");
  if (exact_int_) {
    // u64_ is the magnitude, and |min| = max + 1 for a signed T.
    const auto max = static_cast<std::uint64_t>(Limits::max());
    if (negative_ ? !Limits::is_signed || u64_ - 1 > max : u64_ > max) {
      refuse(std::string("is out of ") + type + " range");
    }
    // -1 - (u64_ - 1) avoids signed overflow at INT64_MIN (u64_ = 2^63).
    return negative_ ? static_cast<T>(-1 - static_cast<std::int64_t>(u64_ - 1))
                     : static_cast<T>(u64_);
  }
  if (number_ != std::trunc(number_)) refuse("is not a whole number");
  // Both bounds are exact doubles: min is 0 or -2^k, and max + 1 rounds
  // to 2^k.
  if (!(number_ >= static_cast<double>(Limits::min()) &&
        number_ < static_cast<double>(Limits::max()) + 1.0)) {
    refuse(std::string("is out of ") + type + " range");
  }
  return static_cast<T>(number_);
}

std::uint64_t Json::as_u64() const {
  return integer_as<std::uint64_t>("uint64");
}

std::int64_t Json::as_i64() const { return integer_as<std::int64_t>("int64"); }

int Json::as_int() const { return integer_as<int>("int"); }

Json Json::string(std::string value) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(value);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json& Json::set(const std::string& key, Json value) {
  object_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  array_.push_back(std::move(value));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* value = find(key);
  return value != nullptr && value->kind_ == Kind::kNumber ? value->number_
                                                           : fallback;
}

std::string Json::string_or(const std::string& key,
                            const std::string& fallback) const {
  const Json* value = find(key);
  return value != nullptr && value->kind_ == Kind::kString ? value->string_
                                                           : fallback;
}

std::string Json::escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Json::number_text() const {
  // Exact integers render as digits (u64 seeds stay lossless).
  if (exact_int_) {
    return (negative_ ? "-" : "") + std::to_string(u64_);
  }
  // max_digits10 keeps doubles exact through a dump/parse round-trip;
  // infinities/NaNs are not valid JSON numbers, so they render as the
  // sentinel strings "inf"/"-inf"/"nan" and the parser maps those exact
  // strings back to non-finite numbers (failed/degenerate cells keep
  // their ±inf best objectives through the round-trip).
  if (!(number_ == number_)) return "\"nan\"";
  if (number_ == std::numeric_limits<double>::infinity()) return "\"inf\"";
  if (number_ == -std::numeric_limits<double>::infinity()) return "\"-inf\"";
  std::ostringstream stream;
  stream.precision(std::numeric_limits<double>::max_digits10);
  stream << number_;
  return stream.str();
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      out += number_text();
      break;
    case Kind::kString:
      out += '"';
      out += escape(string_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Json& item : array_) {
        if (!first) out += ',';
        first = false;
        item.dump_to(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : object_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += escape(key);
        out += "\":";
        member.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  if (indent <= 0) return dump();
  std::string out;
  dump_pretty_to(out, indent, 0);
  return out;
}

void Json::dump_pretty_to(std::string& out, int indent, int depth) const {
  auto pad = [&out, indent](int level) {
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (kind_) {
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      bool first = true;
      for (const Json& item : array_) {
        if (!first) out += ",\n";
        first = false;
        pad(depth + 1);
        item.dump_pretty_to(out, indent, depth + 1);
      }
      out += '\n';
      pad(depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      bool first = true;
      for (const auto& [key, member] : object_) {
        if (!first) out += ",\n";
        first = false;
        pad(depth + 1);
        out += '"';
        out += escape(key);
        out += "\": ";
        member.dump_pretty_to(out, indent, depth + 1);
      }
      out += '\n';
      pad(depth);
      out += '}';
      return;
    }
    default:
      dump_to(out);  // scalars render exactly as the compact form
      return;
  }
}

// --- parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("Json::parse: " + what + " at byte " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consume_word(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == Json::kMaxDepth) {
        fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
             " levels");
      }
      ++depth_;
      Json nested = c == '{' ? parse_object() : parse_array();
      --depth_;
      return nested;
    }
    if (c == '"') {
      std::string s = parse_string();
      // The non-finite sentinels dump() emits parse back as numbers so
      // parse(dump()) stays the identity on every value the sink emits.
      if (s == "inf") {
        return Json::number(std::numeric_limits<double>::infinity());
      }
      if (s == "-inf") {
        return Json::number(-std::numeric_limits<double>::infinity());
      }
      if (s == "nan") {
        return Json::number(std::numeric_limits<double>::quiet_NaN());
      }
      return Json::string(std::move(s));
    }
    if (consume_word("true")) return Json::boolean(true);
    if (consume_word("false")) return Json::boolean(false);
    if (consume_word("null")) return Json::null();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (consume('}')) return obj;
      expect(',');
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    for (;;) {
      arr.push(parse_value());
      skip_ws();
      if (consume(']')) return arr;
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          for (const char h : hex) {
            if (!std::isxdigit(static_cast<unsigned char>(h))) {
              fail("malformed \\u escape");
            }
          }
          pos_ += 4;
          const unsigned long code = std::strtoul(hex.c_str(), nullptr, 16);
          // Telemetry only ever escapes control characters; anything in
          // the BMP below 0x80 maps straight to one byte.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            fail("unsupported \\u escape");
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    const bool integral =
        token.find_first_of(".eE") == std::string::npos;
    if (integral) {
      errno = 0;
      if (token[0] == '-') {
        char* end = nullptr;
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          return Json::integer(v);
        }
      } else {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          return Json::uinteger(v);
        }
      }
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return Json::number(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open around pos_
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace psga::exp
