#include "util/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace rtcm::json {

namespace {

const Value& null_value() {
  static const Value kNull;
  return kNull;
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_value(const Value& v, std::string& out, int indent, int depth) {
  const std::string pad(static_cast<std::size_t>(indent * (depth + 1)), ' ');
  const std::string close_pad(static_cast<std::size_t>(indent * depth), ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (v.kind()) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      out += number_to_string(v.as_double());
      break;
    case Value::Kind::kString:
      append_escaped(out, v.as_string());
      break;
    case Value::Kind::kArray: {
      if (v.size() == 0) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (indent > 0) out += pad;
        dump_value(v.at(i), out, indent, depth + 1);
        if (i + 1 < v.size()) out += ',';
        if (indent > 0) {
          out += nl;
        } else if (i + 1 < v.size()) {
          out += ' ';
        }
      }
      if (indent > 0) out += close_pad;
      out += ']';
      break;
    }
    case Value::Kind::kObject: {
      if (v.members().empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < v.members().size(); ++i) {
        if (indent > 0) out += pad;
        append_escaped(out, v.members()[i].first);
        out += ": ";
        dump_value(v.members()[i].second, out, indent, depth + 1);
        if (i + 1 < v.members().size()) out += ',';
        if (indent > 0) {
          out += nl;
        } else if (i + 1 < v.members().size()) {
          out += ' ';
        }
      }
      if (indent > 0) out += close_pad;
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> parse_document() {
    skip_whitespace();
    Result<Value> value = parse_value();
    if (!value.is_ok()) return value;
    skip_whitespace();
    if (pos_ != text_.size()) {
      return error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Result<Value> error(const std::string& what) const {
    return Result<Value>::error(
        strfmt("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Value> parse_value() {
    if (pos_ >= text_.size()) return error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
        if (consume_literal("true")) return Value(true);
        return error("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        return error("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value();
        return error("invalid literal");
      default: return parse_number();
    }
  }

  Result<Value> parse_object() {
    ++pos_;  // '{'
    Value obj = Value::object();
    skip_whitespace();
    if (consume('}')) return obj;
    while (true) {
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return error("expected object key string");
      }
      Result<Value> key = parse_string();
      if (!key.is_ok()) return key;
      skip_whitespace();
      if (!consume(':')) return error("expected ':' after object key");
      skip_whitespace();
      Result<Value> value = parse_value();
      if (!value.is_ok()) return value;
      obj.set(key.value().as_string(), std::move(value).value());
      skip_whitespace();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      return error("expected ',' or '}' in object");
    }
  }

  Result<Value> parse_array() {
    ++pos_;  // '['
    Value arr = Value::array();
    skip_whitespace();
    if (consume(']')) return arr;
    while (true) {
      skip_whitespace();
      Result<Value> value = parse_value();
      if (!value.is_ok()) return value;
      arr.push_back(std::move(value).value());
      skip_whitespace();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      return error("expected ',' or ']' in array");
    }
  }

  Result<Value> parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Value(std::move(out));
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return error("invalid \\u escape");
            }
          }
          // Reports only ever emit \u00xx control escapes; encode the
          // general case as UTF-8 anyway (no surrogate-pair handling).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return error("invalid escape character");
      }
    }
    return error("unterminated string");
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double out = 0.0;
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || !parse_double(token, out)) {
      pos_ = start;
      return error("invalid number");
    }
    return Value(out);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

bool Value::as_bool(bool def) const {
  return kind_ == Kind::kBool ? bool_ : def;
}

double Value::as_double(double def) const {
  return kind_ == Kind::kNumber ? number_ : def;
}

std::int64_t Value::as_int(std::int64_t def) const {
  return is_int64() ? static_cast<std::int64_t>(number_) : def;
}

bool Value::is_int64() const {
  // -2^63 and 2^63 are exact doubles; NaN fails both comparisons.
  return kind_ == Kind::kNumber && number_ >= -0x1p63 && number_ < 0x1p63;
}

const std::string& Value::as_string() const {
  static const std::string kEmpty;
  return kind_ == Kind::kString ? string_ : kEmpty;
}

std::size_t Value::size() const {
  return kind_ == Kind::kArray ? items_.size() : 0;
}

const Value& Value::at(std::size_t i) const {
  if (kind_ != Kind::kArray || i >= items_.size()) return null_value();
  return items_[i];
}

void Value::push_back(Value v) {
  assert(kind_ == Kind::kArray);
  items_.push_back(std::move(v));
}

const Members& Value::members() const {
  static const Members kEmpty;
  return kind_ == Kind::kObject ? members_ : kEmpty;
}

const Value& Value::get(std::string_view key) const {
  if (kind_ == Kind::kObject) {
    for (const auto& [k, v] : members_) {
      if (k == key) return v;
    }
  }
  return null_value();
}

bool Value::contains(std::string_view key) const {
  for (const auto& [k, v] : members()) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

void Value::set(std::string key, Value v) {
  assert(kind_ == Kind::kObject);
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

std::string Value::dump() const {
  std::string out;
  dump_value(*this, out, 2, 0);
  out += '\n';
  return out;
}

std::string Value::dump_compact() const {
  std::string out;
  dump_value(*this, out, 0, 0);
  return out;
}

Result<Value> Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string number_to_string(double d) {
  if (!std::isfinite(d)) return "null";  // JSON has no NaN/Inf.
  // Integral values print without a decimal point or exponent.
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    const auto n = static_cast<long long>(d);
    std::snprintf(buf, sizeof(buf), "%lld", n);
    return buf;
  }
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

}  // namespace rtcm::json
