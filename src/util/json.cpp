#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace drift::util {

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::kDouble) return int_;
  // 2^63 is exactly representable; every double below it converts.
  constexpr double kLimit = 9223372036854775808.0;
  if (std::isnan(double_)) return 0;
  if (double_ >= kLimit) return std::numeric_limits<std::int64_t>::max();
  if (double_ < -kLimit) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(double_);
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::get_path(
    std::initializer_list<const char*> keys) const {
  const JsonValue* v = this;
  for (const char* key : keys) {
    v = v->get(key);
    if (v == nullptr) return nullptr;
  }
  return v;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == other.bool_;
    case Kind::kInt: return int_ == other.int_;
    case Kind::kDouble: return double_ == other.double_;
    case Kind::kString: return string_ == other.string_;
    case Kind::kArray: return array_ == other.array_;
    case Kind::kObject: return object_ == other.object_;
  }
  return false;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string& error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> run() {
    skip_ws();
    JsonValue v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing bytes after the top-level value");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& what) { fail_at(pos_, what); }

  void fail_at(std::size_t at, const std::string& what) {
    if (!error_.empty()) return;  // keep the first (deepest) error
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < at && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    error_ = "line " + std::to_string(line) + ", col " +
             std::to_string(col) + ": " + what;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected, const char* what) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    fail(std::string("expected ") + what);
    return false;
  }

  bool parse_literal(const char* word, JsonValue v, JsonValue& out) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      out = std::move(v);
      return true;
    }
    fail(std::string("bad literal (expected '") + word + "')");
    return false;
  }

  bool parse_string(std::string& out) {
    if (!consume('"', "'\"'")) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
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
          // The repo's writers never emit \u escapes for ASCII, but a
          // hand-written tolerance file might; decode BMP code points
          // to UTF-8 and reject surrogates.
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
              return false;
            }
          }
          if (cp >= 0xD800 && cp <= 0xDFFF) {
            fail("surrogate \\u escape unsupported");
            return false;
          }
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      std::int64_t i = 0;
      const auto res = std::from_chars(first, last, i);
      // "-0" stays a double: an int would drop the sign, and the
      // canonical writer prints the double -0.0 as "-0".
      if (res.ec == std::errc() && res.ptr == last &&
          !(i == 0 && *first == '-')) {
        out = JsonValue(i);
        return true;
      }
      // Out-of-int64-range integer literal (or "-0"): fall through to
      // double.
    }
    double d = 0.0;
    const auto res = std::from_chars(first, last, d);
    if (res.ec != std::errc() || res.ptr != last || first == last) {
      fail("malformed number");
      return false;
    }
    out = JsonValue(d);
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (++depth_ > kMaxDepth) {
      fail("nesting too deep");
      return false;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      --depth_;
      return false;
    }
    bool ok = false;
    switch (text_[pos_]) {
      case 'n': ok = parse_literal("null", JsonValue(), out); break;
      case 't': ok = parse_literal("true", JsonValue(true), out); break;
      case 'f': ok = parse_literal("false", JsonValue(false), out); break;
      case '"': {
        std::string s;
        ok = parse_string(s);
        if (ok) out = JsonValue(std::move(s));
        break;
      }
      case '[': {
        ++pos_;
        JsonArray arr;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          ok = true;
        } else {
          while (true) {
            JsonValue elem;
            if (!parse_value(elem)) break;
            arr.push_back(std::move(elem));
            skip_ws();
            if (pos_ < text_.size() && text_[pos_] == ',') {
              ++pos_;
              continue;
            }
            ok = consume(']', "',' or ']'");
            break;
          }
        }
        if (ok) out = JsonValue(std::move(arr));
        break;
      }
      case '{': {
        ++pos_;
        JsonObject obj;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          ok = true;
        } else {
          while (true) {
            skip_ws();
            const std::size_t key_pos = pos_;
            std::string key;
            if (!parse_string(key)) break;
            if (obj.count(key) != 0) {
              fail_at(key_pos, "duplicate key '" + key + "'");
              break;
            }
            skip_ws();
            if (!consume(':', "':'")) break;
            JsonValue elem;
            if (!parse_value(elem)) break;
            obj.emplace(std::move(key), std::move(elem));
            skip_ws();
            if (pos_ < text_.size() && text_[pos_] == ',') {
              ++pos_;
              continue;
            }
            ok = consume('}', "',' or '}'");
            break;
          }
        }
        if (ok) out = JsonValue(std::move(obj));
        break;
      }
      default:
        ok = parse_number(out);
        break;
    }
    --depth_;
    return ok;
  }

  static constexpr int kMaxDepth = 64;
  const std::string& text_;
  std::string& error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void append_value(std::string& out, const JsonValue& v, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case JsonValue::Kind::kInt:
      out += std::to_string(v.as_int());
      break;
    case JsonValue::Kind::kDouble:
      out += format_double(v.as_double());
      break;
    case JsonValue::Kind::kString:
      append_json_string(out, v.as_string());
      break;
    case JsonValue::Kind::kArray: {
      const JsonArray& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < arr.size(); ++i) {
        out += pad_in;
        append_value(out, arr[i], indent + 1);
        out += i + 1 < arr.size() ? ",\n" : "\n";
      }
      out += pad + "]";
      break;
    }
    case JsonValue::Kind::kObject: {
      const JsonObject& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      std::size_t i = 0;
      for (const auto& [key, value] : obj) {
        out += pad_in;
        append_json_string(out, key);
        out += ": ";
        append_value(out, value, indent + 1);
        out += ++i < obj.size() ? ",\n" : "\n";
      }
      out += pad + "}";
      break;
    }
  }
}

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string& error) {
  error.clear();
  return Parser(text, error).run();
}

std::string write_canonical(const JsonValue& value) {
  std::string out;
  append_value(out, value, 0);
  out += '\n';
  return out;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e999" : (v < 0 ? "-1e999" : "0");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace drift::util
