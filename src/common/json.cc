#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gamedb::json {

namespace {

/// Recursive-descent reader over the raw document bytes.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    GAMEDB_RETURN_NOT_OK(ParseValue(&v, /*depth=*/0));
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing garbage");
    return v;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::ParseError("json: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// `depth` counts the containers enclosing this value.
  Status ParseValue(JsonValue* out, int depth) {
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    if ((c == '{' || c == '[') && depth >= kMaxDepth) {
      return Fail("nesting too deep");
    }
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        return ParseKeyword(out);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Fail("unexpected character");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      GAMEDB_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue v;
      GAMEDB_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->members.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue v;
      GAMEDB_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->elements.push_back(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad \\u escape");
              }
            }
            pos_ += 4;
            // The emitters only escape control characters; decode the BMP
            // code point to UTF-8 and leave surrogate pairs unsupported.
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Fail("bad escape");
        }
        ++pos_;
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0' || tok.empty()) {
      return Fail("bad number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    return Status::OK();
  }

  Status ParseKeyword(JsonValue* out) {
    auto match = [&](const char* kw) {
      size_t n = std::string(kw).size();
      if (text_.compare(pos_, n, kw) == 0) {
        pos_ += n;
        return true;
      }
      return false;
    };
    if (match("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Status::OK();
    }
    if (match("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Status::OK();
    }
    if (match("null")) {
      out->kind = JsonValue::Kind::kNull;
      return Status::OK();
    }
    return Fail("bad keyword");
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

std::string Quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string Fixed3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace gamedb::json
