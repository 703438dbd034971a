#include "util/json.hpp"

#include <cmath>
#include <cstdio>

namespace llp {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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
          out += c;  // UTF-8 bytes pass through
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  // %.17g round-trips every double; integers print without a point, so
  // counters look like counters on the wire.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

void dump_value(std::string& out, const Json& j) {
  switch (j.type()) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += j.as_bool() ? "true" : "false"; break;
    case Json::Type::kNumber: append_number(out, j.as_double()); break;
    case Json::Type::kString: append_escaped(out, j.as_string()); break;
    case Json::Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& e : j.array()) {
        if (!first) out += ',';
        first = false;
        dump_value(out, e);
      }
      out += ']';
      break;
    }
    case Json::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : j.object()) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, k);
        out += ':';
        dump_value(out, v);
      }
      out += '}';
      break;
    }
  }
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& why) {
    if (error.empty()) {
      error = why + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return false;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool hex4(unsigned& out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("bad hex digit in \\u escape");
    }
    pos += 4;
    out = v;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (true) {
      if (pos >= text.size()) return fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos;
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return fail("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (!literal("\\u")) return fail("lone high surrogate");
            unsigned lo = 0;
            if (!hex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return fail("bad low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("bad escape character");
      }
    }
  }

  bool parse_number(double& out) {
    const std::size_t start = pos;
    if (consume('-')) {}
    if (!consume('0')) {
      if (pos >= text.size() || text[pos] < '1' || text[pos] > '9') {
        pos = start;
        return fail("expected number");
      }
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (consume('.')) {
      if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
        return fail("digit required after decimal point");
      }
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
        return fail("digit required in exponent");
      }
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    out = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out)) return fail("number out of double range");
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > Json::kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == 'n') {
      if (!literal("null")) return fail("bad literal");
      out = Json(nullptr);
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return fail("bad literal");
      out = Json(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return fail("bad literal");
      out = Json(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Json(std::move(s));
      return true;
    }
    if (c == '[') {
      ++pos;
      Json::Array arr;
      skip_ws();
      if (consume(']')) {
        out = Json(std::move(arr));
        return true;
      }
      while (true) {
        Json elem;
        if (!parse_value(elem, depth + 1)) return false;
        arr.push_back(std::move(elem));
        skip_ws();
        if (consume(']')) break;
        if (!consume(',')) return fail("expected ',' or ']' in array");
      }
      out = Json(std::move(arr));
      return true;
    }
    if (c == '{') {
      ++pos;
      Json::Object obj;
      skip_ws();
      if (consume('}')) {
        out = Json(std::move(obj));
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':' after object key");
        Json value;
        if (!parse_value(value, depth + 1)) return false;
        obj[std::move(key)] = std::move(value);
        skip_ws();
        if (consume('}')) break;
        if (!consume(',')) return fail("expected ',' or '}' in object");
      }
      out = Json(std::move(obj));
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      double d = 0.0;
      if (!parse_number(d)) return false;
      out = Json(d);
      return true;
    }
    return fail("unexpected character");
  }
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(out, *this);
  return out;
}

std::string json_quote(std::string_view s) {
  std::string out;
  append_escaped(out, s);
  return out;
}

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  Parser p{text, 0, {}};
  Json out;
  if (!p.parse_value(out, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing garbage at offset " + std::to_string(p.pos);
    }
    return std::nullopt;
  }
  return out;
}

}  // namespace llp
