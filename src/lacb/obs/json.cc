#include "lacb/obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace lacb::obs {

namespace {

void WriteEscaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void WriteNumber(std::ostream& os, double d) {
  if (!std::isfinite(d)) {
    os << "null";
    return;
  }
  // Integers up to 2^53 print exactly, without a trailing ".0".
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    os << buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  os << buf;
}

}  // namespace

// Recursive-descent parser over a raw character range.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Run() {
    LACB_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("JSON: trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Status::InvalidArgument(std::string("JSON: expected '") + c +
                                     "' at offset " + std::to_string(pos_));
    }
    return Status::OK();
  }

  bool ConsumeLiteral(const char* lit) {
    size_t len = std::string(lit).size();
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("JSON: unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      LACB_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue(std::move(s));
    }
    if (ConsumeLiteral("null")) return JsonValue();
    if (ConsumeLiteral("true")) return JsonValue(true);
    if (ConsumeLiteral("false")) return JsonValue(false);
    return ParseNumber();
  }

  Result<JsonValue> ParseObject() {
    LACB_RETURN_NOT_OK(Expect('{'));
    JsonValue out = JsonValue::Object();
    SkipSpace();
    if (Consume('}')) return out;
    while (true) {
      SkipSpace();
      LACB_ASSIGN_OR_RETURN(std::string key, ParseString());
      LACB_RETURN_NOT_OK(Expect(':'));
      LACB_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      out.Set(key, std::move(v));
      if (Consume(',')) continue;
      LACB_RETURN_NOT_OK(Expect('}'));
      return out;
    }
  }

  Result<JsonValue> ParseArray() {
    LACB_RETURN_NOT_OK(Expect('['));
    JsonValue out = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) return out;
    while (true) {
      LACB_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      out.Append(std::move(v));
      if (Consume(',')) continue;
      LACB_RETURN_NOT_OK(Expect(']'));
      return out;
    }
  }

  Result<std::string> ParseString() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Status::InvalidArgument("JSON: expected string at offset " +
                                     std::to_string(pos_));
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
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
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::InvalidArgument("JSON: truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Status::InvalidArgument("JSON: bad \\u escape digit");
            }
          }
          // Telemetry strings are ASCII; encode BMP code points as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Status::InvalidArgument("JSON: unknown escape");
      }
    }
    return Status::InvalidArgument("JSON: unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    // The whole of JSON's number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?
    // ([eE][+-]?[0-9]+)?, must match: a literal that stops early ("1-2",
    // "3.0.0") or runs short ("7e", "-") is refused, not read as the
    // longest prefix std::stod would take.
    const size_t start = pos_;
    auto at = [&](std::string_view set) {
      return pos_ < text_.size() &&
             set.find(text_[pos_]) != std::string_view::npos;
    };
    auto digits = [&] {
      const size_t from = pos_;
      while (at("0123456789")) ++pos_;
      return pos_ > from;
    };
    if (at("-")) ++pos_;
    bool ok = at("0") ? (++pos_, true) : digits();
    if (ok && at(".")) {
      ++pos_;
      ok = digits();
    }
    if (ok && at("eE")) {
      ++pos_;
      if (at("+-")) ++pos_;
      ok = digits();
    }
    if (pos_ == start) {
      return Status::InvalidArgument("JSON: expected value at offset " +
                                     std::to_string(pos_));
    }
    if (!ok || at("0123456789.eE+-")) {
      return Status::InvalidArgument("JSON: malformed number at offset " +
                                     std::to_string(start));
    }
    const std::string literal = text_.substr(start, pos_ - start);
    JsonValue v;
    try {
      v = JsonValue(std::stod(literal));
    } catch (...) {
      return Status::InvalidArgument("JSON: malformed number");
    }
    // An integer literal past 2^53 may lose low bits in the double; record
    // whether it did, so integer readers can refuse a rounded value.
    const size_t sign = literal[0] == '-' ? 1 : 0;
    if (literal.find_first_not_of("0123456789", sign) == std::string::npos) {
      uint64_t magnitude = 0;
      const bool parsed =
          std::from_chars(literal.data() + sign,
                          literal.data() + literal.size(), magnitude)
              .ec == std::errc();
      v.exact_ = parsed && JsonValue::HoldsExactly(magnitude);
    }
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool JsonValue::HoldsExactly(uint64_t magnitude) {
  const double d = static_cast<double>(magnitude);
  return d < 0x1p64 && static_cast<uint64_t>(d) == magnitude;
}

void JsonValue::Append(JsonValue v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  items_.push_back(std::move(v));
}

void JsonValue::Set(const std::string& key, JsonValue v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::WriteIndented(std::ostream& os, int indent, int depth) const {
  const std::string pad(static_cast<size_t>(indent) * (depth + 1), ' ');
  const std::string close_pad(static_cast<size_t>(indent) * depth, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (kind_) {
    case Kind::kNull:
      os << "null";
      break;
    case Kind::kBool:
      os << (bool_ ? "true" : "false");
      break;
    case Kind::kNumber:
      WriteNumber(os, number_);
      break;
    case Kind::kString:
      WriteEscaped(os, string_);
      break;
    case Kind::kArray: {
      if (items_.empty()) {
        os << "[]";
        break;
      }
      os << '[' << nl;
      for (size_t i = 0; i < items_.size(); ++i) {
        os << pad;
        items_[i].WriteIndented(os, indent, depth + 1);
        if (i + 1 < items_.size()) os << ',';
        os << nl;
      }
      os << close_pad << ']';
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        os << "{}";
        break;
      }
      os << '{' << nl;
      for (size_t i = 0; i < members_.size(); ++i) {
        os << pad;
        WriteEscaped(os, members_[i].first);
        os << (indent > 0 ? ": " : ":");
        members_[i].second.WriteIndented(os, indent, depth + 1);
        if (i + 1 < members_.size()) os << ',';
        os << nl;
      }
      os << close_pad << '}';
      break;
    }
  }
}

void JsonValue::Write(std::ostream& os, int indent) const {
  WriteIndented(os, indent, 0);
}

std::string JsonValue::ToString(int indent) const {
  std::ostringstream os;
  Write(os, indent);
  return os.str();
}

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  return JsonParser(text).Run();
}

}  // namespace lacb::obs
