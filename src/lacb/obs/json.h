// Minimal JSON document model for telemetry export.
//
// JsonValue holds one of null / bool / number / string / array / object,
// writes itself as standards-compliant JSON (object keys kept in insertion
// order so exported snapshots diff cleanly), and parses back from text —
// enough for BENCH_*.json round-trips without an external dependency.
// Numbers are doubles; non-finite values serialize as null.

#ifndef LACB_OBS_JSON_H_
#define LACB_OBS_JSON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "lacb/common/result.h"

namespace lacb::obs {

/// \brief A JSON document node.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  JsonValue(double d) : kind_(Kind::kNumber), number_(d) {}  // NOLINT
  JsonValue(int64_t i)  // NOLINT
      : kind_(Kind::kNumber),
        number_(static_cast<double>(i)),
        exact_(HoldsExactly(i < 0 ? 0 - static_cast<uint64_t>(i)
                                  : static_cast<uint64_t>(i))) {}
  JsonValue(uint64_t u)  // NOLINT
      : kind_(Kind::kNumber),
        number_(static_cast<double>(u)),
        exact_(HoldsExactly(u)) {}
  JsonValue(std::string s)  // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}  // NOLINT

  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  /// \brief False when the number stands for an integer a double cannot
  /// hold — an int64/uint64 or an integer literal beyond 2^53 whose low
  /// bits were lost — so as_number() is a rounded value.
  bool is_exact() const { return exact_; }
  const std::string& as_string() const { return string_; }

  /// \brief Array elements (valid for kArray).
  const std::vector<JsonValue>& items() const { return items_; }
  /// \brief Object members in insertion order (valid for kObject).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// \brief Appends to an array (converts a null value to an array first).
  void Append(JsonValue v);

  /// \brief Sets an object member, replacing an existing key (converts a
  /// null value to an object first).
  void Set(const std::string& key, JsonValue v);

  /// \brief Member lookup; returns nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// \brief Serializes with `indent` spaces per level (0 = compact).
  void Write(std::ostream& os, int indent = 2) const;
  std::string ToString(int indent = 2) const;

  /// \brief Parses a complete JSON document (trailing junk is an error).
  static Result<JsonValue> Parse(const std::string& text);

 private:
  friend class JsonParser;

  /// True when a double holds the integer with this magnitude exactly.
  static bool HoldsExactly(uint64_t magnitude);

  void WriteIndented(std::ostream& os, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  bool exact_ = true;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace lacb::obs

#endif  // LACB_OBS_JSON_H_
