#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lina::obs {

/// A minimal JSON document model — just enough for the exporters to emit
/// structured bench/sim telemetry and to parse their own output back (the
/// round-trip self-check that replaces an external schema validator).
/// Numbers are doubles; object member order is preserved (insertion
/// order), which keeps emitted files diffable across runs.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}               // NOLINT
  Json(double n) : kind_(Kind::kNumber), number_(n) {}         // NOLINT
  Json(std::uint64_t n)                                        // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  Json(int n) : kind_(Kind::kNumber), number_(n) {}            // NOLINT
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Json(std::string_view s) : Json(std::string(s)) {}           // NOLINT
  Json(const char* s) : Json(std::string(s)) {}                // NOLINT

  [[nodiscard]] static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& items() const;

  /// Array append (converts a null value into an array first).
  void push_back(Json value);

  /// Object member write access; inserts on first use, preserves
  /// insertion order. Converts a null value into an object first.
  Json& operator[](std::string_view key);

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Object member lookup; throws std::runtime_error when absent.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const;

  /// Serializes the document. `indent` > 0 pretty-prints.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses a complete JSON document; throws std::runtime_error with a
  /// byte offset on malformed input or trailing garbage.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace lina::obs
