#pragma once
// Minimal JSON DOM + recursive-descent parser for the regression reporter:
// enough to read run manifests (obs/manifest.hpp), metric dumps,
// bench/expectations.json and perfbench/reference.json without external
// dependencies. Numbers are doubles, objects are sorted maps (key order in
// the file does not matter to consumers), parse errors throw
// std::runtime_error with a line/column position.

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ecnd::report {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json make_null() { return Json(); }
  static Json make_bool(bool b);
  static Json make_number(double v);
  static Json make_string(std::string s);
  static Json make_array(Array a);
  static Json make_object(Object o);

  /// Parse a complete JSON document (trailing garbage is an error).
  static Json parse(std::string_view text);
  /// Read and parse a file; throws std::runtime_error naming the path on
  /// open or parse failure.
  static Json parse_file(const std::string& path);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  // Checked accessors: throw std::runtime_error on kind mismatch.
  double number() const;
  bool boolean() const;
  const std::string& str() const;
  const Array& array() const;
  const Object& object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Json* get(std::string_view key) const;
  /// Convenience: member as number/string if present and of that kind.
  std::optional<double> get_number(std::string_view key) const;
  std::optional<std::string> get_string(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace ecnd::report
