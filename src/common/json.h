// Minimal JSON value/parser plus the matching encoder helpers. The encoder
// helpers serve the analysis-journal codec (checker/supervisor.cc) and the
// diff-report encoder (diff/report_json.cc); the parser's one program reader
// is the analysis journal. Only the shapes our encoders emit are supported:
// objects, arrays, strings, integers, booleans, null. The parser is strict —
// any malformation fails the whole document — which is what the journal
// wants: a corrupt record is treated as absent and re-verified.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace procheck {

struct Json {
  enum class Type : std::uint8_t { kNull, kBool, kInt, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  long long i = 0;
  std::string s;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  bool is(Type t) const { return type == t; }
  const Json* find(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  long long get_int(const std::string& key, long long dflt = 0) const {
    const Json* v = find(key);
    return v && v->is(Type::kInt) ? v->i : dflt;
  }
  std::string get_str(const std::string& key) const {
    const Json* v = find(key);
    return v && v->is(Type::kString) ? v->s : std::string();
  }
  bool get_bool(const std::string& key, bool dflt = false) const {
    const Json* v = find(key);
    return v && v->is(Type::kBool) ? v->b : dflt;
  }
};

/// Strict whole-document parse; nullopt on any malformation or trailing
/// garbage. Newlines inside the document are accepted as whitespace.
std::optional<Json> json_parse(std::string_view text);

/// JSON string literal (quoted, control bytes escaped as \u00XX).
std::string json_quote(std::string_view s);

/// ["a","b",...] with every element quoted.
std::string json_quote_array(const std::vector<std::string>& items);

}  // namespace procheck
