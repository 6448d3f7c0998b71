// Small string helpers used across the log parser, the model extractor, and
// the report renderers. Kept dependency-free; all functions are pure.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace procheck {

/// Splits on a single character. Empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits on newline, dropping a trailing empty line (so "a\nb\n" -> {a,b}).
std::vector<std::string> split_lines(std::string_view s);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);
bool contains(std::string_view s, std::string_view needle);

}  // namespace procheck
