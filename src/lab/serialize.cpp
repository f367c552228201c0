#include "lab/serialize.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace hidisc::lab {

namespace {

std::string format_value(std::uint64_t v) { return std::to_string(v); }
std::string format_value(std::int64_t v) { return std::to_string(v); }
std::string format_value(bool v) { return v ? "1" : "0"; }
std::string format_value(double v) { return format_double(v); }

// The strto* functions need a terminated string: parse a copy.
void parse_value(std::string_view s, std::uint64_t& out) {
  out = std::strtoull(std::string(s).c_str(), nullptr, 10);
}
void parse_value(std::string_view s, std::int64_t& out) {
  out = std::strtoll(std::string(s).c_str(), nullptr, 10);
}
void parse_value(std::string_view s, bool& out) { out = s == "1"; }
void parse_value(std::string_view s, double& out) {
  out = std::strtod(std::string(s).c_str(), nullptr);
}

}  // namespace

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::map<std::string, std::string> result_to_fields(
    const machine::Result& r) {
  std::map<std::string, std::string> fields;
  visit_result_fields(r, [&fields](const std::string& name, auto& value) {
    fields[name] = format_value(value);
  });
  return fields;
}

const std::string_view* find_field(std::span<const FieldView> fields,
                                   std::string_view name) {
  const auto after = std::upper_bound(
      fields.begin(), fields.end(), name,
      [](std::string_view n, const FieldView& f) { return n < f.first; });
  if (after == fields.begin() || std::prev(after)->first != name)
    return nullptr;
  return &std::prev(after)->second;
}

machine::Result result_from_fields(std::span<const FieldView> fields,
                                   std::string* missing) {
  machine::Result r;
  if (missing != nullptr) missing->clear();
  visit_result_fields(r, [fields, missing](const std::string& name,
                                           auto& value) {
    if (const auto* text = find_field(fields, name)) {
      parse_value(*text, value);
    } else if (missing != nullptr && missing->empty()) {
      *missing = name;
    }
  });
  return r;
}

bool results_identical(const machine::Result& a, const machine::Result& b) {
  // %.17g round-trips doubles exactly, so textual equality of the field
  // maps is bitwise equality of every stat.
  return result_to_fields(a) == result_to_fields(b);
}

std::uint64_t fnv1a64(std::string_view data) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace hidisc::lab
