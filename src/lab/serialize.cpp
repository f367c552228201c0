#include "lab/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace hidisc::lab {

namespace {

std::string format_value(std::uint64_t v) { return std::to_string(v); }
std::string format_value(std::int64_t v) { return std::to_string(v); }
std::string format_value(bool v) { return v ? "1" : "0"; }
std::string format_value(double v) { return format_double(v); }

// A number as the writer prints it reads with from_chars, when that takes
// all of `s` and gives no NaN; strto* reads such text to the same value.
// Anything else (blanks, a '+', trailing junk, an out-of-range value, a
// NaN's "nan(n)" payload) goes to `parse`, a strto* function, so every
// field decodes as strto* alone decodes it.  strto* needs a terminated
// string: a copy, on the stack unless `s` is longer than any value the
// writer emits.
template <class Parse>
auto parse_number(std::string_view s, Parse parse) {
  decltype(parse("")) v{};
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec == std::errc() && ptr == end && !std::isnan(v)) return v;
  char buf[64];
  if (s.size() >= sizeof buf) return parse(std::string(s).c_str());
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  return parse(buf);
}

void parse_value(std::string_view s, std::uint64_t& out) {
  out = parse_number(
      s, [](const char* c) { return std::strtoull(c, nullptr, 10); });
}
void parse_value(std::string_view s, std::int64_t& out) {
  out = parse_number(
      s, [](const char* c) { return std::strtoll(c, nullptr, 10); });
}
void parse_value(std::string_view s, bool& out) { out = s == "1"; }
void parse_value(std::string_view s, double& out) {
  out = parse_number(s, [](const char* c) { return std::strtod(c, nullptr); });
}

// Every field's dotted name with its visit index, sorted by name.  Built
// once, on first use.
using NameTable = std::vector<std::pair<std::string, std::size_t>>;

const NameTable& sorted_field_names() {
  static const NameTable table = [] {
    NameTable t;
    const machine::Result r{};
    visit_result_fields(r, [&t](FieldName name, const auto&) {
      t.emplace_back(name.str(), t.size());
    });
    std::sort(t.begin(), t.end());
    return t;
  }();
  return table;
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
  visit_result_fields(r, [&fields](FieldName name, auto& value) {
    fields[name.str()] = format_value(value);
  });
  return fields;
}

machine::Result result_from_fields(std::span<const FieldView> fields,
                                   std::string* missing) {
  // One walk in the given order.  Writers list names sorted, so a name is
  // usually the one after the previous match; otherwise it is looked up.
  const NameTable& names = sorted_field_names();
  std::vector<const std::string_view*> values(names.size(), nullptr);
  std::size_t next = 0;
  for (const auto& [name, value] : fields) {
    std::size_t at = next;
    if (at == names.size() || names[at].first != name) {
      at = static_cast<std::size_t>(
          std::lower_bound(names.begin(), names.end(), name,
                           [](const auto& entry, std::string_view n) {
                             return entry.first < n;
                           }) -
          names.begin());
      if (at == names.size() || names[at].first != name) continue;
    }
    values[names[at].second] = &value;
    next = at + 1;
  }

  machine::Result r;
  if (missing != nullptr) missing->clear();
  std::size_t i = 0;
  visit_result_fields(r, [&](FieldName name, auto& field) {
    if (const std::string_view* text = values[i++]) {
      parse_value(*text, field);
    } else if (missing != nullptr && missing->empty()) {
      *missing = name.str();
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
