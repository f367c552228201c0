// Strict integer parsing for the command-line tools (hilab, hifuzz, hisa).
#pragma once

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hidisc::cli {

// Parses all of `text` as a base-10 integer of type T from `min` to `max`.
// Trailing characters, a minus sign on an unsigned T, and values outside
// that range throw std::runtime_error naming `what`: a malformed number is
// never truncated, wrapped or read as a prefix.
template <class T>
T parse_int(const std::string& what, std::string_view text,
            T min = std::numeric_limits<T>::min(),
            T max = std::numeric_limits<T>::max()) {
  T v{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < min || v > max)
    throw std::runtime_error(what + " needs an integer from " +
                             std::to_string(min) + " to " +
                             std::to_string(max) + ", got '" +
                             std::string(text) + "'");
  return v;
}

}  // namespace hidisc::cli
