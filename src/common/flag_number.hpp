// Strict parsing of numeric command-line flag values, shared by the bench
// binaries (bench/bench_common.hpp) and the tools (uap2p_snapshot,
// uap2p_oracled), so a typo such as --transit=2x fails loudly instead of
// running with a silently truncated value.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace uap2p {

/// The whole of `value` as a non-negative decimal T: no whitespace, no
/// trailing characters, no sign on integers, in range for T, and finite
/// for floating point. Anything else prints "error: <flag> ..." and exits
/// with status 2, the usage-error convention of the tools.
template <typename T>
T parse_flag_number(std::string_view flag, std::string_view value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [stop, ec] = std::from_chars(value.data(), end, out);
  bool ok = ec == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(out) && out >= 0.0;
  }
  if (!ok) {
    std::fprintf(stderr, "error: %.*s expects %s, got '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(),
                 std::is_integral_v<T> ? "a non-negative integer"
                                       : "a finite non-negative number",
                 static_cast<int>(value.size()), value.data());
    std::exit(2);
  }
  return out;
}

}  // namespace uap2p
