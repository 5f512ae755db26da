// Strict decimal parsing for flags and environment values.
#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace pair_ecc::util {

enum class ParseStatus : std::uint8_t { kOk, kInvalid, kOutOfRange };

/// Accepts one or more ASCII digits and nothing else: a sign, space or
/// suffix ("10k") is kInvalid, never truncated. kOutOfRange above
/// UINT64_MAX. Writes `value` only on kOk.
inline ParseStatus ParseU64(std::string_view text, std::uint64_t& value) {
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos)
    return ParseStatus::kInvalid;
  return std::from_chars(text.data(), text.data() + text.size(), value).ec ==
                 std::errc()
             ? ParseStatus::kOk
             : ParseStatus::kOutOfRange;
}

}  // namespace pair_ecc::util
