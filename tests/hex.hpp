// Hex helpers for golden-bytes tests: expected encodings are written as
// hex strings split by field, so a format change shows up as a readable
// string diff naming the bytes that moved.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace omig::test {

/// Lower-case hex of `bytes`, no separators.
inline std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

/// `hex` with the spaces dropped: the normal form to_hex() produces.
inline std::string squash(std::string_view hex) {
  std::string out;
  for (const char c : hex) {
    if (c != ' ') out.push_back(c);
  }
  return out;
}

/// Bytes of a (possibly space-separated) lower-case hex string.
inline std::vector<std::uint8_t> from_hex(std::string_view hex) {
  const std::string digits = squash(hex);
  auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < digits.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(nibble(digits[i]) << 4 |
                                            nibble(digits[i + 1])));
  }
  return out;
}

}  // namespace omig::test
