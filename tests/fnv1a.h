// 64-bit FNV-1a over a byte string: the tests' fingerprint for report and
// trace bytes pinned across commits.
#pragma once

#include <cstdint>
#include <string>

namespace ecgf::testing_util {

inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace ecgf::testing_util
