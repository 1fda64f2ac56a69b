// Small string helpers shared by the unit tests.
#pragma once

#include <string>

namespace soma::testutil {

// `prefix` followed by `i`, built with append: Release builds of GCC 12 give a
// false -Wrestrict on "literal" + std::to_string(i) (GCC bug 105329).
inline std::string numbered(std::string prefix, int i) {
  prefix += std::to_string(i);
  return prefix;
}

}  // namespace soma::testutil
