#include "common/types.hpp"

#include <cstdio>

namespace soma {

std::string format_seconds(double seconds, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, seconds);
  return buffer;
}

}  // namespace soma
