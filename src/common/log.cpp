#include "common/log.hpp"

#include <cstdio>
#include <string>

namespace soma {

void warn(std::initializer_list<std::string_view> parts) {
  std::string line = "[WARN] ";
  for (std::string_view part : parts) line += part;
  line += '\n';
  std::fputs(line.c_str(), stderr);
}

}  // namespace soma
