// Warnings a run survives but a user should see: an unknown rpc, a walltime
// kill. They go to stderr, never to the stdout that benches print results on.
#pragma once

#include <initializer_list>
#include <string_view>

namespace soma {

/// Write "[WARN] ", the parts in order and a newline to stderr as one line.
void warn(std::initializer_list<std::string_view> parts);

}  // namespace soma
