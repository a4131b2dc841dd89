// Exact heap-allocation count of this process: every operator new in the
// benchmark binary (the program's libraries included) goes through a
// counting replacement defined in alloc_counter.cpp.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made so far by this process.
std::uint64_t allocations();

}  // namespace perfbench
