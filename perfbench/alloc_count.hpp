// Allocation counting for the traced run. alloc_count.cpp replaces the
// global operator new of the benchmark binary; each call bumps a counter of
// the calling thread, so a single-threaded pass reads an exact count.
#pragma once

#include <cstdint>

namespace perfbench {

/// operator new calls made so far by the calling thread.
std::uint64_t thread_allocs() noexcept;

}  // namespace perfbench
