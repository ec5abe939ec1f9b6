// Counting replacement of the global allocation functions, linked only into
// test_alloc_regression.  The replacements live in their own translation
// unit (alloc_interposer.cpp): defined next to code that allocates, GCC
// inlines them and misreads the malloc/free pairs as mismatched new/delete.
#pragma once

#include <cstdint>

namespace vgprs::test {

/// Starts counting global operator-new calls, from zero.
void start_counting_allocs();

/// Stops counting; returns the calls made since start_counting_allocs().
std::uint64_t stop_counting_allocs();

}  // namespace vgprs::test
