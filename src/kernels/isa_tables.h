// Internal: per-ISA table accessors wired into the dispatcher.
//
// Each accessor returns the level's Ops table, or nullptr when the
// translation unit was compiled without that instruction set (the TU still
// builds everywhere; only its table vanishes). Runtime CPU detection in
// kernels.cpp is layered on top -- a non-null table is necessary but not
// sufficient for a level to be supported.
#pragma once

namespace emmark::kernels {

struct Ops;

namespace detail {
const Ops* sse2_table();  // kernels_sse2.cpp
const Ops* avx2_table();  // kernels_avx2.cpp
}  // namespace detail

}  // namespace emmark::kernels
