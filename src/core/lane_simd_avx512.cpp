// The wide kernel (core/lane_wide.h) compiled with -mavx512f (flag-gated in
// CMake) and entered only after a __builtin_cpu_supports("avx512f") check,
// so the rest of the binary stays baseline-ISA clean.
#include "core/lane_wide.h"

namespace essent::core {

void laneWideAvx512(const sim::ExecOp& op, uint64_t* d, const uint64_t* a, const uint64_t* b,
                    const uint64_t* c, uint32_t n) {
  laneWide(op, d, a, b, c, n);
}

}  // namespace essent::core
