#include "core/lane_simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "core/lane_wide.h"

namespace essent::core {

// Defined in the flag-gated TUs (lane_simd_avx2.cpp / lane_simd_avx512.cpp).
#if ESSENT_HAVE_AVX2
void laneWideAvx2(const sim::ExecOp& op, uint64_t* d, const uint64_t* a, const uint64_t* b,
                  const uint64_t* c, uint32_t n);
#endif
#if ESSENT_HAVE_AVX512
void laneWideAvx512(const sim::ExecOp& op, uint64_t* d, const uint64_t* a, const uint64_t* b,
                    const uint64_t* c, uint32_t n);
#endif

namespace {

// -1 = auto (env + CPU); otherwise a forced LaneSimdTier value.
std::atomic<int> g_forcedTier{-1};

LaneSimdTier bestAvailable(LaneSimdTier cap) {
#if ESSENT_HAVE_AVX512
  if (cap >= LaneSimdTier::Avx512 && __builtin_cpu_supports("avx512f"))
    return LaneSimdTier::Avx512;
#endif
#if ESSENT_HAVE_AVX2
  if (cap >= LaneSimdTier::Avx2 && __builtin_cpu_supports("avx2")) return LaneSimdTier::Avx2;
#endif
  (void)cap;
  return LaneSimdTier::Portable;
}

LaneSimdTier envCap() {
  const char* env = std::getenv("ESSENT_SIMD");
  if (env == nullptr) return LaneSimdTier::Avx512;  // no cap
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "portable") == 0)
    return LaneSimdTier::Portable;
  if (std::strcmp(env, "avx2") == 0) return LaneSimdTier::Avx2;
  if (std::strcmp(env, "avx512") == 0) return LaneSimdTier::Avx512;
  return LaneSimdTier::Avx512;  // unrecognized value: auto-detect
}

}  // namespace

LaneSimdTier laneSimdTier() {
  int forced = g_forcedTier.load(std::memory_order_relaxed);
  if (forced >= 0) return bestAvailable(static_cast<LaneSimdTier>(forced));
  return bestAvailable(envCap());
}

const char* laneSimdTierName(LaneSimdTier tier) {
  switch (tier) {
    case LaneSimdTier::Avx512: return "avx512";
    case LaneSimdTier::Avx2: return "avx2";
    case LaneSimdTier::Portable: break;
  }
  return "portable";
}

const char* laneSimdBackendName() { return laneSimdTierName(laneSimdTier()); }

LaneWideFn laneWideKernel() {
  switch (laneSimdTier()) {
#if ESSENT_HAVE_AVX512
    case LaneSimdTier::Avx512: return &laneWideAvx512;
#endif
#if ESSENT_HAVE_AVX2
    case LaneSimdTier::Avx2: return &laneWideAvx2;
#endif
    default: return &laneWide;
  }
}

void laneSimdForceTier(LaneSimdTier tier) {
  g_forcedTier.store(static_cast<int>(tier), std::memory_order_relaxed);
}

void laneSimdResetTier() { g_forcedTier.store(-1, std::memory_order_relaxed); }

}  // namespace essent::core
