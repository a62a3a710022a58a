// SIMD instance-parallel lane engine (ROADMAP open item 1).
//
// Simulates L instances ("lanes", L <= 64) of one compiled design at once.
// Instead of L private SimState arenas, every signal word is stored as a
// structure-of-arrays slot across lanes, so each ExecOp is decoded ONCE per
// instruction and evaluated for all lanes — amortizing the interpreter
// dispatch that makes N scalar farm instances throughput-neutral versus
// sequential runs, and turning identical-logic/different-data batches into
// straight SIMD loops (one wide kernel over sim::evalFastCode, compiled for
// the baseline ISA, AVX2 and AVX-512 behind runtime dispatch; see
// core/lane_simd.h and docs/SIMD.md).
//
// Activity skipping composes with lanes: a partition executes if ANY lane's
// wake mask is set, and the execution carries that per-lane mask so that
//   - combinational op evaluation runs full-width (inactive lanes recompute
//     values from unchanged inputs — bit-identical by construction),
//   - register/memory COMMITS and all EngineStats counters are masked to
//     the active lanes, keeping per-lane stats and effective activity
//     exactly equal to a solo ActivityEngine run of that lane,
//   - lanes that hit stop/assert are retired from the live mask (their
//     state freezes) while the surviving lanes keep simulating.
//
// Per-lane access goes through LaneView — a sim::Engine whose state
// accessors redirect into the SoA arena — so harness code, the farm, and
// the conformance suite drive lanes exactly like scalar engines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/activity_engine.h"
#include "core/lane_simd.h"
#include "sim/engine.h"

namespace essent::core {

// Structure-of-arrays layout across lanes, derived from the scalar word
// layout. Signals of width <= 1 are bit-sliced ("packed"): one uint64 word
// holds the bit of every lane, so 1-bit nets cost 1/64th of the naive SoA
// footprint and their ops reduce to single bitwise instructions. Wider
// signals place scalar word w of lane l at off[sig] + w*stride + l, with
// the stride padded to a multiple of 8 (when lanes > 1) so SIMD loops never
// straddle slots. Memories are always unpacked: row r word w of lane l at
// (r*rowWords + w)*stride + l.
struct LaneStateLayout {
  unsigned lanes = 1;
  uint32_t stride = 1;
  std::vector<uint32_t> off;     // per signal: first word in the lane arena
  std::vector<uint8_t> packed;   // per signal: 1 = bit-sliced across lanes
  uint32_t totalWords = 0;

  bool isPacked(int32_t sig) const { return packed[static_cast<size_t>(sig)] != 0; }

  static LaneStateLayout build(const sim::SimIR& ir, const sim::Layout& scalar,
                               unsigned lanes);
};

// Kernel tier chosen per op when the lane program is built.
enum class LaneKernel : uint8_t {
  WideFast,     // single-word unpacked operands: one loop over the stride
  Packed1,      // all operands bit-sliced: one uint64 op covers every lane
  GenericFast,  // single-word, mixed packing: staged rows, then the wide loop
  SlowBV,       // multi-word: per-lane BitVec reference semantics
  ConstOp,      // broadcast once at init/reset, excluded from per-cycle work
  MemReadOp,    // per-lane gather from the lane memory arena
};

struct LaneExecOp {
  sim::ExecOp op;  // scalar record (widths, immediates, signedness)
  LaneKernel kernel = LaneKernel::GenericFast;
  // Lane-arena operand offsets + packedness (UINT32_MAX when absent).
  uint32_t dOff = UINT32_MAX, aOff = UINT32_MAX, bOff = UINT32_MAX, cOff = UINT32_MAX;
  bool dPacked = false, aPacked = false, bPacked = false, cPacked = false;
};

// Immutable lane program: the SoA layout plus the kernel-annotated op
// stream, parallel to design->exec. Cached in the design's extension cache
// per stride, so every lane group over the same design shares one build.
struct LaneProgram {
  LaneStateLayout layout;
  std::vector<LaneExecOp> ops;

  static std::shared_ptr<const LaneProgram> get(
      const std::shared_ptr<const sim::CompiledDesign>& design, unsigned lanes);
};

class LaneEngine;

// sim::Engine view of one lane. All state accessors redirect into the
// group's SoA arena; the inherited stats_/stopped_/exitCode_/printBuf_
// members hold this lane's own bookkeeping (the group writes them during
// tick). tick() throws std::logic_error — lanes advance together through
// LaneEngine::tick().
class LaneView final : public sim::Engine {
 public:
  void tick() override;
  const char* name() const override { return "essent-lane"; }

  void poke(const std::string& name, uint64_t value) override;
  void pokeBV(const std::string& name, const BitVec& value) override;
  uint64_t peek(const std::string& name) const override;
  BitVec peekBV(const std::string& name) const override;
  uint64_t peekSig(int32_t sig) const override;
  BitVec peekSigBV(int32_t sig) const override;
  void pokeMem(const std::string& memName, uint64_t addr, uint64_t value) override;
  uint64_t peekMem(const std::string& memName, uint64_t addr) const override;

  // Zeroes this lane's slice (state + counters), re-broadcasts constants,
  // un-retires the lane, and re-arms its activity tracking.
  void resetState() override;
  // Scalar-compatible: replays the (seed, slot) draw sequence into the lane
  // slice, so lane.randomizeState(s) == scalarEngine.randomizeState(s).
  void randomizeState(uint64_t seed) override;
  // Snapshots are in the scalar layout — interchangeable with every other
  // engine kind over the same design.
  Snapshot saveState() const override;
  void restoreState(const Snapshot& snapshot) override;

  unsigned laneIndex() const { return lane_; }

 private:
  friend class LaneEngine;
  LaneView(std::shared_ptr<const sim::CompiledDesign> design, LaneEngine* group,
           unsigned lane);

  LaneEngine* group_;
  unsigned lane_;
};

// The lane group itself. Not a sim::Engine — per-lane access goes through
// lane(l); sim::makeEngine(EngineKind::Lane) wraps it in the broadcast
// adapter below.
class LaneEngine {
 public:
  // lanes is clamped to [1, 64].
  LaneEngine(std::shared_ptr<const CompiledCcss> ccss, unsigned lanes);
  ~LaneEngine();

  LaneEngine(const LaneEngine&) = delete;
  LaneEngine& operator=(const LaneEngine&) = delete;

  unsigned lanes() const { return lanes_; }
  const sim::SimIR& ir() const { return *ir_; }
  const std::shared_ptr<const CompiledCcss>& compiled() const { return ccss_; }
  const LaneProgram& program() const { return *prog_; }

  // Per-lane engine handle (poke/peek/stats/printOutput/save/restore).
  sim::Engine& lane(unsigned l) { return *views_.at(l); }
  const sim::Engine& lane(unsigned l) const { return *views_.at(l); }

  // One clock cycle for every live lane.
  void tick();

  // Live lanes: bit l set while lane l still simulates. Lanes leave the
  // mask when they stop (stop/assert) or are retired externally (cycle
  // budgets, per-lane errors). A retiring lane's VISIBLE state is captured
  // into a scalar-layout freeze buffer at that instant: surviving lanes
  // re-evaluate combinational slots full-stride (the purity invariant), so
  // the arena keeps moving, but the retired lane's peeks keep answering
  // exactly what a solo run that stopped on the same cycle would — until
  // reset/restore revives it.
  uint64_t liveMask() const { return liveMask_; }
  bool laneLive(unsigned l) const { return (liveMask_ >> l) & 1; }
  void retireLane(unsigned l);

  // Per-lane effective activity (Figure 7), exact versus a solo run.
  double laneEffectiveActivity(unsigned l) const;

  // Resolved SIMD tier of this group's wide kernels.
  const char* simdBackend() const { return laneSimdTierName(tier_); }

  // Group-level counters (per-instruction amortization bookkeeping):
  // group ticks, partitions run/skipped at group granularity, and the
  // total of per-lane skips inside executed partitions (lanes that rode
  // along inactive — the masked-activity composition at work).
  uint64_t groupTicks() const { return groupTicks_; }
  uint64_t groupPartitionRuns() const { return groupPartitionRuns_; }
  uint64_t groupPartitionSkips() const { return groupPartitionSkips_; }
  uint64_t maskedLaneSkips() const { return maskedLaneSkips_; }

 private:
  friend class LaneView;

  // --- immutable structure (shared) ---
  std::shared_ptr<const CompiledCcss> ccss_;
  std::shared_ptr<const LaneProgram> prog_;
  const sim::SimIR* ir_;
  const sim::Layout* scalarLayout_;
  const CondPartSchedule& sched_;
  unsigned lanes_;
  uint32_t stride_;
  uint64_t allMask_;  // bits 0..lanes-1
  LaneSimdTier tier_;
  LaneWideFn wideFn_;  // the wide kernel compiled for tier_

  // --- mutable lane state ---
  std::vector<uint64_t> vals_;        // SoA arena (LaneStateLayout)
  std::vector<std::vector<uint64_t>> memWords_;  // per mem, lane-strided
  std::vector<uint32_t> memRowWords_;            // scalar words per mem row
  std::vector<uint64_t> prevInputs_;  // lane arena copy for input diffing
  std::vector<uint64_t> activeMask_;  // per partition: lanes with wakes
  std::vector<uint32_t> outputSaveOff_;  // flattened outputs -> save offset
  std::vector<size_t> partOutBase_;      // partition -> first flat output
  std::vector<uint64_t> outputSave_;     // old-value buffer, lane-strided
  std::vector<uint64_t> scratch_;        // 4 stride rows: staged a/b/c/d for
                                         // mixed packed/unpacked fast ops
  uint64_t liveMask_;
  uint64_t freshMask_;  // lanes whose next tick skips input diffing
  // Per lane: scalar-layout copy of the signal arena captured at
  // retirement (empty while the lane is live). Memories need no freezing —
  // their commits are already masked to live lanes.
  std::vector<std::vector<uint64_t>> frozenVals_;
  std::vector<std::unique_ptr<LaneView>> views_;
  uint64_t groupTicks_ = 0;
  uint64_t groupPartitionRuns_ = 0;
  uint64_t groupPartitionSkips_ = 0;
  uint64_t maskedLaneSkips_ = 0;
  // Per-lane counter accumulators (SoA, lanes_ entries each). The hot tick
  // paths bump these with branchless masked adds — one contiguous pass per
  // event instead of a bit-scan over scattered per-view EngineStats — and
  // flushLaneStats() folds them into views_[l]->stats_ once per tick, so
  // the non-virtual Engine::stats() stays exact between ticks.
  std::vector<uint64_t> accChecks_, accActs_, accOps_, accCmps_, accTrigs_;

  // --- lane-word access (packed-aware) ---
  uint64_t laneWord(uint32_t off, bool packed, unsigned l) const {
    return packed ? (vals_[off] >> l) & 1 : vals_[off + l];
  }
  uint64_t laneSigWord0(int32_t sig, unsigned l) const;
  void storeLaneWord(uint32_t off, bool packed, unsigned l, uint64_t v);
  BitVec laneLoadBV(int32_t sig, unsigned l) const;
  void laneStoreBV(int32_t sig, const BitVec& v, bool signedExtend, unsigned l);

  // --- tick phases ---
  void sweepInputs();
  void runPartition(size_t pos, const CondPart& part, uint64_t m);
  void applyRegWrite(const SchedRegWrite& rw, uint64_t m);
  void applyMemWrite(const SchedMemWrite& mw, uint64_t m);
  void wakeMask(const std::vector<int32_t>& parts, uint64_t m);
  void finishCycle();
  // acc[l] += k for every lane l set in m. Dense masks (the common case —
  // all live lanes active together) take the unconditional vectorizable
  // loop; sparse masks bit-scan and touch only the set lanes.
  void addMasked(std::vector<uint64_t>& acc, uint64_t m, uint64_t k) {
    uint64_t* a = acc.data();
    if (m == allMask_) {
      for (unsigned l = 0; l < lanes_; l++) a[l] += k;
      return;
    }
    for (uint64_t t = m; t != 0; t &= t - 1)
      a[static_cast<unsigned>(__builtin_ctzll(t))] += k;
  }
  void flushLaneStats();

  // --- op evaluation ---
  void evalOp(const LaneExecOp& lop);
  bool evalOpChangedAny(const LaneExecOp& lop);
  void evalSlowLane(const LaneExecOp& lop, unsigned l);
  void evalSuperRangeLanes(const LaneExecOp* ops, size_t count);
  void evalConstLane(const LaneExecOp& lop, unsigned l);
  uint64_t outputDiffMask(int32_t sig, uint32_t saveOff) const;
  std::string laneFormatPrintf(const sim::PrintInfo& p, unsigned l) const;

  // --- per-lane lifecycle (LaneView entry points) ---
  void pokeLane(int32_t sig, unsigned l, uint64_t value);
  void pokeMemLane(size_t mem, unsigned l, uint64_t addr, uint64_t value);
  uint64_t peekMemLane(size_t mem, unsigned l, uint64_t addr) const;
  void randomizeLane(unsigned l, uint64_t seed);
  sim::Engine::Snapshot saveLane(unsigned l) const;
  void restoreLane(unsigned l, const sim::Engine::Snapshot& snapshot);
  void resetLaneState(unsigned l);
  // Re-arms activity tracking for one lane after its state was clobbered
  // (randomize/restore/reset): all partitions pending, input diff skipped.
  void rearmLane(unsigned l);
  // Capture the lane's visible signal state at retirement / mirror a poke
  // into an existing freeze buffer.
  void freezeLane(unsigned l);
  void syncFrozenSig(unsigned l, int32_t sig);
};

// Scalar adapter: the sim::Engine that sim::makeEngine(EngineKind::Lane)
// returns. Owns a LaneEngine of `lanes` lanes, broadcasts pokes to all of
// them, reads lane 0, and mirrors lane 0's bookkeeping after each tick —
// so every lane computes the same values and the adapter is bit-identical
// to a scalar engine while exercising the full SIMD path (this is how the
// differential fuzzer cross-checks the kernels).
class LaneBroadcastEngine final : public sim::Engine {
 public:
  LaneBroadcastEngine(std::shared_ptr<const CompiledCcss> ccss, unsigned lanes);

  void tick() override;
  const char* name() const override { return "essent-lane"; }

  void poke(const std::string& name, uint64_t value) override;
  void pokeBV(const std::string& name, const BitVec& value) override;
  uint64_t peek(const std::string& name) const override;
  BitVec peekBV(const std::string& name) const override;
  uint64_t peekSig(int32_t sig) const override;
  BitVec peekSigBV(int32_t sig) const override;
  void pokeMem(const std::string& memName, uint64_t addr, uint64_t value) override;
  uint64_t peekMem(const std::string& memName, uint64_t addr) const override;
  void resetState() override;
  void randomizeState(uint64_t seed) override;
  Snapshot saveState() const override;
  void restoreState(const Snapshot& snapshot) override;

  LaneEngine& group() { return group_; }
  const LaneEngine& group() const { return group_; }

  // Lane-0 effective activity (identical across lanes under broadcast).
  double effectiveActivity() const { return group_.laneEffectiveActivity(0); }

 private:
  LaneEngine group_;
  void syncFromLane0();
};

}  // namespace essent::core
