// The three benchmark programs animating TinySoC, mirroring the behavioural
// roles of the paper's Table II workloads:
//   * dhrystone — mixed integer/logic/branch loop with moderate memory
//     traffic (the "typical integer code" profile);
//   * matmul — dense NxN matrix multiply from data memory (compute + loads);
//   * pchase — pointer chasing over a shuffled linked list in data memory:
//     every instruction depends on the previous load, so the core spends
//     most cycles stalled and the design's activity factor is lowest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace essent::workloads {

struct Program {
  std::string name;
  std::string description;
  std::vector<uint16_t> code;
  // Initial data memory contents: (address, value) pairs.
  std::vector<std::pair<uint16_t, uint16_t>> data;
};

// `iterations` scales runtime; each program halts when done. The loop
// counts (dhrystone `iterations`, matmul `repeats`, pchase `listLength` x
// `laps`) live in 16-bit registers: each must be in [1, 65535], and a count
// outside that range throws std::invalid_argument instead of wrapping.
Program dhrystoneProgram(uint32_t iterations = 64);
Program matmulProgram(uint32_t n = 6, uint32_t repeats = 2);
Program pchaseProgram(uint32_t listLength = 64, uint32_t laps = 8);

// Expected architectural results, for functional checks: the final value
// each program leaves in x1 (computed by a host-side reference model).
uint16_t dhrystoneExpected(uint32_t iterations = 64);
uint16_t matmulExpected(uint32_t n = 6, uint32_t repeats = 2);
uint16_t pchaseExpected(uint32_t listLength = 64, uint32_t laps = 8);

// Full architectural state of the reference model at HALT (or after
// maxSteps): the eight registers and the executed instruction count. Used
// by the ISA conformance fuzz tests to compare the RTL core register for
// register.
struct RefState {
  uint16_t regs[8] = {0};
  uint64_t instret = 0;
  bool halted = false;
};
RefState runReferenceModel(const Program& program, uint32_t maxSteps = 1'000'000);

}  // namespace essent::workloads
