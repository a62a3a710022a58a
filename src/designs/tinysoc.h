// TinySoC: the synthetic SoC standing in for the paper's Rocket Chip / BOOM
// evaluation designs (DESIGN.md §2).
//
// Structure (all emitted as multi-module FIRRTL and flattened by the normal
// tool flow):
//   * TinyCPU — a 16-bit RISC-style core: 8-register file, ALU
//     (add/sub/logic/mul/shift), branches, loads/stores with a configurable
//     memory-latency stall FSM (this is what couples workload IPC to
//     activity factor: dependent-load workloads stall the whole core);
//   * instruction and data memories (`mem` blocks);
//   * N Accel blocks — wide lane-array datapaths started by MMIO stores and
//     otherwise idle: the dominant source of low activity at scale;
//   * a free-running cycle-counter peripheral (baseline activity floor).
//
// The three preset configurations are sized so their FIRRTL graph node
// counts land near the paper's Table I designs (r16 / r18 / boom).
//
// ISA (16-bit words): op[15:12] rd[11:9] rs[8:6] rt[5:3]; imm6 = [5:0]
// (sign-extended); imm12 = [11:0].
//   0 NOP | 1 ADDI rd,rs,imm6 | 2 ADD | 3 SUB | 4 AND | 5 OR | 6 XOR
//   7 MUL | 8 LW rd,[rs+imm6] | 9 SW rd,[rs+imm6] | 10 BEQ rd,rs,imm6
//   11 BNE rd,rs,imm6 | 12 JMP imm12 | 13 SHL rd,rs,sh3 | 14 SHR rd,rs,sh3
//   15 HALT
// Addresses with bit 15 set are MMIO: accel index = addr[11:8], register
// select = addr[3:0] (0 = command/start, 1 = busy, 2 = result); accel
// index 15 reads the cycle counter.
#pragma once

#include <cstdint>
#include <string>

namespace essent::designs {

struct SoCConfig {
  uint32_t imemDepth = 1024;  // instruction words
  uint32_t dmemDepth = 1024;  // data words
  uint32_t memLatency = 3;    // extra stall cycles per load/store (>= 1)
  uint32_t numAccels = 4;     // MMIO-started accelerator blocks
  uint32_t accelLanes = 16;   // datapath lanes per accelerator
  uint32_t accelDuration = 32;  // busy cycles per accelerator start
  // Scale-out knobs (million-node elaboration study). numCores > 1 emits
  // that many TinyCPU instances, each with private instruction/data
  // memories (core 0 keeps the names `imem`/`dmem` so workload loading is
  // unchanged) and a round-robin share of the accelerators. nocWidth > 0
  // additionally emits that many independent 16-bit register-ring NoC
  // channels threading every core (stations capture a per-core tap, so
  // cross-core state actually flows). Defaults reproduce the legacy
  // single-core emission byte-for-byte.
  uint32_t numCores = 1;
  uint32_t nocWidth = 0;
  std::string name = "TinySoC";
};

std::string tinySoCFirrtl(const SoCConfig& cfg = {});

// Presets approximating the paper's Table I design sizes.
SoCConfig socR16();   // ~Rocket Chip 2016 scale
SoCConfig socR18();   // ~Rocket Chip 2018 scale
SoCConfig socBoom();  // ~BOOM scale
// Small configuration for unit tests (fast to build and simulate).
SoCConfig socTiny();
// Parameterized scale-out configuration: factor 1 lands near the boom
// preset (~130k netlist nodes) and factor 8 crosses one million nodes —
// more cores, a wider NoC, bigger memories, and a proportionally larger
// idle accelerator mass. Used by essent_bench's soc4-elab workload and the
// scale tests.
SoCConfig socScaled(uint32_t factor);

}  // namespace essent::designs
