#include "workloads/programs.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "support/rng.h"
#include "workloads/assembler.h"

namespace essent::workloads {

namespace {

// The programs keep their loop counters in 16-bit registers: a count of 0
// or above 65535 would wrap and halt after the wrong number of passes.
uint16_t loopCount(const char* what, uint64_t n) {
  if (n == 0 || n > 0xffff)
    throw std::invalid_argument(std::string(what) + " loop count " + std::to_string(n) +
                                " is outside [1, 65535]: the program's 16-bit counter would wrap");
  return static_cast<uint16_t>(n);
}

}  // namespace

// Host-side architectural reference model of the TinySoC ISA (CPU + data
// memory only; MMIO stores are architecturally inert and the fuzz/benchmark
// programs never load from MMIO). Used to compute expected results and, in
// tests, to cross-check the RTL core register for register.
RefState runReferenceModel(const Program& p, uint32_t maxSteps) {
  RefState st;
  std::vector<uint16_t> dmem(1u << 16, 0);
  for (auto [addr, val] : p.data) dmem[addr] = val;
  uint16_t* regs = st.regs;
  uint16_t pc = 0;
  for (uint32_t step = 0; step < maxSteps; step++) {
    uint16_t instr = pc < p.code.size() ? p.code[pc] : 0;
    st.instret++;
    uint16_t op = instr >> 12;
    unsigned rd = (instr >> 9) & 7, rs = (instr >> 6) & 7, rt = (instr >> 3) & 7;
    int imm6 = static_cast<int>(instr & 0x3f);
    if (imm6 >= 32) imm6 -= 64;
    uint16_t imm16 = static_cast<uint16_t>(imm6);
    auto wr = [&](unsigned r, uint16_t v) {
      if (r != 0) regs[r] = v;
    };
    uint16_t next = static_cast<uint16_t>(pc + 1);
    switch (op) {
      case 1: wr(rd, static_cast<uint16_t>(regs[rs] + imm16)); break;
      case 2: wr(rd, static_cast<uint16_t>(regs[rs] + regs[rt])); break;
      case 3: wr(rd, static_cast<uint16_t>(regs[rs] - regs[rt])); break;
      case 4: wr(rd, regs[rs] & regs[rt]); break;
      case 5: wr(rd, regs[rs] | regs[rt]); break;
      case 6: wr(rd, regs[rs] ^ regs[rt]); break;
      case 7: wr(rd, static_cast<uint16_t>(regs[rs] * regs[rt])); break;
      case 8: {  // LW
        uint16_t ea = static_cast<uint16_t>(regs[rs] + imm16);
        wr(rd, (ea & 0x8000) ? 0 : dmem[ea]);
        break;
      }
      case 9: {  // SW (MMIO stores are inert here)
        uint16_t ea = static_cast<uint16_t>(regs[rs] + imm16);
        if (!(ea & 0x8000)) dmem[ea] = regs[rd];
        break;
      }
      case 10: if (regs[rd] == regs[rs]) next = static_cast<uint16_t>(pc + imm16); break;
      case 11: if (regs[rd] != regs[rs]) next = static_cast<uint16_t>(pc + imm16); break;
      case 12: next = instr & 0xfff; break;
      case 13: wr(rd, static_cast<uint16_t>(regs[rs] << rt)); break;
      case 14: wr(rd, static_cast<uint16_t>(regs[rs] >> rt)); break;
      case 15:
        st.instret--;  // the RTL core does not count HALT
        st.halted = true;
        return st;
      default: break;
    }
    pc = next;
  }
  return st;
}

namespace {
uint16_t runReference(const Program& p, uint32_t maxSteps = 50'000'000) {
  return runReferenceModel(p, maxSteps).regs[1];
}
}  // namespace

Program dhrystoneProgram(uint32_t iterations) {
  const uint16_t count = loopCount("dhrystone", iterations);
  Asm a;
  // x1 checksum, x2 loop counter, x6 MMIO base, x7 mask.
  a.li(1, 0);
  a.li(2, count);
  a.li(6, 0x8000);
  a.li(7, 15);
  a.label("loop");
  a.addi(3, 2, 7);
  a.mul(4, 3, 3);
  a.xor_(1, 1, 4);
  a.shl(5, 3, 2);
  a.add(1, 1, 5);
  a.sw(1, 0, 20);
  a.lw(4, 0, 20);
  a.add(1, 1, 4);
  a.shr(5, 1, 3);
  a.xor_(1, 1, 5);
  a.and_(5, 2, 7);
  a.bne(5, 0, "skip_accel");
  a.sw(1, 6, 0);  // MMIO: start accelerator 0 with the checksum as operand
  a.label("skip_accel");
  a.addi(2, 2, -1);
  a.bne(2, 0, "loop");
  a.sw(1, 0, 21);
  a.halt();
  Program p;
  p.name = "dhrystone";
  p.description = "mixed integer/logic/branch loop with moderate memory traffic";
  p.code = a.assemble();
  return p;
}

Program matmulProgram(uint32_t n, uint32_t repeats) {
  const uint16_t count = loopCount("matmul repeat", repeats);
  Asm a;
  // x1 checksum, x2 i, x3 j, x4 k, x7 acc, x5/x6 temps.
  // dmem[12] holds the repeat counter; scratch at dmem[11].
  a.li(1, 0);
  a.li(5, count);
  a.sw(5, 0, 12);
  a.label("rep_loop");
  a.li(2, 0);
  a.label("i_loop");
  a.li(3, 0);
  a.label("j_loop");
  a.li(7, 0);
  a.li(4, 0);
  a.label("k_loop");
  // x5 = &A[i][k] = 256 + i*n + k
  a.li(6, static_cast<uint16_t>(n));
  a.mul(5, 2, 6);
  a.add(5, 5, 4);
  a.li(6, 256);
  a.add(5, 5, 6);
  a.lw(5, 5, 0);  // x5 = A[i][k]
  a.sw(5, 0, 11);
  // x6 = &B[k][j] = 512 + k*n + j
  a.li(6, static_cast<uint16_t>(n));
  a.mul(6, 4, 6);
  a.add(6, 6, 3);
  a.li(5, 512);
  a.add(6, 6, 5);
  a.lw(6, 6, 0);  // x6 = B[k][j]
  a.lw(5, 0, 11);
  a.mul(5, 5, 6);
  a.add(7, 7, 5);
  a.addi(4, 4, 1);
  a.li(6, static_cast<uint16_t>(n));
  a.bne(4, 6, "k_loop");
  // C[i][j] = acc at 768 + i*n + j; fold into checksum too.
  a.li(6, static_cast<uint16_t>(n));
  a.mul(5, 2, 6);
  a.add(5, 5, 3);
  a.li(6, 768);
  a.add(5, 5, 6);
  a.sw(7, 5, 0);
  a.xor_(1, 1, 7);
  a.addi(3, 3, 1);
  a.li(6, static_cast<uint16_t>(n));
  a.beq(3, 6, "j_done");
  a.jmp("j_loop");
  a.label("j_done");
  a.addi(2, 2, 1);
  a.li(6, static_cast<uint16_t>(n));
  a.beq(2, 6, "i_done");
  a.jmp("i_loop");
  a.label("i_done");
  a.lw(5, 0, 12);
  a.addi(5, 5, -1);
  a.sw(5, 0, 12);
  a.beq(5, 0, "done");
  a.jmp("rep_loop");
  a.label("done");
  a.sw(1, 0, 21);
  a.halt();

  Program p;
  p.name = "matmul";
  p.description = "dense matrix multiplication from data memory";
  p.code = a.assemble();
  for (uint32_t i = 0; i < n; i++) {
    for (uint32_t k = 0; k < n; k++) {
      p.data.emplace_back(static_cast<uint16_t>(256 + i * n + k),
                          static_cast<uint16_t>((i * 3 + k * 5 + 1) & 0xffff));
      p.data.emplace_back(static_cast<uint16_t>(512 + k * n + i),
                          static_cast<uint16_t>((k * 7 + i * 11 + 3) & 0xffff));
    }
  }
  return p;
}

Program pchaseProgram(uint32_t listLength, uint32_t laps) {
  const uint16_t steps = loopCount("pchase", uint64_t{listLength} * laps);
  Asm a;
  a.li(1, 256);  // head pointer
  a.li(2, steps);
  a.label("loop");
  a.lw(1, 1, 0);  // serialized dependent load
  a.addi(2, 2, -1);
  a.bne(2, 0, "loop");
  a.sw(1, 0, 21);
  a.halt();

  Program p;
  p.name = "pchase";
  p.description = "pointer-chasing over a shuffled linked list (dependent loads)";
  p.code = a.assemble();
  // Single-cycle permutation over [0, listLength): Sattolo's algorithm.
  std::vector<uint32_t> perm(listLength);
  for (uint32_t i = 0; i < listLength; i++) perm[i] = i;
  Rng rng(listLength * 2654435761ULL + 17);
  for (uint32_t i = listLength - 1; i >= 1; i--) {
    uint32_t j = static_cast<uint32_t>(rng.nextBelow(i));
    std::swap(perm[i], perm[j]);
  }
  for (uint32_t i = 0; i < listLength; i++)
    p.data.emplace_back(static_cast<uint16_t>(256 + i), static_cast<uint16_t>(256 + perm[i]));
  return p;
}

uint16_t dhrystoneExpected(uint32_t iterations) { return runReference(dhrystoneProgram(iterations)); }
uint16_t matmulExpected(uint32_t n, uint32_t repeats) { return runReference(matmulProgram(n, repeats)); }
uint16_t pchaseExpected(uint32_t listLength, uint32_t laps) {
  return runReference(pchaseProgram(listLength, laps));
}

}  // namespace essent::workloads
