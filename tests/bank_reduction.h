// Test design for the partitioner's oversized-cone cut: 8 banks of 16
// registers (register b<k>_<i> loads input d<k>_<i>), each bank XOR-reduced
// by one balanced expression into node r<k>, and the 8 bank results
// XOR-reduced into the one output `out`. Every XOR has one consumer, so the
// whole reduction is one MFFC of ~140 netlist nodes.
//
// With `sharedLeaf`, bank 7's first pair is the named node `s`, and bank
// 0's first pair reads `s` too. The only post-dominator of `s` is the final
// XOR, so neither of those two bank trees is an independent sub-cone.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/netlist.h"
#include "sim/sim_ir.h"

namespace essent::tests {

constexpr int kReductionBanks = 8;
constexpr int kReductionBankRegs = 16;

inline std::string bankName(const char* base, int k, int i) {
  std::string s = base;  // appending sidesteps GCC 12's false -Wrestrict
  s += std::to_string(k);
  s += "_";
  s += std::to_string(i);
  return s;
}

// Input i of bank k.
inline std::string bankInput(int k, int i) { return bankName("d", k, i); }

inline std::string bankReductionFirrtl(bool sharedLeaf = false) {
  auto reg = [](int k, int i) { return bankName("b", k, i); };
  // One nested, balanced XOR expression over `leaves`.
  auto reduce = [](std::vector<std::string> layer) {
    while (layer.size() > 1) {
      std::vector<std::string> up;
      for (size_t i = 0; i + 1 < layer.size(); i += 2)
        up.push_back("xor(" + layer[i] + ", " + layer[i + 1] + ")");
      layer = std::move(up);
    }
    return layer[0];
  };
  std::string t = "circuit BankXor :\n  module BankXor :\n    input clock : Clock\n";
  for (int k = 0; k < kReductionBanks; k++)
    for (int i = 0; i < kReductionBankRegs; i++)
      t += "    input " + bankInput(k, i) + " : UInt<16>\n";
  t += "    output out : UInt<16>\n";
  for (int k = 0; k < kReductionBanks; k++)
    for (int i = 0; i < kReductionBankRegs; i++) {
      t += "    reg " + reg(k, i) + " : UInt<16>, clock\n";
      t += "    " + reg(k, i) + " <= " + bankInput(k, i) + "\n";
    }
  if (sharedLeaf) t += "    node s = xor(" + reg(7, 0) + ", " + reg(7, 1) + ")\n";
  std::vector<std::string> results;
  for (int k = 0; k < kReductionBanks; k++) {
    std::vector<std::string> pairs;
    for (int i = 0; i < kReductionBankRegs; i += 2) {
      std::string pair = "xor(" + reg(k, i) + ", " + reg(k, i + 1) + ")";
      if (sharedLeaf && k == 7 && i == 0) pair = "s";
      if (sharedLeaf && k == 0 && i == 0) pair = "xor(" + pair + ", s)";
      pairs.push_back(pair);
    }
    std::string r = "r" + std::to_string(k);
    t += "    node " + r + " = " + reduce(pairs) + "\n";
    results.push_back(r);
  }
  t += "    out <= " + reduce(results) + "\n";
  return t;
}

// Op indices of bank k's reduction tree: every op the node r<k> depends on,
// without r<k>'s own copy.
inline std::set<int32_t> bankTreeOps(const sim::SimIR& ir, const core::Netlist& nl, int bank) {
  int32_t rootOp = -1;
  for (size_t op = 0; op < ir.ops.size(); op++)
    if (ir.signals[static_cast<size_t>(ir.ops[op].dest)].name == "r" + std::to_string(bank))
      rootOp = static_cast<int32_t>(op);
  std::set<int32_t> ops;
  if (rootOp < 0) return ops;
  std::vector<int32_t> stack = {nl.nodeOfOp[static_cast<size_t>(rootOp)]};
  while (!stack.empty()) {
    int32_t v = stack.back();
    stack.pop_back();
    for (int32_t w : nl.g.inNeighbors(v)) {
      int32_t op = nl.nodes[static_cast<size_t>(w)].index;
      if (ops.insert(op).second) stack.push_back(w);
    }
  }
  return ops;
}

}  // namespace essent::tests
