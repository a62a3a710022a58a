// Codegen demo: emits the standalone C++ simulator ESSENT-style for the GCD
// design — baseline (full-cycle) or CCSS mode — to stdout or a file.
//
// Usage:  ./build/examples/codegen_demo [--baseline] [out.cpp]
#include <cstdio>
#include <cstring>
#include <fstream>

#include "codegen/emitter.h"
#include "core/schedule.h"
#include "designs/gcd.h"
#include "sim/compile.h"

using namespace essent;

int main(int argc, char** argv) {
  bool baseline = false;
  const char* outPath = nullptr;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--baseline") == 0) baseline = true;
    else outPath = argv[i];
  }

  sim::SimIR ir = sim::buildFromFirrtl(designs::gcdFirrtl(16));
  codegen::CodegenOptions opts;
  opts.ccss = !baseline;

  std::string code;
  if (baseline) {
    code = codegen::emitCpp(ir, nullptr, opts);
  } else {
    core::CondPartSchedule sched =
        core::buildSchedule(core::Netlist::build(ir), core::ScheduleOptions{});
    code = codegen::emitCpp(ir, &sched, opts);
    std::fprintf(stderr, "CCSS mode: %zu partitions, %zu elided registers\n",
                 sched.numPartitions(), sched.elidedRegs);
  }

  if (outPath) {
    std::ofstream f(outPath);
    f << code;
    std::fprintf(stderr, "wrote %zu bytes to %s\n", code.size(), outPath);
    std::fprintf(stderr, "compile with: c++ -O2 -std=c++20 -c %s\n", outPath);
  } else {
    std::fputs(code.c_str(), stdout);
  }
  return 0;
}
