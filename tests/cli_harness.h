// Shared by the tests that run the essentc binary as a subprocess: runs it
// and writes input files. Every scratch file lives in a support::TempDir
// (under $TMPDIR, else /tmp), removed with its contents when it goes out of
// scope, so a test run leaves nothing behind.
#pragma once

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "support/tempdir.h"

#ifndef ESSENTC_PATH
#error "ESSENTC_PATH must be defined by the build"
#endif

namespace essent::clitest {

struct CliResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr
};

// Runs `essentc <args>` through the shell and captures its output.
inline CliResult runCli(const std::string& args) {
  support::TempDir dir("essent_cli_XXXXXX");
  const std::string outFile = dir.file("out.txt");
  const std::string cmd = std::string(ESSENTC_PATH) + " " + args + " > " + outFile + " 2>&1";
  const int rc = std::system(cmd.c_str());
  CliResult res;
  res.exitCode = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  std::ifstream f(outFile);
  std::stringstream ss;
  ss << f.rdbuf();
  res.output = ss.str();
  return res;
}

// Writes `contents` to `name` in `dir` and returns the file's path.
inline std::string writeFile(const support::TempDir& dir, const std::string& name,
                             const std::string& contents) {
  std::ofstream(dir.file(name)) << contents;
  return dir.file(name);
}

}  // namespace essent::clitest
