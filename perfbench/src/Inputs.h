//===- perfbench/src/Inputs.h - Seeded inputs and references ----*- C++ -*-===//
///
/// \file
/// Everything the workloads feed the program, drawn from the run's seed,
/// and the references their outputs are checked against. References never
/// come from the compiler under test: they are the interpreter's outcome,
/// a closed form computed in C++, or a property of the program's own
/// outputs (a cached response equals an uncached one).
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_PERFBENCH_INPUTS_H
#define S1LISP_PERFBENCH_INPUTS_H

#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"
#include "vm/Machine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using s1lisp::fuzz::GeneratedProgram;
using s1lisp::fuzz::Outcome;

/// A generated module of \p Helpers helper functions plus the entry `fut`.
/// \p Big selects the ~60-function compile-service shape's deeper bodies.
GeneratedProgram generateModule(uint32_t GenSeed, unsigned Helpers, bool Big);

/// One module of the compile workload's corpus.
struct CorpusItem {
  std::string Name;
  GeneratedProgram P;
  bool Generated = true;
  /// For examples: the closed-form value of (main), printed.
  std::string Expected;
};

/// The compile workload's corpus: seeded generated modules from a few
/// forms up to the compile-service shape, then examples/*.lisp.
std::vector<CorpusItem> compileCorpus(uint64_t Seed);

/// Reads a file of the checkout (examples/...); fails the run if missing.
std::string readFile(const std::string &Path);

/// Static S-1 instruction words of a linked program (labels excluded).
uint64_t codeWords(const s1lisp::s1::Program &P);

/// Names of the functions a source defines with defun, in order.
std::vector<std::string> definedFunctions(const std::string &Source);

/// \p Source with every defined function name (definitions and uses)
/// given \p Suffix: a module with the same code and fresh memo keys.
std::string renameFunctions(const std::string &Source,
                            const std::string &Suffix);

/// \p Source with the body of function \p Name wrapped in an unused
/// binding of \p Stamp: one function's memo key changes, the compiled code
/// (after dead-code elimination) and the values do not.
std::string editFunction(const std::string &Source, const std::string &Name,
                         uint64_t Stamp);

/// The interpreter's outcome for every row of \p P's grid: tells runGrid
/// which rows' instructions to count.
std::vector<Outcome> interpretGrid(const GeneratedProgram &P);

/// Runs every grid row of \p Prog on a fresh machine per row. \p Insns
/// gains the simulated instructions retired by the rows whose outcome the
/// check compares (not ended by fuel or fixnum overflow on either side,
/// which would let one runaway row set the count).
std::vector<Outcome> runGrid(const s1lisp::s1::Program &Prog,
                             s1lisp::ir::Module &M, const GeneratedProgram &P,
                             s1lisp::vm::Engine Engine,
                             const std::vector<Outcome> &Ref, uint64_t &Insns);

/// The compiler options of the compile and service workloads: -O2 --cse.
s1lisp::driver::CompilerOptions o2Cse();

} // namespace perfbench

#endif // S1LISP_PERFBENCH_INPUTS_H
