//===- perfbench/src/Inputs.cpp -------------------------------------------===//

#include "Inputs.h"

#include "Common.h"

#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "sexpr/Printer.h"
#include "support/Diag.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cctype>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

using namespace s1lisp;

namespace perfbench {

namespace {
// The oracle's fuel limits (fuzz::OracleOptions defaults).
constexpr uint64_t InterpFuel = 2'000'000;
constexpr uint64_t VmFuel = 20'000'000;

bool isDelimiter(char C) {
  return std::isspace(static_cast<unsigned char>(C)) || C == '(' || C == ')' ||
         C == '\'' || C == ';' || C == '"';
}

/// Index one past the parenthesized form opening at \p Open.
size_t formEnd(const std::string &S, size_t Open) {
  int Depth = 0;
  for (size_t I = Open; I < S.size(); ++I) {
    if (S[I] == '(')
      ++Depth;
    else if (S[I] == ')' && --Depth == 0)
      return I + 1;
  }
  fatal("unbalanced generated source");
}

/// Whether a grid row's outcome is excluded from comparison: fixnum-width
/// overflow or fuel exhaustion.
bool tainted(const Outcome &O) {
  return O.EC == fuzz::ErrorClass::Overflow || O.EC == fuzz::ErrorClass::Fuel;
}

// The generated part of the corpus: seeded modules whose helper counts
// step evenly from none to 59, plus two of the compile-service shape (59
// helpers with deep bodies). Every seed gets the same strata and its own
// programs; many mid-sized modules keep the corpus' total cost, and the
// median compile, steady from seed to seed.
constexpr unsigned Strata = 96;
// The two largest modules are fixed, not seeded: bench_service.cpp's
// module (generator seed 7600) and its neighbour. The largest compile
// sets the compiler's peak memory and the latency tail, which a seeded
// pick would make a property of the seed.
constexpr uint32_t BigSeeds[] = {7600, 7601};
} // namespace

GeneratedProgram generateModule(uint32_t GenSeed, unsigned Helpers, bool Big) {
  fuzz::GenOptions GO;
  GO.Helpers = Helpers;
  if (Big) {
    // bench/bench_service.cpp's module shape.
    GO.MaxDepth = 6;
    GO.SizeBudget = 400;
  }
  return fuzz::Generator(GenSeed, GO).generate();
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    fatal("cannot read " + Path + " (run from the repository root)");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

uint64_t codeWords(const s1::Program &P) {
  uint64_t N = 0;
  for (const s1::AsmFunction &F : P.Functions)
    for (const s1::Instruction &I : F.Code)
      N += I.Op != s1::Opcode::LABEL;
  return N;
}

std::vector<std::string> definedFunctions(const std::string &Source) {
  std::vector<std::string> Names;
  for (size_t At = Source.find("(defun "); At != std::string::npos;
       At = Source.find("(defun ", At + 1)) {
    size_t B = At + 7, E = B;
    while (E < Source.size() && !isDelimiter(Source[E]))
      ++E;
    Names.push_back(Source.substr(B, E - B));
  }
  return Names;
}

std::string renameFunctions(const std::string &Source,
                            const std::string &Suffix) {
  std::vector<std::string> Defs = definedFunctions(Source);
  std::set<std::string> Names(Defs.begin(), Defs.end());
  std::string Out;
  Out.reserve(Source.size() + Source.size() / 8);
  size_t I = 0;
  while (I < Source.size()) {
    if (isDelimiter(Source[I])) {
      Out += Source[I++];
      continue;
    }
    size_t E = I;
    while (E < Source.size() && !isDelimiter(Source[E]))
      ++E;
    std::string Tok = Source.substr(I, E - I);
    Out += Tok;
    if (Names.count(Tok))
      Out += Suffix;
    I = E;
  }
  return Out;
}

std::string editFunction(const std::string &Source, const std::string &Name,
                         uint64_t Stamp) {
  size_t At = Source.find("(defun " + Name + " ");
  if (At == std::string::npos)
    fatal("no function " + Name + " to edit");
  size_t Params = Source.find('(', At + 1);
  size_t BodyStart = formEnd(Source, Params);
  size_t End = formEnd(Source, At) - 1; // the defun's closing paren
  return Source.substr(0, BodyStart) + " (let ((bench-edit " +
         std::to_string(Stamp) + "))" + Source.substr(BodyStart, End - BodyStart) +
         ")" + Source.substr(End);
}

std::vector<Outcome> interpretGrid(const GeneratedProgram &P) {
  ir::Module M;
  DiagEngine Diags;
  if (!frontend::convertSource(M, P.Source, Diags))
    fatal("reference conversion failed: " + Diags.str());
  std::vector<Outcome> Out;
  for (const auto &Row : P.ArgGrid) {
    interp::Interpreter I(M);
    I.setFuel(InterpFuel);
    std::vector<interp::RtValue> Args;
    for (sexpr::Value V : Row)
      Args.push_back(interp::RtValue::data(V));
    auto R = I.call(P.Entry, Args);
    Out.push_back(R.Ok ? Outcome::value(R.Value.str()) : Outcome::error(R.Error));
  }
  return Out;
}

std::vector<Outcome> runGrid(const s1::Program &Prog, ir::Module &M,
                             const GeneratedProgram &P, vm::Engine Engine,
                             const std::vector<Outcome> &Ref, uint64_t &Insns) {
  std::shared_ptr<const vm::DecodedProgram> Decoded = vm::predecode(Prog);
  std::vector<Outcome> Out;
  for (const auto &Row : P.ArgGrid) {
    vm::Machine VM(Prog, M.Syms, M.DataHeap);
    VM.setFuel(VmFuel);
    VM.setEngine(Engine);
    VM.setDecodedProgram(Decoded);
    auto R = VM.call(P.Entry, Row);
    Out.push_back(R.Ok ? Outcome::value(R.Result ? sexpr::toString(*R.Result)
                                                 : "#<undecodable>")
                       : Outcome::error(R.Error));
    if (!tainted(Out.back()) && !tainted(Ref[Out.size() - 1]))
      Insns += VM.stats().Instructions;
  }
  return Out;
}

std::vector<CorpusItem> compileCorpus(uint64_t Seed) {
  Rng R(Seed * 1000003 + 11);
  std::vector<CorpusItem> C;
  for (unsigned I = 0; I < Strata; ++I) {
    unsigned H = I * 59 / (Strata - 1);
    C.push_back({"gen-h" + std::to_string(H),
                 generateModule(R.seed32(), H, false), true, ""});
  }
  for (uint32_t GenSeed : BigSeeds)
    C.push_back({"gen-big-" + std::to_string(GenSeed),
                 generateModule(GenSeed, 59, true), true, ""});

  auto Example = [&C](const std::string &File, std::string Expected) {
    CorpusItem E{File, {}, false, std::move(Expected)};
    E.P.Source = readFile(File);
    E.P.Entry = "main";
    E.P.ArgGrid = {{}};
    C.push_back(std::move(E));
  };
  // Each file's (main) and the closed form its header states.
  Example("examples/exptl.lisp", "1024");
  // (testfn 0.25 2.0 8.0) is (sin$f (*$f 0.25 2.0 8.0)), which
  // META-SIN-TO-SINC turns into the S-1 trig unit's sine of
  // (*$f 4.0 0.159154942) cycles, the paper's approximation to 1/2pi.
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%.17g",
           std::sin((0.25 * 2.0 * 8.0) * 0.159154942 * 2.0 * M_PI));
  Example("examples/testfn.lisp", Buf);
  Example("examples/gc/append-reverse.lisp", std::to_string(12 * (12 * 13 / 2)));
  Example("examples/gc/assoc.lisp", std::to_string(64 * 63 * 127 / 6));
  Example("examples/gc/map-chain.lisp",
          std::to_string(3 * (32 * 31 * 63 / 6 + 32)));
  return C;
}

driver::CompilerOptions o2Cse() {
  driver::CompilerOptions O;
  O.Optimize = true;
  O.Cse = true;
  return O;
}

} // namespace perfbench
