//===- tests/vm/JitBlockTest.cpp ------------------------------------------===//
//
// Block-compiler-specific equivalence tiers. EngineEquivalenceTest pins
// the three engines to each other on ordinary runs; this file aims the
// same oracle at the spots the block compiler's optimizations could
// plausibly diverge:
//
//  * safepoint batching — fuel exhaustion is forced at EVERY instruction
//    offset of a synthetic multi-instruction block, so the bulk
//    fuel-charge, the fused-branch precharge, the bulk PerOpcode bump,
//    and the handoff of a block that does not fit to the threaded loop
//    are each observed mid-block (trap message and every MachineStats
//    counter must match threaded byte-for-byte / bit-for-bit);
//  * control falling off the end of a hand-assembled function (the
//    pc == size handoff), swept over fuel on all three engines;
//  * the inlined cons fast path under forced collections, cross-checked
//    against the interpreter with its after-every-GC heap verifier on
//    (the library behind --gc-verify);
//  * compare+branch fusion over the full NumPred × GenericCompare ×
//    branch-polarity matrix;
//  * a 100-seed fuzz sweep per engine at --gc-every={1,7}.
//
//===----------------------------------------------------------------------===//

#include "driver/Ablation.h"
#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"
#include "interp/Interp.h"
#include "sexpr/Printer.h"
#include "vm/Jit.h"
#include "vm/Machine.h"

#include "gtest/gtest.h"

#include <sstream>

using namespace s1lisp;
using sexpr::Value;

namespace {

struct EngineRun {
  bool Ok = false;
  std::string Text; ///< printed value, or the error message
  vm::MachineStats Stats;
};

EngineRun runOn(const s1::Program &P, ir::Module &M, const std::string &Entry,
                const std::vector<Value> &Args, vm::Engine Eng, uint64_t Fuel,
                bool DetailedStats = true, uint64_t GcEvery = 0) {
  vm::Machine VM(P, M.Syms, M.DataHeap);
  VM.setEngine(Eng);
  VM.setDetailedStats(DetailedStats);
  VM.setGcEvery(GcEvery);
  VM.setFuel(Fuel);
  vm::Machine::RunResult R = VM.call(Entry, Args);
  EngineRun Out;
  Out.Ok = R.Ok;
  Out.Text = R.Ok ? (R.Result ? sexpr::toString(*R.Result) : "#<undecodable>")
                  : R.Error;
  Out.Stats = VM.stats();
  return Out;
}

std::string diffStats(const vm::MachineStats &L, const vm::MachineStats &T,
                      const char *LName, const char *TName) {
  std::ostringstream Out;
  auto Cmp = [&](const char *Name, uint64_t A, uint64_t B) {
    if (A != B)
      Out << "  " << Name << ": " << LName << " " << A << " vs " << TName
          << " " << B << "\n";
  };
  Cmp("Instructions", L.Instructions, T.Instructions);
  Cmp("Movs", L.Movs, T.Movs);
  Cmp("Calls", L.Calls, T.Calls);
  Cmp("TailCalls", L.TailCalls, T.TailCalls);
  Cmp("Syscalls", L.Syscalls, T.Syscalls);
  Cmp("HeapObjects", L.HeapObjects, T.HeapObjects);
  Cmp("HeapWordsUsed", L.HeapWordsUsed, T.HeapWordsUsed);
  Cmp("StackHighWater", L.StackHighWater, T.StackHighWater);
  Cmp("SpecialSearches", L.SpecialSearches, T.SpecialSearches);
  Cmp("SpecialSearchSteps", L.SpecialSearchSteps, T.SpecialSearchSteps);
  Cmp("GcRuns", L.GcRuns, T.GcRuns);
  Cmp("GcWordsReclaimed", L.GcWordsReclaimed, T.GcWordsReclaimed);
  for (size_t I = 0; I < L.PerOpcode.size(); ++I)
    if (L.PerOpcode[I] != T.PerOpcode[I])
      Out << "  PerOpcode[" << I << "]: " << LName << " " << L.PerOpcode[I]
          << " vs " << TName << " " << T.PerOpcode[I] << "\n";
  return Out.str();
}

driver::CompileOutcome compileOrDie(ir::Module &M, const std::string &Source) {
  driver::CompileOutcome Out = driver::compileSource(M, Source, {});
  EXPECT_TRUE(Out.Ok) << Out.Error;
  return Out;
}

/// Compiles and runs one grid point on every engine against the threaded
/// baseline — exact text (including trap messages) and bit-identical
/// stats. Used by the fusion and cons tiers; the fuel sweep drives runOn
/// directly because it varies the fuel limit.
void expectNativeMatchesThreaded(const std::string &Source,
                                 const std::string &Entry,
                                 const std::vector<Value> &Args,
                                 uint64_t GcEvery = 0) {
  ir::Module M;
  driver::CompileOutcome Out = compileOrDie(M, Source);
  if (!Out.Ok)
    return;
  for (bool Detailed : {true, false}) {
    EngineRun T = runOn(Out.Program, M, Entry, Args, vm::Engine::Threaded,
                        2'000'000, Detailed, GcEvery);
    if (vm::jitAvailable()) {
      EngineRun N = runOn(Out.Program, M, Entry, Args, vm::Engine::Native,
                          2'000'000, Detailed, GcEvery);
      ASSERT_EQ(T.Ok, N.Ok) << "threaded: " << T.Text
                            << "\nnative:   " << N.Text;
      EXPECT_EQ(T.Text, N.Text) << "detailed=" << Detailed;
      EXPECT_EQ(diffStats(T.Stats, N.Stats, "threaded", "native"), "")
          << "detailed=" << Detailed << " gc-every=" << GcEvery;
    }
    EngineRun L = runOn(Out.Program, M, Entry, Args, vm::Engine::Legacy,
                        2'000'000, Detailed, GcEvery);
    ASSERT_EQ(T.Ok, L.Ok) << "threaded: " << T.Text << "\nlegacy: " << L.Text;
    if (T.Ok)
      EXPECT_EQ(T.Text, L.Text);
    else
      EXPECT_EQ(fuzz::classifyError(T.Text), fuzz::classifyError(L.Text));
    EXPECT_EQ(diffStats(T.Stats, L.Stats, "threaded", "legacy"), "")
        << "detailed=" << Detailed << " gc-every=" << GcEvery;
  }
}

//===----------------------------------------------------------------------===//
// Safepoint batching: fuel exhaustion at every offset of a block.
//
// The entry of `sweep` compiles to a long run of PUSHes (ListN collects
// its arguments on the stack) capped by a fused compare+branch, then the
// taken arm conses onto a fresh list — so a fuel sweep from 1 to the
// total retired count lands the trap on every batched offset, on the
// precharged fused branch, and inside the inline-cons block. The stubs
// must reconstruct the exact instruction counter, per-opcode histogram,
// SP/StackHighWater, and trap text the threaded loop produces when its
// per-instruction check fires at the same boundary.
//===----------------------------------------------------------------------===//

constexpr char SweepSource[] =
    "(defun sweep (n)"
    "  (if (< n 50)"
    "      (cons n (list n n n n n n n n))"
    "      (list n n)))";

void fuelSweep(bool Detailed, uint64_t GcEvery) {
  if (!vm::jitAvailable())
    GTEST_SKIP() << "no native tier on this host";
  ir::Module M;
  driver::CompileOutcome Out = compileOrDie(M, SweepSource);
  if (!Out.Ok)
    return;
  std::vector<Value> Args = {Value::fixnum(7)};
  // Total retired instructions for the full run, from the oracle engine.
  EngineRun Full = runOn(Out.Program, M, "sweep", Args, vm::Engine::Threaded,
                         2'000'000, Detailed, GcEvery);
  ASSERT_TRUE(Full.Ok) << Full.Text;
  uint64_t Total = Full.Stats.Instructions;
  ASSERT_GT(Total, 10u) << "synthetic block too short to sweep";
  for (uint64_t Fuel = 1; Fuel <= Total + 1; ++Fuel) {
    EngineRun T = runOn(Out.Program, M, "sweep", Args, vm::Engine::Threaded,
                        Fuel, Detailed, GcEvery);
    EngineRun N = runOn(Out.Program, M, "sweep", Args, vm::Engine::Native,
                        Fuel, Detailed, GcEvery);
    ASSERT_EQ(T.Ok, N.Ok) << "fuel=" << Fuel << "\n  threaded: " << T.Text
                          << "\n  native:   " << N.Text;
    // Byte-identical even for traps: the stubs must reproduce the
    // threaded engine's message, not merely its error class.
    EXPECT_EQ(T.Text, N.Text) << "fuel=" << Fuel;
    EXPECT_EQ(diffStats(T.Stats, N.Stats, "threaded", "native"), "")
        << "fuel=" << Fuel << " detailed=" << Detailed
        << " gc-every=" << GcEvery;
    if (Fuel < Total) {
      EXPECT_FALSE(T.Ok) << "fuel=" << Fuel << " of " << Total;
    }
  }
}

TEST(JitBlock, FuelTrapAtEveryOffsetDetailed) {
  fuelSweep(/*Detailed=*/true, /*GcEvery=*/0);
}

TEST(JitBlock, FuelTrapAtEveryOffsetSlim) {
  fuelSweep(/*Detailed=*/false, /*GcEvery=*/0);
}

TEST(JitBlock, FuelTrapAtEveryOffsetUnderGc) {
  // With a schedule set every block entry also checks for a pending
  // collection after the fit test, and a block that does not fit hands
  // off to the threaded loop with the collection still pending — sweep
  // that shape too.
  fuelSweep(/*Detailed=*/true, /*GcEvery=*/1);
}

//===----------------------------------------------------------------------===//
// Falling off the end of a function.
//
// No compiler output reaches pc == size, so the function is assembled by
// hand: a consing loop, then either a branch to a label at the very end
// (no arguments) or a straight-line block that runs past the last
// instruction (one argument). Every engine must raise "pc out of range"
// at the same boundary, after the same pending collection, and a fuel
// sweep over the whole run must trap identically at every offset.
//===----------------------------------------------------------------------===//

s1::Program fallOffProgram() {
  using namespace s1;
  AsmFunction F;
  F.Name = "falloff";
  auto E = [&F](Opcode Op, Operand A = {}, Operand B = {}, Operand X = {},
                Cond C = Cond::EQ) {
    Instruction I;
    I.Op = Op;
    I.C = C;
    I.A = A;
    I.B = B;
    I.X = X;
    F.emit(I);
  };
  const uint8_t Counter = 10, Scratch = 11;
  int Top = F.newLabel(), End = F.newLabel();
  E(Opcode::MOV, Operand::reg(Counter), Operand::imm(3));
  F.placeLabel(Top);
  E(Opcode::PUSH, Operand::imm(static_cast<int64_t>(makeFixnum(7))));
  E(Opcode::PUSH, Operand::reg(RV));
  E(Opcode::SYSCALL, Operand::imm(static_cast<int64_t>(Syscall::Cons)),
    Operand::imm(0), Operand::imm(0));
  E(Opcode::SUB, Operand::reg(Counter), Operand::imm(1));
  E(Opcode::JMPZ, Operand::reg(Counter), Operand::imm(0), Operand::label(Top),
    Cond::GT);
  E(Opcode::JMPZ, Operand::reg(RTA), Operand::imm(0), Operand::label(End),
    Cond::EQ);
  E(Opcode::MOV, Operand::reg(Scratch), Operand::reg(RV));
  E(Opcode::ADD, Operand::reg(Scratch), Operand::imm(1));
  E(Opcode::PUSH, Operand::reg(Scratch));
  E(Opcode::POP, Operand::reg(Scratch));
  F.placeLabel(End);
  std::string Error;
  EXPECT_TRUE(F.finalize(Error)) << Error;
  s1::Program P;
  P.Functions.push_back(std::move(F));
  return P;
}

TEST(JitBlock, FallOffEndAgreesAtEveryFuel) {
  s1::Program P = fallOffProgram();
  ir::Module M; // symbol table and data heap for the machines
  std::vector<vm::Engine> Others = {vm::Engine::Legacy};
  if (vm::jitAvailable())
    Others.push_back(vm::Engine::Native);
  for (const std::vector<Value> &Args :
       {std::vector<Value>{}, std::vector<Value>{Value::fixnum(5)}})
    for (bool Detailed : {true, false})
      for (uint64_t GcEvery : {0, 1}) {
        EngineRun Full = runOn(P, M, "falloff", Args, vm::Engine::Threaded,
                               10'000, Detailed, GcEvery);
        ASSERT_FALSE(Full.Ok);
        ASSERT_EQ(Full.Text.find("pc out of range"), 0u) << Full.Text;
        if (GcEvery) {
          EXPECT_GT(Full.Stats.GcRuns, 0u);
        }
        uint64_t Total = Full.Stats.Instructions;
        for (uint64_t Fuel = 1; Fuel <= Total + 1; ++Fuel) {
          EngineRun T = runOn(P, M, "falloff", Args, vm::Engine::Threaded,
                              Fuel, Detailed, GcEvery);
          EXPECT_EQ(T.Text.find(Fuel <= Total ? "instruction fuel exhausted"
                                              : "pc out of range"),
                    0u)
              << "fuel=" << Fuel << ": " << T.Text;
          for (vm::Engine Eng : Others) {
            EngineRun O = runOn(P, M, "falloff", Args, Eng, Fuel, Detailed,
                                GcEvery);
            const char *Name = vm::engineName(Eng);
            EXPECT_FALSE(O.Ok) << Name;
            EXPECT_EQ(T.Text, O.Text) << Name << " fuel=" << Fuel;
            EXPECT_EQ(diffStats(T.Stats, O.Stats, "threaded", Name), "")
                << "args=" << Args.size() << " fuel=" << Fuel
                << " detailed=" << Detailed << " gc-every=" << GcEvery;
          }
        }
      }
}

//===----------------------------------------------------------------------===//
// Inlined cons under forced collections, with the heap verifier on.
//===----------------------------------------------------------------------===//

constexpr char ConsLoopSource[] =
    "(defun build (n acc)"
    "  (if (zerop n) acc (build (- n 1) (cons n acc))))"
    "(defun drive (n) (length (build n nil)))";

TEST(JitBlock, InlineConsAgreesUnderForcedGc) {
  for (uint64_t GcEvery : {0, 1, 3, 7})
    expectNativeMatchesThreaded(ConsLoopSource, "drive",
                                {Value::fixnum(300)}, GcEvery);
}

TEST(JitBlock, InlineConsSurvivesHeapVerifier) {
  // The interpreter shares the runtime-heap library behind --gc-verify:
  // with a schedule set it re-walks the whole heap after every
  // collection and aborts on any dangling or mistagged cell. Running the
  // same source there (gc-every=1, verify on) and demanding the same
  // printed value pins the VM engines — including the JIT's inline
  // bump-allocation — to a verified-heap reference.
  ir::Module M;
  driver::CompileOutcome Out = compileOrDie(M, ConsLoopSource);
  if (!Out.Ok)
    return;
  std::vector<Value> Args = {Value::fixnum(120)};
  EngineRun T = runOn(Out.Program, M, "drive", Args, vm::Engine::Threaded,
                      2'000'000, true, /*GcEvery=*/1);
  ASSERT_TRUE(T.Ok) << T.Text;
  if (vm::jitAvailable()) {
    EngineRun N = runOn(Out.Program, M, "drive", Args, vm::Engine::Native,
                        2'000'000, true, /*GcEvery=*/1);
    ASSERT_TRUE(N.Ok) << N.Text;
    EXPECT_EQ(T.Text, N.Text);
    EXPECT_EQ(diffStats(T.Stats, N.Stats, "threaded", "native"), "");
  }
  interp::Interpreter I(M);
  I.setFuel(2'000'000);
  I.setGcEvery(1);
  I.setGcVerify(true);
  interp::Interpreter::Result R =
      I.call("drive", {interp::RtValue::data(Args[0])});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.str(), T.Text);
}

//===----------------------------------------------------------------------===//
// Compare+branch fusion matrix: every fusable predicate and comparison,
// under both branch polarities (the plain test branches on EQ-with-nil,
// the negated test flips the codegen'd condition), with arguments that
// exercise both the taken and the fall-through edge, and with the fused
// pair split across a forced-GC safepoint.
//===----------------------------------------------------------------------===//

TEST(JitBlock, FusionMatrixNumPreds) {
  const char *Preds[] = {"zerop", "oddp", "evenp", "plusp", "minusp"};
  for (const char *P : Preds)
    for (bool Negated : {false, true}) {
      std::ostringstream Src;
      Src << "(defun f (a b) (if " << (Negated ? "(not (" : "(") << P
          << " a)" << (Negated ? ")" : "") << " (+ b 1) (- b 1)))";
      for (int64_t A : {-3, -2, 0, 2, 5})
        for (uint64_t GcEvery : {0, 1})
          expectNativeMatchesThreaded(
              Src.str(), "f", {Value::fixnum(A), Value::fixnum(10)}, GcEvery);
    }
}

TEST(JitBlock, FusionMatrixGenericCompares) {
  const char *Ops[] = {"=", "<", ">", "<=", ">=", "/="};
  for (const char *Op : Ops)
    for (bool Negated : {false, true}) {
      std::ostringstream Src;
      Src << "(defun f (a b) (if " << (Negated ? "(not (" : "(") << Op
          << " a b)" << (Negated ? ")" : "") << " (+ a b) (- a b)))";
      for (auto [A, B] : {std::pair<int64_t, int64_t>{3, 7},
                          {7, 3},
                          {4, 4}})
        for (uint64_t GcEvery : {0, 1})
          expectNativeMatchesThreaded(
              Src.str(), "f", {Value::fixnum(A), Value::fixnum(B)}, GcEvery);
    }
}

//===----------------------------------------------------------------------===//
// Fuzzed tier: 100 seeds per engine, interpreter-differential with
// forced collections every {1,7} allocations (interpreter side verifies
// its heap after every collection). One optimized configuration bounds
// the cost; the full ablation matrix is DifferentialFuzzTest's job.
//===----------------------------------------------------------------------===//

constexpr unsigned JitFuzzBatch = 25;

class JitGcFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(JitGcFuzz, EnginesAgreeUnderForcedGc) {
  std::vector<driver::AblationConfig> Configs = {
      driver::ablationMatrix().front()};
  ASSERT_EQ(Configs.front().Name, "O2");
  std::vector<vm::Engine> Engines = {vm::Engine::Legacy,
                                     vm::Engine::Threaded};
  if (vm::jitAvailable())
    Engines.push_back(vm::Engine::Native);
  for (unsigned Seed = GetParam(); Seed < GetParam() + JitFuzzBatch; ++Seed) {
    fuzz::Generator G(Seed, {});
    fuzz::GeneratedProgram P = G.generate();
    for (vm::Engine Eng : Engines)
      for (uint64_t GcEvery : {1, 7}) {
        fuzz::OracleOptions OO;
        OO.Configs = Configs;
        OO.InterpFuel = 100'000;
        OO.VmFuel = 1'000'000;
        OO.Engine = Eng;
        OO.GcEvery = GcEvery;
        fuzz::CheckResult R = fuzz::checkProgram(P, OO);
        EXPECT_EQ(R.St, fuzz::CheckResult::Status::Agree)
            << "seed " << Seed << " engine " << vm::engineName(Eng)
            << " gc-every=" << GcEvery << " diverged ("
            << R.Divergences.size() << " rows)\n"
            << (R.Divergences.empty()
                    ? std::string()
                    : "  first: " + R.Divergences.front().Reference.Text +
                          " vs " + R.Divergences.front().Actual.Text + "\n")
            << P.Source;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitGcFuzz,
                         ::testing::Range(3000u, 3100u, JitFuzzBatch));

} // namespace
