//===- perfbench/src/WorkloadOracle.cpp - The oracle workload -------------===//
//
// fuzz::checkProgram over a fixed range of generator seeds: every program
// runs through the interpreter and all 17 ablation configurations on the
// threaded engine, the configurations fanned out over nproc / 2 jobs. One
// operation is one program checked.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"

#include "driver/Ablation.h"

#include <algorithm>
#include <cstdio>

using namespace s1lisp;

namespace perfbench {

namespace {

// The sweep's generator seeds. The range is fixed, not drawn from the run
// seed: per-program cost is heavy-tailed (a program whose every row runs
// to the overflow or fuel limit costs hundreds of ordinary ones), so a
// seeded range would make ops_per_s a property of the seed. It keeps such
// programs as real sweep traffic. The run seed orders the programs.
constexpr uint32_t FirstProgram = 1;
constexpr uint32_t Programs = 400;

} // namespace

// Half the CPUs: the benchmark's own thread runs the interpreter reference
// and joins the fan-out, and the latency of a fan-out is set by its
// slowest job, which grew with every job added whenever another process
// took a CPU. In sets of ten runs, latency_p90_ms spread 46% at 4 jobs and
// from 15% to 46% at 3 jobs, against 13% at 2.
unsigned oracleJobs() { return std::max(1u, workers() / 2); }

RunResult runOracle(const Options &O) {
  RunResult Res;
  std::vector<GeneratedProgram> Range;
  for (uint32_t S = FirstProgram; S < FirstProgram + Programs; ++S)
    Range.push_back(fuzz::Generator(S).generate());
  std::vector<size_t> Order(Range.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Rng R(O.Seed * 5915587277ull + 7);
  for (size_t I = Order.size() - 1; I > 0; --I)
    std::swap(Order[I], Order[static_cast<size_t>(R.range(0, static_cast<int64_t>(I)))]);

  // The set-up an s1lisp-fuzz user pays per sweep: process start and the
  // ablation matrix.
  std::vector<double> Setups =
      processSetupTimes({O.BinDir + "/s1lisp-fuzz", "--list-configs"});

  fuzz::OracleOptions Opts;
  Opts.Jobs = oracleJobs();
  Opts.Engine = vm::Engine::Threaded;

  std::vector<unsigned> Rows(Range.size(), 0);
  std::vector<double> PerProgram(Range.size(), 0);
  OpLog Log;
  const double Cpu0 = selfCpuSeconds();
  const auto Start = Clock::now();
  for (uint64_t Round = 0; keepGoing(Start, O.Seconds, Log.LatencyMs.size());
       ++Round) {
    for (size_t I : Order) {
      auto T0 = Clock::now();
      fuzz::CheckResult C = fuzz::checkProgram(Range[I], Opts);
      double Ms = msSince(T0);
      Log.LatencyMs.push_back(Ms);
      PerProgram[I] = Ms;
      ++Res.Attempted;
      if (C.St == fuzz::CheckResult::Status::ConvertError) {
        fprintf(stderr, "s1bench: program %zu does not convert: %s\n",
                FirstProgram + I, C.ConvertMessage.c_str());
        ++Res.Failed;
        continue;
      }
      if (C.St != fuzz::CheckResult::Status::Agree) {
        const fuzz::Divergence &D = C.Divergences.front();
        fprintf(stderr,
                "s1bench: program %zu diverges under %s on row %zu: %s vs "
                "interpreter %s\n",
                FirstProgram + I, D.Config.c_str(), D.ArgIndex,
                D.Actual.Text.c_str(), D.Reference.Text.c_str());
        Res.Correct = false;
      }
      if (Round == 0)
        Rows[I] = C.RowsCompared;
      requireRepeat("rows compared of program " + std::to_string(FirstProgram + I),
                    Rows[I], C.RowsCompared, Round);
    }
  }
  Log.WallSeconds = msSince(Start) / 1000.0;
  Log.CpuSeconds = selfCpuSeconds() - Cpu0;
  const double PeakMb = selfPeakRssMb();

  {
    std::vector<size_t> Slow(Range.size());
    for (size_t I = 0; I < Slow.size(); ++I)
      Slow[I] = I;
    std::sort(Slow.begin(), Slow.end(),
              [&](size_t A, size_t B) { return PerProgram[A] > PerProgram[B]; });
    fprintf(stderr, "s1bench: oracle slowest programs:");
    for (size_t I = 0; I < 5; ++I)
      fprintf(stderr, " %zu (%.0f ms)", FirstProgram + Slow[I], PerProgram[Slow[I]]);
    fprintf(stderr, "\n");
  }

  // The oracle keeps its machines' counters to itself, so the simulated
  // cost is measured apart, untimed: every program at the first (-O2)
  // configuration of the matrix on its grid, counting the rows the check
  // compares. The native engine retires the same counters faster.
  const driver::CompilerOptions O2 = driver::ablationMatrix().front().Opts;
  uint64_t Insns = 0, Words = 0;
  for (const GeneratedProgram &P : Range) {
    ir::Module M;
    auto Out = driver::compileSource(M, P.Source, O2);
    if (!Out.Ok)
      fatal("oracle program does not compile at -O2: " + Out.Error);
    Words += codeWords(Out.Program);
    runGrid(Out.Program, M, P, vm::Engine::Native, interpretGrid(P), Insns);
  }

  addTimingMetrics(Res, Log);
  Res.add("peak_rss_mb", PeakMb, "MiB");
  Res.add("sim_insns_per_op", static_cast<double>(Insns) / Range.size(), "count");
  Res.add("code_words", static_cast<double>(Words), "count");
  addSetupMetric(Res, Setups);
  return Res;
}

} // namespace perfbench
