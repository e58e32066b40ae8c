//===- perfbench/src/WorkloadCompile.cpp - The compile workload -----------===//
//
// A cold, memo-free, remark-free compile of a seeded corpus at -O2 --cse:
// one operation is driver::compileSource from source text to a linked
// program, the path an s1lispc user pays per file.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Kernels.h"
#include "Workloads.h"

#include <cstdio>
#include <memory>

using namespace s1lisp;

namespace perfbench {

RunResult runCompile(const Options &O) {
  PinnedToOneCpu Pin; // jobs 1: one thread does all the work
  RunResult Res;
  const std::vector<CorpusItem> Corpus = compileCorpus(O.Seed);
  const driver::CompilerOptions Opts = o2Cse();

  // Set-up an s1lispc user pays per file: process start through the
  // compile of a minimal file.
  std::vector<double> Setups = processSetupTimes(
      {O.BinDir + "/s1lispc", "examples/exptl.lisp"});

  // One untimed round fills the allocator's free lists and fixes the code
  // size every timed compile of a module must reproduce.
  std::vector<uint64_t> Words(Corpus.size());
  uint64_t TotalWords = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    ir::Module M;
    auto Out = driver::compileSource(M, Corpus[I].P.Source, Opts);
    if (!Out.Ok)
      fatal(Corpus[I].Name + " does not compile: " + Out.Error);
    Words[I] = codeWords(Out.Program);
    TotalWords += Words[I];
  }

  OpLog Log;
  const double Cpu0 = selfCpuSeconds();
  const auto Start = Clock::now();
  for (uint64_t Round = 0; keepGoing(Start, O.Seconds, Log.LatencyMs.size());
       ++Round) {
    for (size_t I = 0; I < Corpus.size(); ++I) {
      ir::Module M;
      auto T0 = Clock::now();
      auto Out = driver::compileSource(M, Corpus[I].P.Source, Opts);
      Log.LatencyMs.push_back(msSince(T0));
      ++Res.Attempted;
      if (!Out.Ok) {
        ++Res.Failed;
        continue;
      }
      requireRepeat("code_words of " + Corpus[I].Name, Words[I],
                    codeWords(Out.Program), Round);
    }
  }
  Log.WallSeconds = msSince(Start) / 1000.0;
  Log.CpuSeconds = selfCpuSeconds() - Cpu0;
  // Read before the checks below, whose interpreters and machines are the
  // benchmark's, not the compiler's.
  const double PeakMb = selfPeakRssMb();

  // The outputs, checked after the window: every generated module by the
  // differential oracle (fuzz::checkProgram) against the interpreter at
  // this workload's one configuration, the examples against their closed
  // forms. Simulated cost is counted on the examples only: a generated
  // module's rows run from a few instructions to the fuel limit, so their
  // count would be the seed's, not the compiler's.
  fuzz::OracleOptions Check;
  Check.Configs = {{"O2+cse", Opts}};
  uint64_t Insns = 0, Examples = 0;
  for (const CorpusItem &C : Corpus) {
    if (C.Generated) {
      const fuzz::CheckResult R = fuzz::checkProgram(C.P, Check);
      if (R.St == fuzz::CheckResult::Status::Agree)
        continue;
      Res.Correct = false;
      if (R.St == fuzz::CheckResult::Status::ConvertError)
        fprintf(stderr, "s1bench: %s does not convert: %s\n", C.Name.c_str(),
                R.ConvertMessage.c_str());
      for (const fuzz::Divergence &D : R.Divergences)
        fprintf(stderr, "s1bench: %s row %zu: compiled %s, interpreter %s\n",
                C.Name.c_str(), D.ArgIndex, D.Actual.Text.c_str(),
                D.Reference.Text.c_str());
      continue;
    }
    ++Examples;
    ir::Module M;
    auto Out = driver::compileSource(M, C.P.Source, Opts);
    if (!Out.Ok)
      fatal(C.Name + " does not compile in the check: " + Out.Error);
    const Outcome Act = runGrid(Out.Program, M, C.P, vm::Engine::Threaded,
                                {Outcome::value(C.Expected)}, Insns)[0];
    if (Act.K != Outcome::Kind::Value || !sameNumber(Act.Text, C.Expected)) {
      fprintf(stderr, "s1bench: %s returned %s, closed form %s\n",
              C.Name.c_str(), Act.Text.c_str(), C.Expected.c_str());
      Res.Correct = false;
    }
  }

  addTimingMetrics(Res, Log);
  Res.add("peak_rss_mb", PeakMb, "MiB");
  Res.add("sim_insns_per_op", static_cast<double>(Insns) / Examples, "count");
  Res.add("code_words", static_cast<double>(TotalWords), "count");
  addSetupMetric(Res, Setups);
  return Res;
}

} // namespace perfbench
