//===- tests/opt/IncrementalAnalysisTest.cpp ------------------------------===//
//
// Equivalence of the incremental re-analysis machinery against the
// recompute-the-world baseline, over generated programs:
//
//  * VerifyAnalysis cross-checks the dirty-spine caches (referent lists,
//    effects, complexity) against a full recompute after every optimizer
//    pass, and each remark's shared "Before" text against the form after
//    every rule that did not apply, aborting on divergence;
//  * independently, both analysis modes must reach the same optimized
//    tree, checked through the back-translator.
//
//===----------------------------------------------------------------------===//

#include "frontend/Convert.h"
#include "fuzz/Generator.h"
#include "ir/BackTranslate.h"
#include "opt/Cse.h"
#include "opt/MetaEval.h"
#include "sexpr/Printer.h"

#include "gtest/gtest.h"

using namespace s1lisp;

namespace {

constexpr unsigned BatchSize = 30;
constexpr uint32_t FirstSeed = 2000;
constexpr uint32_t NumSeeds = 300;

std::string moduleText(ir::Module &M) {
  std::string Out;
  for (auto &F : M.functions()) {
    Out += sexpr::toString(ir::backTranslateFunction(*F));
    Out += '\n';
  }
  return Out;
}

class IncrementalAnalysis : public ::testing::TestWithParam<unsigned> {};

TEST_P(IncrementalAnalysis, MatchesFullRecomputeOnFuzzPrograms) {
  for (uint32_t Seed = GetParam(); Seed < GetParam() + BatchSize; ++Seed) {
    fuzz::Generator G(Seed);
    fuzz::GeneratedProgram P = G.generate();
    ir::Module Base;
    DiagEngine Diags;
    ASSERT_TRUE(frontend::convertSource(Base, P.Source, Diags))
        << "seed " << Seed << ": " << Diags.str();

    // Run 1: incremental caches, with the after-every-pass cross-check on.
    // A stale referent list / cached effect aborts inside the optimizer, as
    // does a rule that returns null after changing the form (checked only
    // while remarks are being recorded).
    ir::Module Incr;
    Base.clone(Incr);
    opt::OptOptions Checked;
    Checked.VerifyAnalysis = true;
    stats::RemarkStream Remarks;
    for (auto &F : Incr.functions()) {
      opt::metaEvaluate(*F, Checked, &Remarks);
      opt::eliminateCommonSubexpressions(*F, {}, &Remarks);
    }

    // Run 2: the baseline that recomputes analysis every pass. Both modes
    // must converge on the same tree.
    ir::Module Full;
    Base.clone(Full);
    opt::OptOptions Baseline;
    Baseline.IncrementalAnalysis = false;
    for (auto &F : Full.functions()) {
      opt::metaEvaluate(*F, Baseline, nullptr);
      opt::eliminateCommonSubexpressions(*F, {}, nullptr);
    }

    EXPECT_EQ(moduleText(Incr), moduleText(Full))
        << "seed " << Seed << " optimized differently\n"
        << P.Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalAnalysis,
                         ::testing::Range(FirstSeed, FirstSeed + NumSeeds,
                                          BatchSize));

} // namespace
