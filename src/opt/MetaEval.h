//===- opt/MetaEval.h - Source-level optimizer ------------------*- C++ -*-===//
///
/// \file
/// The source-to-source transformation phase of §5: the lambda-calculus
/// beta-conversion rules (in the paper's three-rule formulation), the
/// nested-if distribution that yields boolean short-circuiting as a special
/// case, compile-time expression evaluation, dead-code elimination,
/// table-driven associative/commutative canonicalization and identity
/// elimination, and the machine-inspired sin$f→sinc$f rewrite.
///
/// Every transformed tree remains back-translatable to source; when a log
/// is supplied, each rewrite is recorded in the paper's transcript style:
///
///   ;**** Optimizing this form: (+$f a b c)
///   ;**** to be this form: (+$f (+$f c b) a)
///   ;**** courtesy of META-EVALUATE-ASSOC-COMMUT-CALL
///
/// Without a log nothing is rendered. With one, a node's "Optimizing this
/// form" text is rendered once per round of rules tried on it and shared
/// by all of them; "to be this form" is rendered only when a rule applies.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_OPT_METAEVAL_H
#define S1LISP_OPT_METAEVAL_H

#include "ir/Ir.h"
#include "stats/Remark.h"

namespace s1lisp {
namespace opt {

/// Per-technique switches so the benchmark harness can ablate each one.
struct OptOptions {
  bool Substitute = true;    ///< the three beta-conversion rules (§5)
  bool IfDistribute = true;  ///< (if (if x y z) v w) distribution
  bool ConstantFold = true;  ///< compile-time expression evaluation
  bool AssocCommut = true;   ///< n-ary→binary + constant-first reordering
  bool IdentityElim = true;  ///< (op x identity) => x
  bool RedundantTest = true; ///< (if p (if p x y) z) => (if p x z)
  bool MachineTrig = true;   ///< sin$f => sinc$f (S-1 SIN takes cycles)
  bool DeadCode = true;      ///< constant if/caseq pruning, progn cleanup
  /// Complexity cap for substituting one pure expression into several
  /// reference sites (the paper's conservative duplication heuristics).
  unsigned DuplicationLimit = 4;
  unsigned MaxPasses = 100;
  /// Maintain variable referent lists and cached per-node effects /
  /// complexity incrementally across rewrites (dirty spines from each
  /// changed node to the root) instead of recomputing the whole tree every
  /// pass. Off is the recompute-the-world baseline that
  /// bench_compile_throughput compares against.
  bool IncrementalAnalysis = true;
  /// Cross-check the incremental caches against a full recompute after
  /// every pass; also enabled by the S1LISP_VERIFY_ANALYSIS environment
  /// variable. With a remark log, also check after every rule that did not
  /// apply that its form is unchanged. Divergence aborts.
  bool VerifyAnalysis = false;
  /// Test-only fault injection: folded constant fixnum additions come out
  /// off by one. Exists so the differential fuzzer's delta-debugging
  /// reducer has a real, deterministic miscompile to find and shrink;
  /// never set it outside that harness.
  bool FaultConstantFold = false;
};

/// Runs the source-level optimizer to a fixpoint (bounded by MaxPasses).
/// Returns the number of rewrites applied. The tree is left analyzed,
/// verified, and back-translatable. When \p Remarks is given, every
/// rewrite is recorded as a structured stats::Remark (rendered in the
/// paper's ";**** courtesy of" style by RemarkStream::str()).
unsigned metaEvaluate(ir::Function &F, const OptOptions &Opts = {},
                      stats::RemarkStream *Remarks = nullptr);

} // namespace opt
} // namespace s1lisp

#endif // S1LISP_OPT_METAEVAL_H
