//===- opt/MetaEval.cpp ---------------------------------------------------===//

#include "opt/MetaEval.h"

#include "analysis/Analysis.h"
#include "ir/BackTranslate.h"
#include "ir/Primitives.h"
#include "opt/Fold.h"
#include "sexpr/Printer.h"
#include "stats/Stats.h"

#include <cstdio>
#include <cstdlib>
#include <optional>

using namespace s1lisp;
using namespace s1lisp::opt;
using namespace s1lisp::ir;
using analysis::effectsOf;
using sexpr::Value;

S1_STAT(NumRewrites, "opt.metaeval.rewrites", "source-level rewrites applied");
S1_STAT(NumFolded, "opt.fold.folded", "calls evaluated at compile time");
S1_STAT(NumPasses, "opt.metaeval.passes", "meta-evaluator fixpoint passes");
S1_STAT(NumFunctions, "opt.metaeval.functions", "functions meta-evaluated");

namespace {

/// A let-like call suitable for the beta rules: a manifest lambda with only
/// required parameters and a matching argument count.
bool isSimpleLet(const CallNode *C) {
  const auto *L = dyn_cast<LambdaNode>(C->CalleeExpr);
  return L && L->Optionals.empty() && !L->Rest &&
         L->Required.size() == C->Args.size();
}

/// Collects the VarRef/Setq nodes for \p V inside \p Scope.
std::vector<Node *> collectRefs(Variable *V, Node *Scope) {
  std::vector<Node *> Refs;
  forEachNode(Scope, [&](Node *N) {
    if (auto *VR = dyn_cast<VarRefNode>(N)) {
      if (VR->Var == V)
        Refs.push_back(N);
    } else if (auto *SQ = dyn_cast<SetqNode>(N)) {
      if (SQ->Var == V)
        Refs.push_back(N);
    }
  });
  return Refs;
}

bool anyIsSetq(const std::vector<Node *> &Refs) {
  for (const Node *R : Refs)
    if (R->kind() == NodeKind::Setq)
      return true;
  return false;
}

/// True when \p Target is the very first thing evaluated when \p Root is
/// evaluated (used for the side-effecting-substitution rule of §5).
bool isFirstEvaluated(Node *Root, const Node *Target) {
  Node *Cur = Root;
  while (true) {
    if (Cur == Target)
      return true;
    switch (Cur->kind()) {
    case NodeKind::Progn: {
      auto *P = cast<PrognNode>(Cur);
      if (P->Forms.empty())
        return false;
      Cur = P->Forms.front();
      break;
    }
    case NodeKind::If:
      Cur = cast<IfNode>(Cur)->Test;
      break;
    case NodeKind::Setq:
      Cur = cast<SetqNode>(Cur)->ValueExpr;
      break;
    case NodeKind::Caseq:
      Cur = cast<CaseqNode>(Cur)->Key;
      break;
    case NodeKind::Catcher:
      Cur = cast<CatcherNode>(Cur)->TagExpr;
      break;
    case NodeKind::Return:
      Cur = cast<ReturnNode>(Cur)->ValueExpr;
      break;
    case NodeKind::ProgBody: {
      auto *P = cast<ProgBodyNode>(Cur);
      Node *First = nullptr;
      for (auto &I : P->Items)
        if (I.Stmt) {
          First = I.Stmt;
          break;
        }
      if (!First)
        return false;
      Cur = First;
      break;
    }
    case NodeKind::Call: {
      auto *C = cast<CallNode>(Cur);
      if (C->CalleeExpr && C->CalleeExpr->kind() != NodeKind::Lambda) {
        Cur = C->CalleeExpr;
        break;
      }
      if (!C->Args.empty()) {
        Cur = C->Args.front();
        break;
      }
      if (auto *L = dyn_cast<LambdaNode>(C->CalleeExpr)) {
        Cur = L->Body; // no args: the body runs immediately
        break;
      }
      return false;
    }
    case NodeKind::Literal:
    case NodeKind::VarRef:
    case NodeKind::Lambda:
    case NodeKind::Go:
      return false;
    }
  }
}

class MetaEvaluator {
public:
  MetaEvaluator(Function &F, const OptOptions &Opts, stats::RemarkStream *Log)
      : F(F), Opts(Opts), Log(Log),
        Verify(Opts.IncrementalAnalysis &&
               (Opts.VerifyAnalysis || analysis::verifyAnalysisRequested())) {}

  unsigned run() {
    unsigned Total = 0;
    for (unsigned Pass = 0; Pass < Opts.MaxPasses; ++Pass) {
      ++NumPasses;
      Changed = false;
      // Incremental mode establishes exact referent lists once and the
      // rules keep them exact; the baseline rebuilds them every pass.
      if (!Opts.IncrementalAnalysis || Pass == 0)
        recomputeVariableRefs(F);
      Node *NewBody = rewrite(F.Root->Body);
      if (NewBody != F.Root->Body) {
        F.Root->Body = NewBody;
        NewBody->Parent = F.Root;
        dirtySpine(F.Root);
      }
      for (auto &O : F.Root->Optionals) {
        Node *NewDefault = rewrite(O.Default);
        if (NewDefault != O.Default) {
          O.Default = NewDefault;
          NewDefault->Parent = F.Root;
          dirtySpine(F.Root);
        }
      }
      Total += PassRewrites;
      PassRewrites = 0;
      if (Verify)
        analysis::verifyIncremental(F);
      if (!Changed)
        break;
      // Tree surgery strands the replaced nodes in the arena; once the
      // garbage clearly dominates, compact into a fresh arena. Cheap
      // passes never pay for this: the byte check fails first.
      if (Opts.IncrementalAnalysis && F.arenaBytes() > 64 * 1024 &&
          F.arenaObjects() > 3 * treeSize(F.Root))
        F.reclaim();
    }
    recomputeParents(F.Root);
    analysis::analyze(F);
    return Total;
  }

private:
  Function &F;
  const OptOptions &Opts;
  stats::RemarkStream *Log;
  const bool Verify;
  bool Changed = false;
  unsigned PassRewrites = 0;

  void log(const char *Rule, const std::string &Before, const std::string &After,
           std::string Detail = "") {
    if (!Log)
      return;
    stats::Remark R;
    R.Phase = "opt.metaeval";
    R.Rule = Rule;
    R.Function = F.name();
    R.Before = Before;
    R.After = After;
    R.Detail = std::move(Detail);
    Log->remark(std::move(R));
  }

  std::string render(Node *N) { return backTranslateToString(F, N); }

  struct NamedRule {
    const char *Name;
    Node *(MetaEvaluator::*Fn)(Node *);
    bool Enabled;
  };

  /// Applies \p Rule to \p N; on success logs the rewrite and dirties the
  /// spine above the result. The replacement's parent chain still runs
  /// through the node it came out of (an extracted subtree) or is empty (a
  /// fresh node, whose attachment point replaceChild dirties), so walking
  /// it marks the real spine; rules that mutate *interior* nodes directly
  /// dirty those themselves.
  ///
  /// With a log attached, \p Before holds N's rendering, made on the first
  /// rule tried and shared by the later ones: a rule that returns null has
  /// left the tree untouched. Verify mode re-renders to check that.
  Node *apply(const NamedRule &Rule, Node *N,
              std::optional<std::string> &Before) {
    if (Log && !Before)
      Before = render(N);
    Node *R = (this->*(Rule.Fn))(N);
    if (!R) {
      if (Log && Verify && render(N) != *Before) {
        fprintf(stderr,
                "S1LISP_VERIFY_ANALYSIS: %s returned null but changed its "
                "form in '%s'\n",
                Rule.Name, F.name().c_str());
        abort();
      }
      return nullptr;
    }
    Changed = true;
    ++PassRewrites;
    dirtySpine(R);
    if (Log)
      log(Rule.Name, *Before, render(R), std::move(LastDetail));
    LastDetail.clear();
    return R;
  }
  /// Detail text of the last successful rule; only filled when logging.
  std::string LastDetail;

  /// Effect/complexity queries for the rules: cached-incremental when the
  /// option is on, the pure recursive walks otherwise.
  EffectInfo fx(Node *N) {
    return Opts.IncrementalAnalysis ? analysis::effectsOfCached(N)
                                    : analysis::effectsOf(N);
  }
  unsigned cx(Node *N) {
    return Opts.IncrementalAnalysis ? analysis::complexityOfCached(N)
                                    : analysis::complexityOf(N);
  }

  /// The referent nodes of \p V within \p Scope. Incremental mode reads
  /// the exactly-maintained back-pointer list (V is bound inside Scope, so
  /// all of its references live there); the baseline walks the tree, since
  /// its lists go stale between the per-pass recomputes.
  std::vector<Node *> refsOf(Variable *V, Node *Scope) {
    if (Opts.IncrementalAnalysis)
      return V->Refs;
    return collectRefs(V, Scope);
  }

  Node *rewrite(Node *N) {
    // Children first (post-order), so rules see simplified operands.
    rewriteChildren(N);

    bool Any = true;
    while (Any) {
      Any = false;
      const NamedRule Rules[] = {
          {"META-COMPILE-TIME-EVAL", &MetaEvaluator::tryConstantFold,
           Opts.ConstantFold},
          {"META-EVALUATE-ASSOC-COMMUT-CALL", &MetaEvaluator::tryAssocCommut,
           Opts.AssocCommut},
          {"META-EXPAND-NARY-CALL", &MetaEvaluator::tryExpandNary,
           Opts.AssocCommut},
          {"CONSIDER-REVERSING-ARGUMENTS", &MetaEvaluator::tryReverseArgs,
           Opts.AssocCommut},
          {"META-IDENTITY-ELIMINATION", &MetaEvaluator::tryIdentity,
           Opts.IdentityElim},
          {"META-SIN-TO-SINC", &MetaEvaluator::tryMachineTrig, Opts.MachineTrig},
          {"META-DEAD-CODE", &MetaEvaluator::tryDeadCode, Opts.DeadCode},
          {"META-REDUNDANT-TEST", &MetaEvaluator::tryRedundantTest,
           Opts.RedundantTest},
          {"META-IF-OF-PROGN", &MetaEvaluator::tryIfOfProgn, Opts.DeadCode},
          {"META-IF-OF-LET", &MetaEvaluator::tryIfOfLet, Opts.IfDistribute},
          {"META-DISTRIBUTE-NESTED-IF", &MetaEvaluator::tryIfDistribute,
           Opts.IfDistribute},
          {"META-PROGN-FLATTEN", &MetaEvaluator::tryPrognFlatten, Opts.DeadCode},
          {"META-CALL-LAMBDA", &MetaEvaluator::tryCallLambda, Opts.Substitute},
          {"META-DROP-UNUSED-ARGUMENT", &MetaEvaluator::tryDropUnused,
           Opts.Substitute},
          {"META-SUBSTITUTE", &MetaEvaluator::trySubstitute, Opts.Substitute},
      };
      // Shared by the rules of this round; a rule that applies ends it.
      std::optional<std::string> Before;
      for (const NamedRule &R : Rules) {
        if (!R.Enabled)
          continue;
        if (Node *New = apply(R, N, Before)) {
          N = New;
          Any = true;
          break;
        }
      }
    }
    return N;
  }

  void rewriteChildren(Node *N) {
    std::vector<Node *> Children;
    forEachChild(N, [&Children](Node *C) { Children.push_back(C); });
    for (Node *C : Children) {
      Node *NewC = rewrite(C);
      if (NewC != C)
        replaceChild(N, C, NewC);
    }
  }

  //===--------------------------------------------------------------------===//
  // Rules (each returns the replacement node, or null when inapplicable)
  //
  // A rule that returns null must leave the tree untouched; apply() relies
  // on it and checks it in verify mode.
  //===--------------------------------------------------------------------===//

  /// ((lambda () body)) => body  — the first beta rule of §5.
  Node *tryCallLambda(Node *N) {
    auto *C = dyn_cast<CallNode>(N);
    if (!C || !C->CalleeExpr)
      return nullptr;
    auto *L = dyn_cast<LambdaNode>(C->CalleeExpr);
    if (!L || !L->Required.empty() || !L->Optionals.empty() || L->Rest ||
        !C->Args.empty())
      return nullptr;
    return L->Body;
  }

  /// Second beta rule: drop (vj, aj) pairs where vj is unreferenced and aj
  /// has no side effects "except possibly heap-allocation".
  Node *tryDropUnused(Node *N) {
    auto *C = dyn_cast<CallNode>(N);
    if (!C || !C->CalleeExpr || !isSimpleLet(C))
      return nullptr;
    auto *L = cast<LambdaNode>(C->CalleeExpr);
    bool Dropped = false;
    for (size_t J = L->Required.size(); J > 0; --J) {
      size_t I = J - 1;
      Variable *V = L->Required[I];
      // A special parameter is a dynamic binding: references reach it
      // through the deep-binding stack, not through this Variable.
      if (V->isSpecial())
        continue;
      if (!refsOf(V, L->Body).empty())
        continue;
      if (!fx(C->Args[I]).eliminable())
        continue;
      detachSubtree(C->Args[I]);
      L->Required.erase(L->Required.begin() + I);
      C->Args.erase(C->Args.begin() + I);
      Dropped = true;
    }
    return Dropped ? N : nullptr;
  }

  /// Third + second beta rules: substitute an argument expression for the
  /// occurrences of its variable when the §5 side conditions hold.
  Node *trySubstitute(Node *N) {
    auto *C = dyn_cast<CallNode>(N);
    if (!C || !C->CalleeExpr || !isSimpleLet(C))
      return nullptr;
    auto *L = cast<LambdaNode>(C->CalleeExpr);

    for (size_t J = 0; J < L->Required.size(); ++J) {
      Variable *V = L->Required[J];
      if (V->isSpecial())
        continue;
      Node *Arg = C->Args[J];
      std::vector<Node *> Refs = refsOf(V, L->Body);
      if (Refs.empty() || anyIsSetq(Refs))
        continue;

      EffectInfo ArgFx = fx(Arg);
      bool CanSubstitute = false;

      // Constants and stable variable references substitute anywhere.
      if (Arg->kind() == NodeKind::Literal) {
        CanSubstitute = true;
      } else if (auto *VR = dyn_cast<VarRefNode>(Arg)) {
        CanSubstitute = !VR->Var->isSpecial() && !VR->Var->Written;
      } else if (Arg->kind() == NodeKind::Lambda && Refs.size() == 1) {
        // Procedure integration: a lambda referred to in one place.
        CanSubstitute = true;
      } else if (ArgFx.pure() &&
                 (Refs.size() == 1 || cx(Arg) <= Opts.DuplicationLimit)) {
        CanSubstitute = true;
      } else if (Refs.size() == 1 && isFirstEvaluated(L->Body, Refs[0])) {
        // Side-effecting argument with a single reference that is the first
        // thing the body evaluates; later arguments must commute with it so
        // evaluation order is preserved.
        bool Commutes = true;
        for (size_t K = J + 1; K < C->Args.size(); ++K)
          Commutes &= ArgFx.commutesWith(fx(C->Args[K]));
        CanSubstitute = Commutes;
      }
      if (!CanSubstitute)
        continue;

      for (size_t R = 0; R < Refs.size(); ++R) {
        Node *Replacement =
            R + 1 == Refs.size() ? Arg : cloneTree(F, Arg);
        replaceChild(Refs[R]->Parent, Refs[R], Replacement);
      }
      // Every collected ref was a read (anyIsSetq vetoed writes) and has
      // just been replaced, so the variable is now referenced nowhere.
      V->Refs.clear();
      V->Written = false;
      L->Required.erase(L->Required.begin() + J);
      C->Args.erase(C->Args.begin() + J);
      if (Log)
        LastDetail = std::to_string(Refs.size()) + " substitution" +
                     (Refs.size() == 1 ? "" : "s") + " for the variable " +
                     V->name()->name() + " by " + render(Arg);
      return N;
    }
    return nullptr;
  }

  /// Compile-time expression evaluation on constant operands.
  Node *tryConstantFold(Node *N) {
    auto *C = dyn_cast<CallNode>(N);
    if (!C || !C->Name)
      return nullptr;
    const PrimInfo *P = lookupPrim(C->Name);
    if (!P || !P->Foldable)
      return nullptr;
    std::vector<Value> Args;
    for (Node *A : C->Args) {
      auto *Lit = dyn_cast<LiteralNode>(A);
      if (!Lit)
        return nullptr;
      Args.push_back(Lit->Datum);
    }
    auto R = foldPrim(*P, Args, F.dataHeap(), F.symbols());
    if (!R)
      return nullptr;
    if (Opts.FaultConstantFold && P->Op == Prim::Add && R->isFixnum())
      R = Value::fixnum(R->fixnum() + 1);
    ++NumFolded;
    return F.makeLiteral(*R);
  }

  /// N-ary associative calls become compositions of two-argument calls,
  /// in the paper's right-to-left order: (+$f a b c) => (+$f (+$f c b) a).
  Node *tryAssocCommut(Node *N) {
    auto *C = dyn_cast<CallNode>(N);
    if (!C || !C->Name || C->Args.size() <= 2)
      return nullptr;
    const PrimInfo *P = lookupPrim(C->Name);
    if (!P || !P->Assoc || !P->Commut)
      return nullptr;
    size_t NArgs = C->Args.size();
    Node *Acc = F.makeCall(C->Name, {C->Args[NArgs - 1], C->Args[NArgs - 2]});
    for (size_t J = NArgs - 2; J > 0; --J)
      Acc = F.makeCall(C->Name, {Acc, C->Args[J - 1]});
    return Acc;
  }

  /// Non-commutative n-ary subtraction/division become left-nested binary
  /// calls; unary forms become explicit negation/reciprocal.
  Node *tryExpandNary(Node *N) {
    auto *C = dyn_cast<CallNode>(N);
    if (!C || !C->Name)
      return nullptr;
    const PrimInfo *P = lookupPrim(C->Name);
    if (!P)
      return nullptr;
    bool IsSub = P->Op == Prim::Sub || P->Op == Prim::FSub || P->Op == Prim::XSub;
    bool IsDiv = P->Op == Prim::Div || P->Op == Prim::FDiv;
    if (!IsSub && !IsDiv)
      return nullptr;
    if (C->Args.size() > 2) {
      Node *Acc = F.makeCall(C->Name, {C->Args[0], C->Args[1]});
      for (size_t J = 2; J < C->Args.size(); ++J)
        Acc = F.makeCall(C->Name, {Acc, C->Args[J]});
      return Acc;
    }
    if (C->Args.size() == 1 && IsSub) {
      Prim NegOp = P->Op == Prim::Sub    ? Prim::Neg
                   : P->Op == Prim::FSub ? Prim::FNeg
                                         : Prim::XNeg;
      return F.makeCall(F.symbols().intern(primInfo(NegOp).Name), {C->Args[0]});
    }
    if (C->Args.size() == 1 && IsDiv) {
      Node *One = F.makeLiteral(P->Op == Prim::FDiv ? Value::flonum(1.0)
                                                    : Value::fixnum(1));
      return F.makeCall(C->Name, {One, C->Args[0]});
    }
    return nullptr;
  }

  /// "By convention constant arguments are put first where possible."
  Node *tryReverseArgs(Node *N) {
    auto *C = dyn_cast<CallNode>(N);
    if (!C || !C->Name || C->Args.size() != 2)
      return nullptr;
    const PrimInfo *P = lookupPrim(C->Name);
    if (!P || !P->Commut)
      return nullptr;
    if (C->Args[0]->kind() == NodeKind::Literal ||
        C->Args[1]->kind() != NodeKind::Literal)
      return nullptr;
    std::swap(C->Args[0], C->Args[1]);
    return N;
  }

  /// Table-driven elimination of identity operands.
  Node *tryIdentity(Node *N) {
    auto *C = dyn_cast<CallNode>(N);
    if (!C || !C->Name || C->Args.size() != 2)
      return nullptr;
    const PrimInfo *P = lookupPrim(C->Name);
    if (!P || (!P->FixIdentity && !P->FloatIdentity))
      return nullptr;

    auto IsIdentity = [P](const Node *A) {
      const auto *Lit = dyn_cast<LiteralNode>(A);
      if (!Lit)
        return false;
      if (P->FixIdentity && Lit->Datum.isFixnum())
        return Lit->Datum.fixnum() == *P->FixIdentity;
      if (P->FloatIdentity && Lit->Datum.isFlonum())
        return Lit->Datum.flonum() == *P->FloatIdentity;
      return false;
    };
    // For the raw-float operators, dropping the operation also drops the
    // float coercion, so the surviving operand must already be a float.
    auto FloatSafe = [P, this](const Node *Other) {
      if (P->ArgRep != Rep::SWFLO)
        return true;
      if (const auto *Lit = dyn_cast<LiteralNode>(Other))
        return Lit->Datum.isFlonum();
      if (const auto *OC = dyn_cast<CallNode>(Other); OC && OC->Name) {
        const PrimInfo *OP = lookupPrim(OC->Name);
        return OP && OP->ResultRep == Rep::SWFLO;
      }
      (void)this;
      return false;
    };

    if (IsIdentity(C->Args[0]) && FloatSafe(C->Args[1]))
      return C->Args[1];
    if (IsIdentity(C->Args[1]) && FloatSafe(C->Args[0]))
      return C->Args[0];
    return nullptr;
  }

  /// sin$f/cos$f take radians; the S-1 SIN instruction takes cycles.
  Node *tryMachineTrig(Node *N) {
    auto *C = dyn_cast<CallNode>(N);
    if (!C || !C->Name || C->Args.size() != 1)
      return nullptr;
    const PrimInfo *P = lookupPrim(C->Name);
    if (!P || (P->Op != Prim::FSin && P->Op != Prim::FCos))
      return nullptr;
    // 0.159154942 is the paper's single-precision approximation to 1/2pi.
    // The constant is emitted second; CONSIDER-REVERSING-ARGUMENTS then
    // moves it first, exactly as in the §7 transcript.
    Node *Scaled = F.makeCall(
        F.symbols().intern("*$f"),
        {C->Args[0], F.makeLiteral(Value::flonum(0.159154942))});
    const char *Cyc = P->Op == Prim::FSin ? "sinc$f" : "cosc$f";
    return F.makeCall(F.symbols().intern(Cyc), {Scaled});
  }

  /// Constant-predicate if/caseq pruning.
  Node *tryDeadCode(Node *N) {
    if (auto *I = dyn_cast<IfNode>(N)) {
      auto *Lit = dyn_cast<LiteralNode>(I->Test);
      if (!Lit)
        return nullptr;
      Node *Taken = Lit->Datum.isNil() ? I->Else : I->Then;
      detachSubtree(Lit->Datum.isNil() ? I->Then : I->Else);
      return Taken;
    }
    if (auto *C = dyn_cast<CaseqNode>(N)) {
      auto *Key = dyn_cast<LiteralNode>(C->Key);
      if (!Key)
        return nullptr;
      Node *Taken = C->Default;
      for (auto &Cl : C->Clauses) {
        bool Match = false;
        for (Value K : Cl.Keys)
          Match |= sexpr::eql(K, Key->Datum);
        if (Match) {
          Taken = Cl.Body;
          break;
        }
      }
      for (auto &Cl : C->Clauses)
        if (Cl.Body != Taken)
          detachSubtree(Cl.Body);
      if (C->Default != Taken)
        detachSubtree(C->Default);
      return Taken;
    }
    return nullptr;
  }

  /// (if p (if p x y) z) => (if p x z) for a pure, repeatable test
  /// ("realizing that b is true in the inner if by virtue of the outer").
  Node *tryRedundantTest(Node *N) {
    auto *I = dyn_cast<IfNode>(N);
    if (!I || !fx(I->Test).duplicable())
      return nullptr;
    if (auto *TI = dyn_cast<IfNode>(I->Then)) {
      if (analysis::equalTrees(TI->Test, I->Test) &&
          fx(TI->Test).duplicable()) {
        detachSubtree(TI->Test);
        detachSubtree(TI->Else);
        replaceChild(I, I->Then, TI->Then);
        return N;
      }
    }
    if (auto *EI = dyn_cast<IfNode>(I->Else)) {
      if (analysis::equalTrees(EI->Test, I->Test) &&
          fx(EI->Test).duplicable()) {
        detachSubtree(EI->Test);
        detachSubtree(EI->Then);
        replaceChild(I, I->Else, EI->Else);
        return N;
      }
    }
    return nullptr;
  }

  /// (if (progn a .. p) x y) => (progn a .. (if p x y))
  Node *tryIfOfProgn(Node *N) {
    auto *I = dyn_cast<IfNode>(N);
    if (!I)
      return nullptr;
    auto *P = dyn_cast<PrognNode>(I->Test);
    if (!P || P->Forms.empty())
      return nullptr;
    Node *Last = P->Forms.back();
    P->Forms.pop_back();
    replaceChild(I, I->Test, Last);
    // P moves from under I to above it; break the stale back-link first so
    // the spine walk below cannot cycle I -> P -> I.
    P->Parent = I->Parent;
    P->Forms.push_back(I);
    I->Parent = P;
    dirtySpine(I);
    return P;
  }

  /// (if ((lambda (v..) p) a..) x y) => ((lambda (v..) (if p x y)) a..)
  /// — "valid only because all variables have been uniformly renamed".
  Node *tryIfOfLet(Node *N) {
    auto *I = dyn_cast<IfNode>(N);
    if (!I)
      return nullptr;
    auto *C = dyn_cast<CallNode>(I->Test);
    if (!C || !C->CalleeExpr || !isSimpleLet(C))
      return nullptr;
    auto *L = cast<LambdaNode>(C->CalleeExpr);
    Node *P = L->Body;
    IfNode *NewIf = F.makeIf(P, I->Then, I->Else);
    L->Body = NewIf;
    NewIf->Parent = L;
    dirtySpine(L);
    return C;
  }

  /// The §5 nested-if transformation:
  ///   (if (if x y z) v w) =>
  ///   ((lambda (f g) (if x (if y (f) (g)) (if z (f) (g))))
  ///    (lambda () v) (lambda () w))
  /// "The functions f and g are introduced to avoid space-wasting
  /// duplication of the code for v and w."
  Node *tryIfDistribute(Node *N) {
    auto *I = dyn_cast<IfNode>(N);
    if (!I)
      return nullptr;
    auto *Inner = dyn_cast<IfNode>(I->Test);
    if (!Inner)
      return nullptr;

    LambdaNode *Outer = F.makeLambda();
    Variable *Fv = F.makeVariable(F.symbols().intern("f"));
    Variable *Gv = F.makeVariable(F.symbols().intern("g"));
    Fv->Binder = Outer;
    Gv->Binder = Outer;
    Outer->Required = {Fv, Gv};

    auto CallThunk = [&](Variable *V) {
      return F.makeCallExpr(F.makeVarRef(V), {});
    };
    Node *ThenArm = F.makeIf(Inner->Then, CallThunk(Fv), CallThunk(Gv));
    Node *ElseArm = F.makeIf(Inner->Else, CallThunk(Fv), CallThunk(Gv));
    Outer->Body = F.makeIf(Inner->Test, ThenArm, ElseArm);
    Outer->Body->Parent = Outer;

    LambdaNode *ThunkV = F.makeLambda();
    ThunkV->Body = I->Then;
    I->Then->Parent = ThunkV;
    LambdaNode *ThunkW = F.makeLambda();
    ThunkW->Body = I->Else;
    I->Else->Parent = ThunkW;

    return F.makeCallExpr(Outer, {ThunkV, ThunkW});
  }

  /// progn cleanup: flatten nesting, drop effect-free non-final forms,
  /// unwrap singletons.
  Node *tryPrognFlatten(Node *N) {
    auto *P = dyn_cast<PrognNode>(N);
    if (!P)
      return nullptr;
    bool Mutated = false;

    std::vector<Node *> Flat;
    for (Node *FormN : P->Forms) {
      if (auto *Inner = dyn_cast<PrognNode>(FormN)) {
        for (Node *C : Inner->Forms)
          Flat.push_back(C);
        Mutated = true;
      } else {
        Flat.push_back(FormN);
      }
    }
    std::vector<Node *> Kept;
    for (size_t J = 0; J < Flat.size(); ++J) {
      bool IsLast = J + 1 == Flat.size();
      if (!IsLast && fx(Flat[J]).eliminable()) {
        detachSubtree(Flat[J]);
        Mutated = true;
        continue;
      }
      Kept.push_back(Flat[J]);
    }
    if (Kept.empty())
      return F.makeNil();
    if (Kept.size() == 1)
      return Kept.front();
    if (!Mutated)
      return nullptr;
    P->Forms = std::move(Kept);
    for (Node *C : P->Forms)
      C->Parent = P;
    return P;
  }
};

} // namespace

unsigned opt::metaEvaluate(Function &F, const OptOptions &Opts,
                           stats::RemarkStream *Remarks) {
  stats::PhaseTimer Timer("opt.metaeval");
  ++NumFunctions;
  MetaEvaluator M(F, Opts, Remarks);
  unsigned N = M.run();
  NumRewrites += N;
  DiagEngine Diags;
  [[maybe_unused]] bool Clean = verify(F, Diags);
  assert(Clean && "optimizer broke tree invariants");
  return N;
}
