//===- tests/ir/NodeArenaTest.cpp -----------------------------------------===//
//
// The bump arena backing IR nodes: allocation/destruction bookkeeping,
// move semantics, and Function::reclaim compaction preserving tree
// identity.
//
//===----------------------------------------------------------------------===//

#include "frontend/Convert.h"
#include "ir/BackTranslate.h"
#include "ir/Ir.h"
#include "sexpr/Printer.h"
#include "support/Arena.h"

#include "gtest/gtest.h"

using namespace s1lisp;

namespace {

struct Counting {
  static int Live;
  std::vector<int> Payload{1, 2, 3}; // non-trivial dtor
  Counting() { ++Live; }
  ~Counting() { --Live; }
};
int Counting::Live = 0;

TEST(NodeArena, CreatesAndDestroysInBulk) {
  {
    NodeArena A;
    for (int I = 0; I < 100; ++I)
      A.create<Counting>();
    EXPECT_EQ(Counting::Live, 100);
    EXPECT_EQ(A.size(), 100u);
    EXPECT_GE(A.allocatedBytes(), 100 * sizeof(Counting));
  }
  EXPECT_EQ(Counting::Live, 0) << "arena death must run destructors";
}

TEST(NodeArena, MoveTransfersOwnership) {
  NodeArena A;
  Counting *P = A.create<Counting>();
  EXPECT_EQ(P->Payload.size(), 3u);
  NodeArena B(std::move(A));
  EXPECT_EQ(B.size(), 1u);
  EXPECT_EQ(A.size(), 0u);
  EXPECT_EQ(Counting::Live, 1) << "move must not destroy";
  NodeArena C;
  C.create<Counting>();
  C = std::move(B);
  EXPECT_EQ(Counting::Live, 1) << "move-assign destroys the old contents";
  EXPECT_EQ(C.size(), 1u);
}

TEST(NodeArena, SpansChunkBoundaries) {
  NodeArena A;
  struct Big {
    char Bytes[10000];
  };
  std::vector<Big *> Ptrs;
  for (int I = 0; I < 20; ++I) // 200 KB, several 64 KB chunks
    Ptrs.push_back(A.create<Big>());
  for (Big *P : Ptrs) {
    P->Bytes[0] = 'x'; // every pointer stays valid as chunks grow
    P->Bytes[sizeof(P->Bytes) - 1] = 'y';
  }
  EXPECT_EQ(A.size(), 20u);
}

TEST(NodeArena, ReclaimPreservesFunction) {
  // reclaim() copies the live tree into a fresh arena and drops the old
  // one; the function must read back identically and still verify.
  ir::Module M;
  DiagEngine Diags;
  ASSERT_TRUE(frontend::convertSource(
      M,
      "(defun f (a b)\n"
      "  (let ((x (+ a b)) (y (* a 2)))\n"
      "    (if (> x y) (cons x (list y \"big\")) (do ((i 0 (+ i 1)))\n"
      "        ((> i x) y) (setq y (+ y i))))))",
      Diags))
      << Diags.str();
  ir::Function &F = *M.lookup("f");
  std::string Before = sexpr::toString(ir::backTranslateFunction(F));
  size_t SizeBefore = ir::treeSize(F.Root);
  size_t ObjectsBefore = F.arenaObjects();

  size_t Freed = F.reclaim();
  (void)Freed;

  EXPECT_EQ(sexpr::toString(ir::backTranslateFunction(F)), Before);
  EXPECT_EQ(ir::treeSize(F.Root), SizeBefore);
  EXPECT_LE(F.arenaObjects(), ObjectsBefore);
  DiagEngine VerifyDiags;
  EXPECT_TRUE(ir::verify(F, VerifyDiags)) << VerifyDiags.str();
}

} // namespace
