//===- vm/Predecode.h - Pre-decoded internal program form -------*- C++ -*-===//
///
/// \file
/// Lowers an assembled s1::Program into the dense internal form executed
/// by the simulator's threaded dispatch engine:
///
///  * LABEL pseudo-ops are stripped and every branch target is resolved to
///    a decoded instruction index, so the hot loop never skips pseudo-ops;
///  * operand addressing modes are specialized into fused handler variants
///    (MovRR, MovRK, PushM, JmpzRK, ...) so the per-operand mode switch of
///    the legacy interpreter disappears from the hot path — immediates,
///    including float immediates, are pre-folded into raw machine words;
///  * catch handler labels and call targets are resolved at decode time.
///
/// Decoding is a pure function of the Program; a DecodedProgram is
/// immutable after construction and can be shared (shared_ptr) by any
/// number of Machines running concurrently, which is how the parallel
/// differential fuzzer amortizes decode cost across an argument grid.
///
/// The decoded form preserves the architectural counter semantics of the
/// legacy engine exactly: each decoded instruction remembers its original
/// opcode for the PerOpcode histogram, and the decoded index of "one past
/// the last real instruction" reproduces the legacy "pc out of range"
/// trap for control that falls off the end through trailing labels.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_VM_PREDECODE_H
#define S1LISP_VM_PREDECODE_H

#include "s1/Isa.h"

#include <memory>
#include <vector>

namespace s1lisp {
namespace vm {

/// Fused handler selectors. Naming: operand shapes are R (register),
/// K (constant word, immediates pre-folded), M (memory base+displacement),
/// X (memory base+displacement+scaled index), G (generic pre-decoded
/// operand, for the cold opcodes).
enum class XOp : uint8_t {
  // MOV dst,src — the §6.1 workhorse, fully split by mode pair.
  MovRR, MovRK, MovRM, MovRX,
  MovMR, MovMK, MovMM, MovMX,
  MovXR, MovXK, MovXM, MovXX,
  // Stack traffic.
  PushR, PushK, PushM, PushX,
  PopR, PopM,
  // Integer ALU: two-op register destination forms are hot (SP bumps,
  // loop counters); everything else goes through the generic forms.
  AddRR, AddRK, SubRR, SubRK,
  Alu2G, Alu3G,
  // Conditional/unconditional control, targets pre-resolved.
  Jmp, JmpzRR, JmpzRK, JmpzG, FJmpzG,
  Call, CallPtr, TailCall, TailCallPtr, Ret,
  // Cold ops, executed over generic pre-decoded operands.
  MovTag, GetTag, Lea,
  FAlu2, FAlu3, FUnary, FAtan, Itof, Ftoi,
  Alloc, Syscall, Halt,
};

/// A pre-decoded memory reference: base register + word displacement
/// [+ index register << scale].
struct XMem {
  uint8_t Base = 0;
  uint8_t Index = 0xFF; ///< 0xFF = none
  uint8_t Scale = 0;
  int64_t Disp = 0;
};

/// A generic pre-decoded operand for the cold handlers: the mode switch
/// is down to four dense cases (no Label/None), and immediates — float
/// immediates included — are already raw words.
struct XArg {
  enum class Mode : uint8_t { Reg, Const, Mem, None } M = Mode::None;
  uint8_t R = 0;
  uint64_t K = 0;
  XMem Mem;
};

/// One decoded instruction. Hot fused handlers read only the leading
/// fields; the XArg tail serves the cold generic handlers.
struct XInsn {
  XOp Op = XOp::Halt;
  s1::Opcode OrigOp = s1::Opcode::HALT; ///< for the PerOpcode histogram
  s1::Cond C = s1::Cond::EQ;
  uint8_t Sub = 0;   ///< ALU/float sub-opcode (the original Opcode)
  uint8_t A = 0;     ///< fused register field (dst)
  uint8_t B = 0;     ///< fused register field (src)
  int32_t Target = -1; ///< decoded branch target / callee / catch handler
  uint64_t K = 0;      ///< fused constant word
  int64_t S1 = 0;      ///< syscall selector; alloc tag
  int64_t S2 = 0;      ///< syscall B-immediate; alloc size; tail-call argc
  int64_t S3 = 0;      ///< syscall X-immediate (e.g. ListN count)
  XMem MA, MB;         ///< fused memory refs (dst, src)
  XArg GA, GB, GX;     ///< generic operands for cold handlers
};

/// One function in decoded form.
struct DecodedFunction {
  std::vector<XInsn> Code;
  /// Original instruction index -> decoded index of the first real
  /// instruction at or after it (Code.size() when none). Used to resolve
  /// label positions and host-visible pcs.
  std::vector<int32_t> PcMap;
  /// Decoded index -> original instruction index, for trap messages that
  /// report pcs in assembly-listing units.
  std::vector<int32_t> OrigPc;
  /// Basic-block leader flags, one per decoded instruction plus one for
  /// pc == size (control falling off the end). Leaders[I] is set when decoded index I
  /// starts a basic block: function entry, branch or catch-handler
  /// target, or the fall-through successor of any control transfer
  /// (branch, call, tail call, return, syscall) or allocation. Every pc a
  /// host can enter from outside straight-line code — run() start pcs,
  /// return words, syscall continuations, catch handlers — is a leader by
  /// construction, which is what lets the block-compiling native tier
  /// batch safepoints inside a block. Computed once at decode time so the
  /// compiler and any block-scoped analysis agree on boundaries.
  std::vector<uint8_t> Leaders;
};

/// A whole program in decoded form. Immutable; share freely.
struct DecodedProgram {
  std::vector<DecodedFunction> Functions;
};

/// Lowers \p P. Never fails: finalize() has already validated labels and
/// operand patterns, and unknown shapes fall back to generic handlers.
std::shared_ptr<const DecodedProgram> predecode(const s1::Program &P);

} // namespace vm
} // namespace s1lisp

#endif // S1LISP_VM_PREDECODE_H
