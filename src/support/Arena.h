//===- support/Arena.h - Bump allocator for IR objects ----------*- C++ -*-===//
///
/// \file
/// A chunked bump-pointer arena. IR nodes and variables are allocated here
/// and live exactly as long as the owning ir::Function (or until the
/// function compacts itself with ir::Function::reclaim()); destructors of
/// allocated objects are run when the arena dies.
///
/// Most node classes are trivially destructible, so the common allocation
/// is a pointer bump; only objects with std::vector members (progn, call,
/// lambda, caseq, progbody, Variable) register a destructor record.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_SUPPORT_ARENA_H
#define S1LISP_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace s1lisp {

/// Owns a growing set of objects in bump-allocated chunks and destroys
/// them all at once.
class NodeArena {
public:
  NodeArena() = default;
  NodeArena(const NodeArena &) = delete;
  NodeArena &operator=(const NodeArena &) = delete;
  NodeArena(NodeArena &&O) noexcept { *this = std::move(O); }
  NodeArena &operator=(NodeArena &&O) noexcept {
    if (this != &O) {
      destroyAll();
      Chunks = std::move(O.Chunks);
      Cur = O.Cur;
      End = O.End;
      Dtors = std::move(O.Dtors);
      ObjectTally = O.ObjectTally;
      ByteTally = O.ByteTally;
      O.Chunks.clear();
      O.Dtors.clear();
      O.Cur = O.End = nullptr;
      O.ObjectTally = O.ByteTally = 0;
    }
    return *this;
  }

  ~NodeArena() { destroyAll(); }

  /// Allocates and constructs a T owned by the arena.
  template <typename T, typename... Args> T *create(Args &&...As) {
    ++ObjectTally;
    void *Mem = allocate(sizeof(T), alignof(T));
    T *Ptr = new (Mem) T(std::forward<Args>(As)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      Dtors.push_back({Ptr, [](void *P) { static_cast<T *>(P)->~T(); }});
    return Ptr;
  }

  /// Objects allocated over the arena's lifetime (live and garbage alike).
  size_t size() const { return ObjectTally; }
  /// Bytes handed out (chunk headroom not counted).
  size_t allocatedBytes() const { return ByteTally; }

private:
  static constexpr size_t ChunkBytes = 64 * 1024;

  struct Owned {
    void *Ptr;
    void (*Dtor)(void *);
  };

  void *allocate(size_t Size, size_t Align) {
    char *P = reinterpret_cast<char *>(
        (reinterpret_cast<uintptr_t>(Cur) + (Align - 1)) & ~(Align - 1));
    if (P + Size > End) {
      size_t Cap = Size + Align > ChunkBytes ? Size + Align : ChunkBytes;
      Chunks.push_back(std::make_unique<char[]>(Cap));
      Cur = Chunks.back().get();
      End = Cur + Cap;
      P = reinterpret_cast<char *>(
          (reinterpret_cast<uintptr_t>(Cur) + (Align - 1)) & ~(Align - 1));
    }
    Cur = P + Size;
    ByteTally += Size;
    return P;
  }

  void destroyAll() {
    // Destroy in reverse allocation order.
    for (size_t I = Dtors.size(); I > 0; --I)
      Dtors[I - 1].Dtor(Dtors[I - 1].Ptr);
    Dtors.clear();
    Chunks.clear();
    Cur = End = nullptr;
  }

  std::vector<std::unique_ptr<char[]>> Chunks;
  char *Cur = nullptr;
  char *End = nullptr;
  std::vector<Owned> Dtors; ///< objects with a non-trivial destructor
  size_t ObjectTally = 0;
  size_t ByteTally = 0;
};

/// Historical name; the IR factories allocate from a NodeArena.
using Arena = NodeArena;

} // namespace s1lisp

#endif // S1LISP_SUPPORT_ARENA_H
