//===- support/Arena.h - Chunked bump allocator -----------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A chunked bump allocator and the arena-backed containers the AST/IR and
/// the analyses are built from (DESIGN.md §11).
///
/// An Arena hands out pointer-bumped storage from geometrically growing
/// chunks and frees everything at once when destroyed (or on reset()).
/// Nothing is ever deallocated individually and destructors are never run,
/// so every type placed in an arena must be trivially destructible --
/// `create<T>` enforces this statically.  Types whose only "resources" are
/// other arena allocations (ArenaVector members) satisfy the requirement by
/// construction: their memory dies with the arena.
///
/// The unit of ownership is one compilation unit: the parser owns an arena
/// for the AST, ir::Function owns one for blocks/instructions/operand lists
/// and the analyses that live as long as the unit (dominator tree, loops),
/// and the batch driver frees a whole unit by dropping the Function.  Raw
/// pointers into an arena (Value*, Symbol string_views) are valid exactly as
/// long as the owning arena; nothing may outlive it (the sanitizer fuzz run
/// exercises this contract, see tools/run_fuzz.sh).
///
/// Transient analysis state comes from the calling thread's scratch arena
/// instead (scratchArena(), ScratchScope): a scope marks the arena on entry
/// and rewinds to the mark on exit, keeping the chunks for the next scope.
/// Under AddressSanitizer every byte not currently handed out -- rewound
/// scratch, spare chunks, the unused tail of a chunk -- is poisoned, so a
/// pointer that outlives its scope faults at its first use.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SUPPORT_ARENA_H
#define BEYONDIV_SUPPORT_ARENA_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define BIV_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BIV_ARENA_ASAN 1
#endif
#endif
#ifdef BIV_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace biv {
namespace support {

/// Chunked bump allocator.  Allocation is a pointer bump; deallocation is a
/// no-op until the whole arena is reset, destroyed or rewound to a mark.
class Arena {
  struct ChunkHeader {
    ChunkHeader *Next;
    size_t Bytes;
  };

public:
  /// First chunk size; chunks double up to MaxChunkBytes.
  static constexpr size_t MinChunkBytes = size_t(1) << 12;
  static constexpr size_t MaxChunkBytes = size_t(1) << 20;

  /// A position to rewind to: everything allocated after it is freed at
  /// once by rewind().
  class Mark {
    friend class Arena;
    ChunkHeader *Chunk = nullptr;
    char *Cur = nullptr;
    size_t Allocated = 0;
  };

  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  ~Arena() {
    releaseChunks(Chunks);
    releaseChunks(Spare);
  }

  /// Bump-allocates \p Size bytes aligned to \p Align.
  void *allocate(size_t Size, size_t Align = alignof(std::max_align_t)) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 && "bad alignment");
    uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~(Align - 1);
    if (P + Size > reinterpret_cast<uintptr_t>(End)) {
      grow(Size, Align);
      P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~(Align - 1);
    }
    Cur = reinterpret_cast<char *>(P + Size);
    Allocated += Size;
    unpoison(reinterpret_cast<void *>(P), Size);
    return reinterpret_cast<void *>(P);
  }

  /// Placement-new for trivially destructible \p T; the object's destructor
  /// is never run (batch free).
  template <typename T, typename... Args> T *create(Args &&...As) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are batch-freed without destruction");
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(As)...);
  }

  /// Uninitialized storage for \p N objects of \p T.
  template <typename T> T *allocateArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena arrays are batch-freed without destruction");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Copies \p Len bytes into the arena and returns the stable copy.
  char *copyBytes(const char *Data, size_t Len) {
    char *P = static_cast<char *>(allocate(Len ? Len : 1, 1));
    std::memcpy(P, Data, Len);
    return P;
  }

  /// The current position, for a later rewind().
  Mark mark() const {
    Mark M;
    M.Chunk = Chunks;
    M.Cur = Cur;
    M.Allocated = Allocated;
    return M;
  }

  /// Frees everything allocated since \p M, which must be a mark of this
  /// arena not already rewound past.  Chunks acquired since the mark stay
  /// with the arena as spares that later growth reuses; trim() returns
  /// them to the heap.
  void rewind(const Mark &M) {
    Peak = std::max(Peak, Allocated);
    while (Chunks != M.Chunk) {
      assert(Chunks && "mark is not from this arena");
      ChunkHeader *H = Chunks;
      Chunks = H->Next;
      poison(payload(H), H->Bytes - sizeof(ChunkHeader));
      H->Next = Spare;
      Spare = H;
    }
    Cur = M.Cur;
    End = Chunks ? reinterpret_cast<char *>(Chunks) + Chunks->Bytes : nullptr;
    if (Cur)
      poison(Cur, size_t(End - Cur));
    Allocated = M.Allocated;
  }

  /// Returns spare chunks to the heap, earliest acquired (smallest) first,
  /// until at most \p MaxBytes stay reserved.
  void trim(size_t MaxBytes) {
    while (Spare && Reserved > MaxBytes) {
      ChunkHeader *H = Spare;
      Spare = H->Next;
      Reserved -= H->Bytes;
      --NChunks;
      freeChunk(H);
    }
  }

  /// Batch free: drops every chunk and rewinds the counters.  All pointers
  /// previously handed out become invalid.
  void reset() {
    releaseChunks(Chunks);
    releaseChunks(Spare);
    Chunks = Spare = nullptr;
    Cur = End = nullptr;
    NChunks = 0;
    Reserved = 0;
    Allocated = 0;
    Peak = 0;
    NextChunkBytes = MinChunkBytes;
  }

  /// Total bytes handed out to callers (not counting alignment padding).
  size_t bytesAllocated() const { return Allocated; }
  /// The most bytesAllocated() has been since construction, reset() or
  /// resetPeak().  Allocated only falls at a rewind, so the peak is taken
  /// there and allocation itself does no bookkeeping.
  size_t peakBytesAllocated() const { return std::max(Peak, Allocated); }
  void resetPeak() { Peak = Allocated; }
  /// Total bytes acquired from the heap for chunks, spares included.
  size_t bytesReserved() const { return Reserved; }
  /// Number of chunks acquired from the heap, spares included.
  size_t numChunks() const { return NChunks; }

private:
  static char *payload(ChunkHeader *H) {
    return reinterpret_cast<char *>(H) + sizeof(ChunkHeader);
  }

  void grow(size_t Need, size_t Align) {
    size_t Payload = Need + Align + sizeof(ChunkHeader);
    // A spare chunk from an earlier rewind, first fit; spares sit in
    // acquisition order, so the small early chunks are tried first.
    for (ChunkHeader **Link = &Spare; *Link; Link = &(*Link)->Next)
      if ((*Link)->Bytes >= Payload) {
        ChunkHeader *H = *Link;
        *Link = H->Next;
        pushChunk(H);
        return;
      }
    size_t Bytes = NextChunkBytes;
    while (Bytes < Payload)
      Bytes *= 2;
    if (NextChunkBytes < MaxChunkBytes)
      NextChunkBytes *= 2;
    auto *H = static_cast<ChunkHeader *>(::operator new(Bytes));
    H->Bytes = Bytes;
    poison(payload(H), Bytes - sizeof(ChunkHeader));
    ++NChunks;
    Reserved += Bytes;
    pushChunk(H);
  }

  void pushChunk(ChunkHeader *H) {
    H->Next = Chunks;
    Chunks = H;
    Cur = payload(H);
    End = reinterpret_cast<char *>(H) + H->Bytes;
  }

  static void freeChunk(ChunkHeader *H) {
    unpoison(payload(H), H->Bytes - sizeof(ChunkHeader));
    ::operator delete(static_cast<void *>(H));
  }

  static void releaseChunks(ChunkHeader *H) {
    while (H) {
      ChunkHeader *Next = H->Next;
      freeChunk(H);
      H = Next;
    }
  }

  static void poison([[maybe_unused]] const void *P,
                     [[maybe_unused]] size_t N) {
#ifdef BIV_ARENA_ASAN
    ASAN_POISON_MEMORY_REGION(P, N);
#endif
  }
  static void unpoison([[maybe_unused]] const void *P,
                       [[maybe_unused]] size_t N) {
#ifdef BIV_ARENA_ASAN
    ASAN_UNPOISON_MEMORY_REGION(P, N);
#endif
  }

  char *Cur = nullptr;
  char *End = nullptr;
  /// Chunks in use, newest (the one Cur points into) first.
  ChunkHeader *Chunks = nullptr;
  /// Chunks given back by rewind(), kept for reuse.
  ChunkHeader *Spare = nullptr;
  size_t NChunks = 0;
  size_t Reserved = 0;
  size_t Allocated = 0;
  size_t Peak = 0;
  size_t NextChunkBytes = MinChunkBytes;
};

/// A growable array whose storage lives in an Arena.  Element type must be
/// trivially copyable (the growth path memcpys) and trivially destructible.
/// Mutating operations that may grow take the arena explicitly; outgrown
/// storage is abandoned in place (geometric growth bounds the waste to the
/// final capacity).
template <typename T> class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector elements are moved with memcpy");

public:
  using value_type = T;

  ArenaVector() = default;

  T *begin() { return Data; }
  T *end() { return Data + Sz; }
  T *data() { return Data; }
  const T *data() const { return Data; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Sz; }

  size_t size() const { return Sz; }
  bool empty() const { return Sz == 0; }

  T &operator[](size_t I) {
    assert(I < Sz && "index out of range");
    return Data[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Sz && "index out of range");
    return Data[I];
  }
  T &front() { return (*this)[0]; }
  T &back() { return (*this)[Sz - 1]; }
  const T &front() const { return (*this)[0]; }
  const T &back() const { return (*this)[Sz - 1]; }

  void reserve(Arena &A, size_t N) {
    // Grow geometrically even for explicit reserves: callers like the
    // function's per-symbol tables resize by one symbol at a time, and an
    // exact-fit regrow would memcpy the whole table on every step (O(n^2)).
    if (N > Cap)
      regrow(A, std::max(N, size_t(Cap) * 2));
  }

  void push_back(Arena &A, const T &V) {
    if (Sz == Cap)
      regrow(A, Cap ? Cap * 2 : 4);
    Data[Sz++] = V;
  }

  void insert(Arena &A, size_t Pos, const T &V) {
    assert(Pos <= Sz && "insert position out of range");
    if (Sz == Cap)
      regrow(A, Cap ? Cap * 2 : 4);
    std::memmove(Data + Pos + 1, Data + Pos, (Sz - Pos) * sizeof(T));
    Data[Pos] = V;
    ++Sz;
  }

  void erase(size_t Pos) {
    assert(Pos < Sz && "erase position out of range");
    std::memmove(Data + Pos, Data + Pos + 1, (Sz - Pos - 1) * sizeof(T));
    --Sz;
  }

  void pop_back() {
    assert(Sz && "pop_back on empty vector");
    --Sz;
  }

  void clear() { Sz = 0; }

  /// Drops elements past \p N without touching storage (never grows).
  void truncate(size_t N) {
    assert(N <= Sz && "truncate cannot grow");
    Sz = uint32_t(N);
  }

  void resize(Arena &A, size_t N, const T &Fill = T()) {
    reserve(A, N);
    for (size_t I = Sz; I < N; ++I)
      Data[I] = Fill;
    Sz = uint32_t(N);
  }

private:
  void regrow(Arena &A, size_t NewCap) {
    T *NewData = A.allocateArray<T>(NewCap);
    if (Sz)
      std::memcpy(NewData, Data, Sz * sizeof(T));
    Data = NewData;
    Cap = uint32_t(NewCap);
  }

  T *Data = nullptr;
  uint32_t Sz = 0;
  uint32_t Cap = 0;
};

/// Spare scratch bytes a thread keeps once its outermost ScratchScope
/// closes; the rest goes back to the heap, so an idle batch or server
/// thread holds at most this much scratch between units.
inline constexpr size_t ScratchKeepBytes = size_t(1) << 18;

/// The calling thread's scratch arena.  Allocate from it only inside a
/// ScratchScope, and only state that dies before the scope closes.
inline Arena &scratchArena() {
  static thread_local Arena A;
  return A;
}

/// Marks the thread's scratch arena on construction and rewinds it on
/// destruction.  Scopes nest; an inner scope must close before its outer
/// one, and nothing allocated inside a scope -- a container grown there
/// included -- may be used after it closes.
class ScratchScope {
public:
  ScratchScope() : A(scratchArena()), M(A.mark()) {}
  ScratchScope(const ScratchScope &) = delete;
  ScratchScope &operator=(const ScratchScope &) = delete;
  ~ScratchScope() {
    A.rewind(M);
    if (A.bytesAllocated() == 0)
      A.trim(ScratchKeepBytes);
  }

  Arena &arena() const { return A; }

private:
  Arena &A;
  Arena::Mark M;
};

} // namespace support
} // namespace biv

#endif // BEYONDIV_SUPPORT_ARENA_H
