//===- support/SmallVector.h - Vector with inline storage -------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector that keeps its first N elements inside the object and moves to
/// the heap only when it grows past them.  Closed forms use it for their
/// polynomial coefficients: every invariant and every linear tuple has at
/// most two, so the forms the classifier builds and copies most often
/// never allocate.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SUPPORT_SMALLVECTOR_H
#define BEYONDIV_SUPPORT_SMALLVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <utility>

namespace biv {

template <typename T, unsigned N> class SmallVector {
  static_assert(N > 0, "a small vector needs inline capacity");

public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  SmallVector() = default;
  SmallVector(size_t Count, const T &V) { assign(Count, V); }
  SmallVector(std::initializer_list<T> Init) {
    reserve(Init.size());
    for (const T &V : Init)
      new (data() + Size++) T(V);
  }
  SmallVector(const SmallVector &O) { copyFrom(O); }
  SmallVector(SmallVector &&O) noexcept { moveFrom(O); }
  SmallVector &operator=(const SmallVector &O) {
    if (this != &O) {
      clear();
      copyFrom(O);
    }
    return *this;
  }
  SmallVector &operator=(SmallVector &&O) noexcept {
    if (this != &O) {
      clear();
      releaseHeap();
      moveFrom(O);
    }
    return *this;
  }
  ~SmallVector() {
    clear();
    releaseHeap();
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  T *data() { return Heap ? Heap : reinterpret_cast<T *>(Inline); }
  const T *data() const {
    return Heap ? Heap : reinterpret_cast<const T *>(Inline);
  }
  iterator begin() { return data(); }
  iterator end() { return data() + Size; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + Size; }

  T &operator[](size_t I) {
    assert(I < Size && "small vector index out of range");
    return data()[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Size && "small vector index out of range");
    return data()[I];
  }
  T &front() {
    assert(Size && "front() of an empty small vector");
    return data()[0];
  }
  const T &front() const {
    assert(Size && "front() of an empty small vector");
    return data()[0];
  }
  T &back() {
    assert(Size && "back() of an empty small vector");
    return data()[Size - 1];
  }
  const T &back() const {
    assert(Size && "back() of an empty small vector");
    return data()[Size - 1];
  }

  void push_back(const T &V) {
    if (Size == Cap) {
      T Copy(V); // V may live in the storage that grow() frees
      grow(Size + 1);
      new (data() + Size++) T(std::move(Copy));
      return;
    }
    new (data() + Size++) T(V);
  }
  void push_back(T &&V) {
    if (Size == Cap) {
      T Moved(std::move(V));
      grow(Size + 1);
      new (data() + Size++) T(std::move(Moved));
      return;
    }
    new (data() + Size++) T(std::move(V));
  }
  void pop_back() {
    assert(Size && "pop_back() of an empty small vector");
    data()[--Size].~T();
  }

  /// Grows with value-initialized elements or shrinks to \p NewSize.
  void resize(size_t NewSize) {
    reserve(NewSize);
    while (Size < NewSize)
      new (data() + Size++) T();
    while (Size > NewSize)
      pop_back();
  }
  void assign(size_t Count, const T &V) {
    clear();
    reserve(Count);
    while (Size < Count)
      new (data() + Size++) T(V);
  }
  void clear() {
    while (Size)
      pop_back();
  }
  void reserve(size_t MinCap) {
    if (MinCap > Cap)
      grow(MinCap);
  }

  bool operator==(const SmallVector &O) const {
    if (Size != O.Size)
      return false;
    for (size_t I = 0; I < Size; ++I)
      if (!(data()[I] == O.data()[I]))
        return false;
    return true;
  }
  bool operator!=(const SmallVector &O) const { return !(*this == O); }

private:
  void grow(size_t MinCap) {
    size_t NewCap = Cap * 2 > MinCap ? Cap * 2 : MinCap;
    T *New = static_cast<T *>(::operator new(NewCap * sizeof(T)));
    T *Old = data();
    for (size_t I = 0; I < Size; ++I) {
      new (New + I) T(std::move(Old[I]));
      Old[I].~T();
    }
    releaseHeap();
    Heap = New;
    Cap = uint32_t(NewCap);
  }
  void releaseHeap() {
    if (Heap)
      ::operator delete(Heap);
    Heap = nullptr;
    Cap = N;
  }
  /// Copies \p O into this empty vector.
  void copyFrom(const SmallVector &O) {
    reserve(O.Size);
    for (size_t I = 0; I < O.Size; ++I)
      new (data() + Size++) T(O.data()[I]);
  }
  /// Takes \p O 's elements into this empty, inline vector and leaves \p O
  /// empty and inline.
  void moveFrom(SmallVector &O) {
    if (O.Heap) {
      Heap = O.Heap;
      Size = O.Size;
      Cap = O.Cap;
      O.Heap = nullptr;
      O.Size = 0;
      O.Cap = N;
      return;
    }
    for (size_t I = 0; I < O.Size; ++I)
      new (data() + Size++) T(std::move(O.data()[I]));
    O.clear();
  }

  T *Heap = nullptr;
  uint32_t Size = 0;
  uint32_t Cap = N;
  alignas(T) unsigned char Inline[N * sizeof(T)];
};

} // namespace biv

#endif // BEYONDIV_SUPPORT_SMALLVECTOR_H
