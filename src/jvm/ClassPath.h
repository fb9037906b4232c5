//===- jvm/ClassPath.h - The execution environment e ---------------------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The environment e of a JVM execution r = jvm(e, c, i): the set of
/// loadable classfiles (runtime library plus test classes). Definition 2
/// of the paper distinguishes defects (same environment) from
/// compatibility discrepancies (different environments); fingerprint()
/// supports that equality check.
///
/// Representation: a copy-on-write overlay. A ClassPath is a chain of
/// immutable, reference-counted base layers plus one thin mutable
/// overlay map that receives add()s. Copying a ClassPath shares the
/// frozen layers (O(1) per layer) and deep-copies only the pending
/// overlay; freeze() seals the pending overlay into a new shared layer
/// so subsequent copies are cheap, merging layers geometrically (as an
/// LSM tree does) so lookups walk at most log2(n) + 1 of them. This is what lets the campaign loop
/// and the differential tester stack "corpus + one mutant" environments
/// per iteration without re-copying the whole corpus (previously an
/// O(corpus) deep copy per mutant).
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_JVM_CLASSPATH_H
#define CLASSFUZZ_JVM_CLASSPATH_H

#include "support/ByteBuffer.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace classfuzz {

/// A name -> classfile-bytes map modeling the class path plus runtime
/// library of one JVM setup.
///
/// Copies share frozen layers; mutation through add() only ever touches
/// the copy's private overlay, never a shared base (copy-on-write), so
/// handing copies to concurrent readers is safe as long as each copy is
/// mutated by at most one thread.
class ClassPath {
public:
  /// Registers (or replaces) the classfile for \p InternalName.
  void add(const std::string &InternalName, Bytes Data);

  /// Bytes for \p InternalName, or nullptr when unavailable (the JVM then
  /// raises NoClassDefFoundError). Newest layer wins.
  const Bytes *lookup(const std::string &InternalName) const;

  bool has(const std::string &InternalName) const {
    return lookup(InternalName) != nullptr;
  }

  /// All registered internal names, sorted.
  std::vector<std::string> names() const;

  /// Number of distinct registered names.
  size_t size() const { return NumDistinct; }

  /// Content fingerprint for environment-equality checks (Definition 2).
  /// Depends only on the merged name -> bytes view, not on layering.
  uint64_t fingerprint() const;

  /// Layers \p Overlay on top of this class path (overlay entries win).
  ClassPath overlaidWith(const ClassPath &Overlay) const;

  /// Seals pending add()s into a new shared immutable layer, making
  /// subsequent copies of this object O(layers) instead of O(pending
  /// entries). Merges the new layer with its parents while each parent
  /// holds at most twice its entries, so a chain over n entries has at
  /// most log2(n) + 1 layers and an add is copied O(log n) times
  /// amortized (counted in `work.classpath_entries_copied`). No
  /// observable effect on contents.
  void freeze();

  /// Number of frozen layers under this object (diagnostic; exercised by
  /// the overlay tests and benchmarks).
  size_t layerDepth() const;

private:
  struct Layer {
    std::map<std::string, Bytes> Classes;
    std::shared_ptr<const Layer> Parent;
    size_t Depth = 1;
  };

  /// Builds the merged name -> bytes view (newest layer wins), sorted by
  /// name. Values point into the layers/overlay of this object.
  std::map<std::string, const Bytes *> mergedView() const;

  std::shared_ptr<const Layer> Base; ///< Frozen chain, newest first.
  std::map<std::string, Bytes> Overlay; ///< Pending writes (top layer).
  size_t NumDistinct = 0;
};

} // namespace classfuzz

#endif // CLASSFUZZ_JVM_CLASSPATH_H
