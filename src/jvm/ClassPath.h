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
/// Representation: a copy-on-write overlay of shared entries. Each value
/// is an immutable, reference-counted ClassEntry -- the classfile bytes
/// plus their parse, made at most once on first use. A ClassPath is a
/// chain of immutable, reference-counted base layers plus one thin
/// mutable overlay map that receives add()s. Copying a ClassPath shares
/// the frozen layers (O(1) per layer) and copies only the pending
/// overlay's entry references; freeze() seals the pending overlay into a
/// new shared layer so subsequent copies are cheap, merging layers
/// geometrically (as an LSM tree does) so lookups walk at most
/// log2(n) + 1 of them. Copies, overlaidWith() and freeze() never copy
/// bytes: every ClassPath holding an entry reads the same bytes and the
/// same parse. This is what lets the campaign loop and the differential
/// tester stack "corpus + one mutant" environments per iteration without
/// re-copying (or re-parsing) the corpus.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_JVM_CLASSPATH_H
#define CLASSFUZZ_JVM_CLASSPATH_H

#include "classfile/ClassFile.h"
#include "support/ByteBuffer.h"
#include "support/Result.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace classfuzz {

/// One class-path value: classfile bytes and their parse. The parse is
/// made at most once, by whichever thread asks first (std::call_once),
/// and lives exactly as long as the entry. Immutable otherwise, so one
/// entry can back any number of ClassPaths read from any number of
/// threads.
class ClassEntry {
public:
  explicit ClassEntry(Bytes Data) : Data(std::move(Data)) {}

  ClassEntry(const ClassEntry &) = delete;
  ClassEntry &operator=(const ClassEntry &) = delete;

  const Bytes &bytes() const { return Data; }

  /// The parse of bytes(): the ClassFile, or the parser's error message.
  /// Parses on the first call (one `work.classes_parsed`), then returns
  /// the cached result.
  const Result<ClassFile> &parsed() const;

private:
  Bytes Data;
  mutable std::once_flag Once;
  mutable std::unique_ptr<const Result<ClassFile>> Parse;
};

/// Shared ownership of an entry; every ClassPath holding it keeps it
/// (and its parse) alive.
using ClassEntryRef = std::shared_ptr<const ClassEntry>;

/// A fresh, unparsed entry over \p Data.
inline ClassEntryRef makeClassEntry(Bytes Data) {
  return std::make_shared<const ClassEntry>(std::move(Data));
}

/// A name -> ClassEntry map modeling the class path plus runtime
/// library of one JVM setup.
///
/// Copies share frozen layers; mutation through add() only ever touches
/// the copy's private overlay, never a shared base (copy-on-write), so
/// handing copies to concurrent readers is safe as long as each copy is
/// mutated by at most one thread.
class ClassPath {
public:
  /// Registers (or replaces) the classfile for \p InternalName with a
  /// fresh entry over \p Data.
  void add(const std::string &InternalName, Bytes Data);

  /// Registers (or replaces) \p InternalName with \p Entry, shared with
  /// every other holder: no bytes are copied, and a parse made through
  /// any holder serves them all.
  void add(const std::string &InternalName, ClassEntryRef Entry);

  /// The entry for \p InternalName, or nullptr when unavailable (the JVM
  /// then raises NoClassDefFoundError). Newest layer wins. The pointer
  /// stays valid while this object holds the entry.
  const ClassEntryRef *entry(const std::string &InternalName) const;

  /// Bytes for \p InternalName, or nullptr when unavailable.
  const Bytes *lookup(const std::string &InternalName) const {
    const ClassEntryRef *E = entry(InternalName);
    return E ? &(*E)->bytes() : nullptr;
  }

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
  /// The result shares both sides' entries.
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
    std::map<std::string, ClassEntryRef> Classes;
    std::shared_ptr<const Layer> Parent;
    size_t Depth = 1;
  };

  /// Builds the merged name -> entry view (newest layer wins), sorted by
  /// name. Values point into the layers/overlay of this object.
  std::map<std::string, const ClassEntryRef *> mergedView() const;

  std::shared_ptr<const Layer> Base; ///< Frozen chain, newest first.
  std::map<std::string, ClassEntryRef> Overlay; ///< Pending writes (top layer).
  size_t NumDistinct = 0;
};

} // namespace classfuzz

#endif // CLASSFUZZ_JVM_CLASSPATH_H
