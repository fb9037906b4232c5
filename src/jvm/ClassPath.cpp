//===- jvm/ClassPath.cpp --------------------------------------------------===//

#include "jvm/ClassPath.h"

#include "classfile/ClassReader.h"
#include "support/Hashing.h"
#include "telemetry/Telemetry.h"

using namespace classfuzz;

const Result<ClassFile> &ClassEntry::parsed() const {
  std::call_once(Once, [this] {
    Parse = std::make_unique<const Result<ClassFile>>(parseClassFile(Data));
  });
  return *Parse;
}

void ClassPath::add(const std::string &InternalName, Bytes Data) {
  add(InternalName, makeClassEntry(std::move(Data)));
}

void ClassPath::add(const std::string &InternalName, ClassEntryRef Entry) {
  if (!has(InternalName))
    ++NumDistinct;
  Overlay[InternalName] = std::move(Entry);
}

const ClassEntryRef *
ClassPath::entry(const std::string &InternalName) const {
  auto It = Overlay.find(InternalName);
  if (It != Overlay.end())
    return &It->second;
  for (const Layer *L = Base.get(); L; L = L->Parent.get()) {
    auto LIt = L->Classes.find(InternalName);
    if (LIt != L->Classes.end())
      return &LIt->second;
  }
  return nullptr;
}

std::map<std::string, const ClassEntryRef *> ClassPath::mergedView() const {
  std::map<std::string, const ClassEntryRef *> Out;
  // Oldest layer first so newer entries overwrite older ones.
  std::vector<const Layer *> Layers;
  for (const Layer *L = Base.get(); L; L = L->Parent.get())
    Layers.push_back(L);
  for (auto It = Layers.rbegin(); It != Layers.rend(); ++It)
    for (const auto &[Name, Data] : (*It)->Classes)
      Out[Name] = &Data;
  for (const auto &[Name, Data] : Overlay)
    Out[Name] = &Data;
  return Out;
}

std::vector<std::string> ClassPath::names() const {
  std::vector<std::string> Out;
  Out.reserve(NumDistinct);
  for (const auto &[Name, Entry] : mergedView())
    Out.push_back(Name);
  return Out;
}

uint64_t ClassPath::fingerprint() const {
  Hasher H;
  for (const auto &[Name, Entry] : mergedView()) {
    H.addString(Name);
    H.addU64(hashBytes((*Entry)->bytes()));
  }
  return H.value();
}

ClassPath ClassPath::overlaidWith(const ClassPath &Overlay) const {
  ClassPath Out = *this;
  for (const auto &[Name, Entry] : Overlay.mergedView())
    Out.add(Name, *Entry);
  return Out;
}

void ClassPath::freeze() {
  if (Overlay.empty())
    return;
  auto Top = std::make_shared<Layer>();
  Top->Classes = std::move(Overlay);
  Overlay.clear();
  // Geometric (LSM-style) merging: fold the parent into the new layer
  // while the parent holds at most twice its entries, newest wins.
  // Every surviving parent holds more than twice its child, so a chain
  // over n names has at most log2(n) + 1 layers; and (replacements
  // aside) a copied entry lands in a layer at least 1.5x the one it
  // left, so each entry is copied O(log n) times. Shared layers are
  // only read; the merged layer is private until published.
  std::shared_ptr<const Layer> Parent = Base;
  uint64_t Copied = 0;
  while (Parent && Parent->Classes.size() <= 2 * Top->Classes.size()) {
    // Both maps are sorted: walk the insertion hint forward so the
    // merge is linear in the two sizes.
    auto Hint = Top->Classes.begin();
    for (const auto &[Name, Entry] : Parent->Classes) {
      while (Hint != Top->Classes.end() && Hint->first < Name)
        ++Hint;
      if (Hint != Top->Classes.end() && Hint->first == Name)
        continue; // Shadowed by a newer layer.
      Top->Classes.emplace_hint(Hint, Name, Entry);
      ++Copied;
    }
    Parent = Parent->Parent;
  }
  Top->Parent = Parent;
  Top->Depth = Parent ? Parent->Depth + 1 : 1;
  Base = std::move(Top);
  if (telemetry::enabled())
    telemetry::metrics().counter("work.classpath_entries_copied").inc(Copied);
}

size_t ClassPath::layerDepth() const { return Base ? Base->Depth : 0; }
