//===- tests/jvm/classpath_test.cpp ----------------------------------------===//
//
// The copy-on-write ClassPath: overlay copies must share the frozen base
// without ever leaking writes into it, and the merged view (lookup,
// names, size, fingerprint) must be independent of how the contents are
// layered. Its values are shared ClassEntry objects whose parse is made
// once, by whichever reader (thread or Vm) gets there first.
//
//===----------------------------------------------------------------------===//

#include "jvm/ClassPath.h"

#include "../TestHelpers.h"
#include "support/Rng.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

using namespace classfuzz;

namespace {

Bytes bytesOf(const std::string &S) { return Bytes(S.begin(), S.end()); }

ClassPath makeBase() {
  ClassPath CP;
  CP.add("java/lang/Object", bytesOf("object"));
  CP.add("Seed0", bytesOf("seed0"));
  CP.add("Seed1", bytesOf("seed1"));
  return CP;
}

/// Checks \p CP's merged view against the flat map it should equal,
/// and the chain depth against geometric merging's bound.
void expectMatchesFlat(const ClassPath &CP,
                       const std::map<std::string, Bytes> &Flat) {
  ASSERT_EQ(CP.size(), Flat.size());
  std::vector<std::string> Names;
  ClassPath FlatCP; // Never frozen: a single pending overlay.
  for (const auto &[Name, Data] : Flat) {
    Names.push_back(Name);
    FlatCP.add(Name, Data);
    const Bytes *Got = CP.lookup(Name);
    ASSERT_NE(Got, nullptr) << Name;
    ASSERT_EQ(*Got, Data) << Name;
  }
  EXPECT_EQ(CP.lookup("Absent"), nullptr);
  EXPECT_EQ(CP.names(), Names);
  EXPECT_EQ(CP.fingerprint(), FlatCP.fingerprint());
  size_t Log2 = 0;
  while ((size_t{2} << Log2) <= Flat.size())
    ++Log2;
  EXPECT_LE(CP.layerDepth(), Log2 + 2) << "size " << Flat.size();
}

/// Enables telemetry for one test (the parse counter only counts while
/// it is on) and restores the disabled default afterwards.
struct TelemetryOn {
  TelemetryOn() { telemetry::setEnabled(true); }
  ~TelemetryOn() { telemetry::setEnabled(false); }
};

uint64_t classesParsed() {
  return telemetry::metrics().counter("work.classes_parsed").value();
}

const ClassEntry *entryOf(const ClassPath &CP, const std::string &Name) {
  const ClassEntryRef *E = CP.entry(Name);
  return E ? E->get() : nullptr;
}

} // namespace

TEST(ClassPath, OverlayAddDoesNotLeakIntoSharedBase) {
  ClassPath Base = makeBase();
  Base.freeze();

  ClassPath Overlay = Base; // Shares the frozen layer.
  Overlay.add("Mutant", bytesOf("mutant"));

  EXPECT_TRUE(Overlay.has("Mutant"));
  EXPECT_FALSE(Base.has("Mutant")) << "overlay write leaked into the base";
  EXPECT_EQ(Base.size(), 3u);
  EXPECT_EQ(Overlay.size(), 4u);
}

TEST(ClassPath, OverlayReplacementShadowsWithoutMutatingBase) {
  ClassPath Base = makeBase();
  Base.freeze();

  ClassPath Overlay = Base;
  Overlay.add("Seed0", bytesOf("patched"));

  ASSERT_NE(Overlay.lookup("Seed0"), nullptr);
  EXPECT_EQ(*Overlay.lookup("Seed0"), bytesOf("patched"));
  ASSERT_NE(Base.lookup("Seed0"), nullptr);
  EXPECT_EQ(*Base.lookup("Seed0"), bytesOf("seed0"))
      << "replacing a class in the overlay mutated the shared base";
  // Replacement shadows, it does not add a name.
  EXPECT_EQ(Overlay.size(), Base.size());
}

TEST(ClassPath, BaseWritesAfterCopyDoNotLeakIntoOverlay) {
  ClassPath Base = makeBase();
  Base.freeze();
  ClassPath Overlay = Base;

  Base.add("LateClass", bytesOf("late"));
  EXPECT_TRUE(Base.has("LateClass"));
  EXPECT_FALSE(Overlay.has("LateClass"));
}

TEST(ClassPath, CopyWithPendingOverlayIsIndependent) {
  ClassPath A = makeBase(); // Nothing frozen: everything pending.
  ClassPath B = A;
  B.add("OnlyInB", bytesOf("b"));
  A.add("OnlyInA", bytesOf("a"));
  EXPECT_TRUE(A.has("OnlyInA"));
  EXPECT_FALSE(A.has("OnlyInB"));
  EXPECT_TRUE(B.has("OnlyInB"));
  EXPECT_FALSE(B.has("OnlyInA"));
}

TEST(ClassPath, FreezePreservesContentsAndFingerprint) {
  ClassPath Flat = makeBase();
  uint64_t FlatPrint = Flat.fingerprint();
  std::vector<std::string> FlatNames = Flat.names();

  ClassPath Frozen = makeBase();
  Frozen.freeze();
  EXPECT_EQ(Frozen.fingerprint(), FlatPrint)
      << "fingerprint must depend on contents, not layering";
  EXPECT_EQ(Frozen.names(), FlatNames);
  EXPECT_EQ(Frozen.size(), Flat.size());
  for (const std::string &Name : FlatNames) {
    ASSERT_NE(Frozen.lookup(Name), nullptr);
    EXPECT_EQ(*Frozen.lookup(Name), *Flat.lookup(Name));
  }
}

TEST(ClassPath, DeepLayerChainsFlattenAndStayCorrect) {
  // Repeated add+freeze cycles (one per accepted mutant in a campaign)
  // must keep the merged view correct through layer merging.
  ClassPath CP = makeBase();
  CP.freeze();
  for (int I = 0; I != 100; ++I) {
    CP.add("Mutant" + std::to_string(I), bytesOf("m" + std::to_string(I)));
    CP.freeze();
  }
  EXPECT_EQ(CP.size(), 103u);
  EXPECT_LE(CP.layerDepth(), 17u) << "chain depth must be capped";
  for (int I = 0; I != 100; ++I) {
    const Bytes *Data = CP.lookup("Mutant" + std::to_string(I));
    ASSERT_NE(Data, nullptr);
    EXPECT_EQ(*Data, bytesOf("m" + std::to_string(I)));
  }

  // Same contents built flat: identical fingerprint and names.
  ClassPath Flat = makeBase();
  for (int I = 0; I != 100; ++I)
    Flat.add("Mutant" + std::to_string(I), bytesOf("m" + std::to_string(I)));
  EXPECT_EQ(CP.fingerprint(), Flat.fingerprint());
  EXPECT_EQ(CP.names(), Flat.names());
}

TEST(ClassPath, NewestLayerWinsOnReplacement) {
  ClassPath CP;
  CP.add("C", bytesOf("v1"));
  CP.freeze();
  CP.add("C", bytesOf("v2"));
  CP.freeze();
  CP.add("C", bytesOf("v3")); // Pending overlay wins over all layers.
  ASSERT_NE(CP.lookup("C"), nullptr);
  EXPECT_EQ(*CP.lookup("C"), bytesOf("v3"));
  EXPECT_EQ(CP.size(), 1u);
}

TEST(ClassPath, OverlaidWithPrefersOverlayEntries) {
  ClassPath Base = makeBase();
  Base.freeze();
  ClassPath Extra;
  Extra.add("Seed0", bytesOf("replacement"));
  Extra.add("New", bytesOf("new"));

  ClassPath Combined = Base.overlaidWith(Extra);
  EXPECT_EQ(*Combined.lookup("Seed0"), bytesOf("replacement"));
  EXPECT_EQ(*Combined.lookup("New"), bytesOf("new"));
  EXPECT_EQ(*Combined.lookup("Seed1"), bytesOf("seed1"));
  EXPECT_EQ(Combined.size(), 4u);
  // And the operands are untouched.
  EXPECT_EQ(*Base.lookup("Seed0"), bytesOf("seed0"));
  EXPECT_FALSE(Base.has("New"));
}

TEST(ClassPath, EmptyBehaviors) {
  ClassPath CP;
  EXPECT_EQ(CP.size(), 0u);
  EXPECT_EQ(CP.lookup("Missing"), nullptr);
  EXPECT_TRUE(CP.names().empty());
  CP.freeze(); // Freezing nothing is a no-op.
  EXPECT_EQ(CP.layerDepth(), 0u);
}

TEST(ClassPath, RandomLayeringMatchesFlatMap) {
  // Random add / replace-existing-name / freeze sequences, with
  // snapshots taken along the way: every view must equal its flat map,
  // and merging in later freezes must never reach into a snapshot's
  // shared layers.
  for (uint64_t Seed = 1; Seed != 9; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng Gen(Seed);
    ClassPath CP;
    std::map<std::string, Bytes> Flat;
    std::vector<std::pair<ClassPath, std::map<std::string, Bytes>>> Snaps;
    for (int Op = 0; Op != 1500; ++Op) {
      const uint64_t Kind = Gen.nextBelow(10);
      if (Kind < 5 || Flat.empty()) {
        std::string Name = "C" + std::to_string(Op);
        Bytes Data = bytesOf("v" + std::to_string(Op));
        CP.add(Name, Data);
        Flat[Name] = Data;
      } else if (Kind < 7) {
        auto It = std::next(Flat.begin(),
                            static_cast<long>(Gen.nextBelow(Flat.size())));
        Bytes Data = bytesOf("r" + std::to_string(Op));
        CP.add(It->first, Data);
        It->second = Data;
      } else {
        CP.freeze();
      }
      if (Op % 97 == 0)
        Snaps.emplace_back(CP, Flat);
      if (Op % 50 == 0)
        expectMatchesFlat(CP, Flat);
    }
    CP.freeze();
    expectMatchesFlat(CP, Flat);
    for (const auto &[Snap, SnapFlat] : Snaps)
      expectMatchesFlat(Snap, SnapFlat);
  }
}

TEST(ClassPath, OneAddPerFreezeKeepsLogDepth) {
  // The campaign's pattern: a large frozen base, then one add + freeze
  // per accepted mutant.
  ClassPath CP;
  std::map<std::string, Bytes> Flat;
  for (int I = 0; I != 300; ++I) {
    CP.add("Base" + std::to_string(I), bytesOf("b"));
    Flat["Base" + std::to_string(I)] = bytesOf("b");
  }
  CP.freeze();
  for (int I = 0; I != 2000; ++I) {
    CP.add("Mutant" + std::to_string(I), bytesOf("m" + std::to_string(I)));
    Flat["Mutant" + std::to_string(I)] = bytesOf("m" + std::to_string(I));
    CP.freeze();
    if (I % 250 == 0)
      expectMatchesFlat(CP, Flat);
  }
  expectMatchesFlat(CP, Flat);
}

TEST(ClassPath, CopiesOverlaysAndFreezeShareEntries) {
  ClassPath Base = makeBase();
  const uint64_t Print = Base.fingerprint();
  const std::vector<std::string> Names = Base.names();
  const ClassEntry *Seed0 = entryOf(Base, "Seed0");
  ASSERT_NE(Seed0, nullptr);

  ClassPath Copy = Base;
  EXPECT_EQ(entryOf(Copy, "Seed0"), Seed0);
  Base.freeze();
  EXPECT_EQ(entryOf(Base, "Seed0"), Seed0);
  EXPECT_EQ(Base.fingerprint(), Print);
  EXPECT_EQ(Base.names(), Names);

  ClassPath Extra;
  Extra.add("Extra", bytesOf("extra"));
  const ClassEntry *ExtraEntry = entryOf(Extra, "Extra");
  ClassPath Merged = Base.overlaidWith(Extra);
  EXPECT_EQ(entryOf(Merged, "Seed0"), Seed0);
  EXPECT_EQ(entryOf(Merged, "Extra"), ExtraEntry);

  // Layer merging copies entry references, never entries.
  for (int I = 0; I != 40; ++I) {
    Merged.add("Mutant" + std::to_string(I), bytesOf("m"));
    Merged.freeze();
  }
  EXPECT_EQ(entryOf(Merged, "Seed0"), Seed0);
  EXPECT_EQ(entryOf(Merged, "Extra"), ExtraEntry);
  EXPECT_EQ(entryOf(Base, "Seed0"), Seed0);
  EXPECT_EQ(Base.fingerprint(), Print);

  // An entry added by reference to an unrelated path is the same object,
  // and the contents (hence the fingerprint) match a copy of its bytes.
  ClassPath Shared;
  Shared.add("Seed0", *Base.entry("Seed0"));
  EXPECT_EQ(entryOf(Shared, "Seed0"), Seed0);
  ClassPath ByValue;
  ByValue.add("Seed0", bytesOf("seed0"));
  EXPECT_NE(entryOf(ByValue, "Seed0"), Seed0);
  EXPECT_EQ(Shared.fingerprint(), ByValue.fingerprint());
}

TEST(ClassEntry, EightReadersParseOnce) {
  TelemetryOn Guard;
  const ClassEntry Entry(testhelpers::serialize(
      testhelpers::makeHelloClass("Hello")));
  const uint64_t Before = classesParsed();

  constexpr size_t NumThreads = 8;
  std::vector<const Result<ClassFile> *> Seen(NumThreads, nullptr);
  std::atomic<size_t> Arrived{0};
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != NumThreads; ++I)
    Threads.emplace_back([&, I] {
      // Start together so the readers race for the first parse.
      Arrived.fetch_add(1);
      while (Arrived.load() != NumThreads)
        std::this_thread::yield();
      Seen[I] = &Entry.parsed();
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(classesParsed() - Before, 1u);
  for (const Result<ClassFile> *P : Seen) {
    ASSERT_EQ(P, Seen[0]);
    ASSERT_TRUE(P->ok());
    EXPECT_EQ((*P)->ThisClass, "Hello");
  }
}

TEST(ClassEntry, MalformedBytesCacheTheirError) {
  TelemetryOn Guard;
  const Bytes Good =
      testhelpers::serialize(testhelpers::makeHelloClass("Broken"));
  const Bytes Bad(Good.begin(), Good.begin() + Good.size() / 2);
  const ClassPath Lib = testhelpers::makeEnv();
  ClassPath Shared = Lib;
  Shared.add("Broken", Bad);
  const ClassEntry &Entry = **Shared.entry("Broken");

  struct Run {
    JvmResult Result;
    Tracefile Trace;
  };
  auto runOn = [](const ClassPath &Env) {
    CoverageRecorder Rec;
    Vm Jvm(referenceJvmPolicy(), Env, &Rec);
    Run Out;
    Out.Result = Jvm.run("Broken");
    Out.Trace = Rec.takeTrace();
    return Out;
  };

  const uint64_t Before = classesParsed();
  const Run First = runOn(Shared);
  const Run Second = runOn(Shared);
  ASSERT_FALSE(Entry.parsed().ok());
  EXPECT_EQ(classesParsed() - Before, 1u) << "the error must be cached";

  ClassPath Fresh = Lib;
  Fresh.add("Broken", Bad);
  const Run Reparsed = runOn(Fresh);
  EXPECT_EQ(classesParsed() - Before, 2u);

  EXPECT_EQ(First.Result.Error, JvmErrorKind::ClassFormatError);
  EXPECT_EQ(First.Result.Message, Entry.parsed().error());
  for (const Run *R : {&Second, &Reparsed}) {
    EXPECT_EQ(R->Result.Phase, First.Result.Phase);
    EXPECT_EQ(R->Result.Error, First.Result.Error);
    EXPECT_EQ(R->Result.Message, First.Result.Message);
    EXPECT_TRUE(R->Trace.sameSets(First.Trace));
  }
}
