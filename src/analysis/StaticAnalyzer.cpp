//===- analysis/StaticAnalyzer.cpp ----------------------------------------===//

#include "analysis/StaticAnalyzer.h"

#include "analysis/CpGraph.h"
#include "classfile/ClassReader.h"
#include "classfile/Descriptor.h"
#include "classfile/Opcodes.h"
#include "classfile/Printer.h"
#include "jvm/Phase.h"
#include "jvm/FormatChecker.h"
#include "jvm/Verifier.h"
#include "jvm/VerifierLattice.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <deque>

using namespace classfuzz;

const char *classfuzz::predictedOutcomeName(PredictedOutcome Outcome) {
  switch (Outcome) {
  case PredictedOutcome::RejectLoading:
    return "reject-loading";
  case PredictedOutcome::RejectLinking:
    return "reject-linking";
  case PredictedOutcome::PassStatic:
    return "pass";
  }
  return "?";
}

int StartupPrediction::predictedPhase() const {
  switch (Outcome) {
  case PredictedOutcome::RejectLoading:
    return 1;
  case PredictedOutcome::RejectLinking:
    return 2;
  case PredictedOutcome::PassStatic:
    return -1;
  }
  return -1;
}

bool StartupPrediction::isCompatibleWith(int ObservedPhase) const {
  switch (Outcome) {
  case PredictedOutcome::RejectLoading:
    return ObservedPhase == 1;
  case PredictedOutcome::RejectLinking:
    return ObservedPhase == 2;
  case PredictedOutcome::PassStatic:
    return ObservedPhase != 1;
  }
  return false;
}

size_t AnalysisReport::errorCount() const {
  size_t N = 0;
  for (const Diagnostic &D : Diagnostics)
    if (D.Severity == DiagSeverity::Error)
      ++N;
  return N;
}

std::string AnalysisReport::toJson() const {
  std::string J = "{\"class\":\"" + telemetry::jsonEscape(ClassName) +
                  "\",\"parsed\":" + (Parsed ? "true" : "false");
  J += ",\"prediction\":{\"outcome\":\"";
  J += predictedOutcomeName(Prediction.Outcome);
  J += "\",\"phase\":" + std::to_string(Prediction.predictedPhase());
  if (Prediction.Outcome != PredictedOutcome::PassStatic) {
    J += ",\"error\":\"";
    J += errorKindName(Prediction.Error);
    J += "\",\"message\":\"" + telemetry::jsonEscape(Prediction.Message) +
         "\"";
  }
  J += "},\"counts\":{";
  std::array<size_t, NumPassIds> Counts = countByPass(Diagnostics);
  for (size_t I = 0; I != NumPassIds; ++I) {
    if (I)
      J += ",";
    J += "\"";
    J += passIdName(static_cast<PassId>(I));
    J += "\":" + std::to_string(Counts[I]);
  }
  J += "},\"diagnostics\":[";
  for (size_t I = 0; I != Diagnostics.size(); ++I) {
    if (I)
      J += ",";
    J += Diagnostics[I].toJson();
  }
  J += "]}";
  return J;
}

StaticAnalyzer::StaticAnalyzer(const ClassPath &Env)
    : StaticAnalyzer(Env, referenceJvmPolicy()) {}

StaticAnalyzer::StaticAnalyzer(const ClassPath &Env, JvmPolicy Policy)
    : Policy(std::move(Policy)), Env(Env) {}

//===----------------------------------------------------------------------===//
// Load/link simulation (the prediction engine)
//===----------------------------------------------------------------------===//

/// Mirror of the Vm's loading and linking state, without heap or
/// interpreter. Every check, message, and recursion order below is
/// copied from Vm::loadClass/linkClass so the predicted abort is the
/// abort the VM raises. Environment classes are read from their
/// ClassPath entries' shared parses and format-checked through the
/// analyzer's EnvCache, so across a campaign of mutants each
/// runtime-library class pays those costs once, not once per
/// simulation.
struct StaticAnalyzer::SimState {
  const StaticAnalyzer &A;
  const JvmPolicy &Policy;
  const ClassPath &Env;
  const std::string *OverlayName = nullptr;
  /// The class shadowing *OverlayName (a mutant), parsed through its
  /// entry.
  const ClassEntry *Overlay = nullptr;
  /// Precomputed eager-verification result for the overlay class (see
  /// runTypeCheckPass); consulted only for *OverlayName.
  const std::optional<CheckFailure> *OverlayVerify = nullptr;
  std::set<std::string> *Touched = nullptr;

  std::map<std::string, const ClassFile *> Loaded;
  std::set<std::string> LoadingInProgress;
  std::set<std::string> Linked;
  std::optional<SimAbort> Abort;

  explicit SimState(const StaticAnalyzer &A)
      : A(A), Policy(A.Policy), Env(A.Env) {}

  bool isOverlay(const std::string &Name) const {
    return OverlayName && Name == *OverlayName;
  }

  /// Records that this walk resolved \p Name -- hits and misses alike,
  /// so chain memos know exactly which names could change their result.
  void touch(const std::string &Name) {
    if (Touched)
      Touched->insert(Name);
  }

  /// The overlay's parsed ClassFile, or nullptr when it fails to parse.
  const ClassFile *overlayClassFile() const {
    const Result<ClassFile> &Parsed = Overlay->parsed();
    return Parsed.ok() ? &*Parsed : nullptr;
  }

  void abort(JvmPhase Phase, JvmErrorKind Kind, std::string Message,
             const std::string &Culprit) {
    if (Abort)
      return;
    Abort = SimAbort{Phase, Kind, std::move(Message), Culprit};
  }

  /// Vm::lookupClassFile equivalent: loaded classes, then the shared
  /// parse cache over the environment.
  const ClassFile *lookupClassFile(const std::string &Name) {
    auto LoadedIt = Loaded.find(Name);
    if (LoadedIt != Loaded.end())
      return LoadedIt->second;
    touch(Name);
    if (isOverlay(Name))
      return overlayClassFile();
    const EnvClassInfo &Info = A.envClassInfo(Name);
    return Info.CF ? &*Info.CF : nullptr;
  }

  bool loadClass(const std::string &Name) {
    if (Loaded.contains(Name))
      return true;
    if (LoadingInProgress.contains(Name)) {
      abort(JvmPhase::Loading, JvmErrorKind::ClassCircularityError, Name,
            Name);
      return false;
    }
    touch(Name);
    const ClassFile *CF = nullptr;
    if (isOverlay(Name)) {
      CF = overlayClassFile();
      if (!CF) {
        abort(JvmPhase::Loading, JvmErrorKind::ClassFormatError,
              Overlay->parsed().error(), Name);
        return false;
      }
      if (CF->ThisClass != Name) {
        abort(JvmPhase::Loading, JvmErrorKind::NoClassDefFoundError,
              Name + " (wrong name: " + CF->ThisClass + ")", Name);
        return false;
      }
      if (auto Failure = checkClassFormat(*CF, Policy, nullptr)) {
        abort(JvmPhase::Loading, Failure->Kind, Failure->Message, Name);
        return false;
      }
    } else {
      const EnvClassInfo &Info = A.envClassInfo(Name);
      if (!Info.Entry) {
        abort(JvmPhase::Loading, JvmErrorKind::NoClassDefFoundError, Name,
              Name);
        return false;
      }
      if (!Info.CF) {
        abort(JvmPhase::Loading, JvmErrorKind::ClassFormatError,
              Info.Entry->parsed().error(), Name);
        return false;
      }
      if (Info.CF->ThisClass != Name) {
        abort(JvmPhase::Loading, JvmErrorKind::NoClassDefFoundError,
              Name + " (wrong name: " + Info.CF->ThisClass + ")", Name);
        return false;
      }
      if (Info.FormatFailure) {
        abort(JvmPhase::Loading, Info.FormatFailure->Kind,
              Info.FormatFailure->Message, Name);
        return false;
      }
      CF = &*Info.CF;
    }
    LoadingInProgress.insert(Name);
    if (!CF->SuperClass.empty() && !loadClass(CF->SuperClass)) {
      LoadingInProgress.erase(Name);
      return false;
    }
    for (const std::string &Iface : CF->Interfaces) {
      if (!loadClass(Iface)) {
        LoadingInProgress.erase(Name);
        return false;
      }
    }
    LoadingInProgress.erase(Name);
    Loaded.emplace(Name, CF);
    return true;
  }

  bool linkClass(const std::string &Name) {
    if (Linked.contains(Name))
      return true;
    auto It = Loaded.find(Name);
    if (It == Loaded.end())
      return true;
    const ClassFile &CF = *It->second;

    // Link supers first (matching Vm::linkClass recursion order).
    if (!CF.SuperClass.empty() && Loaded.contains(CF.SuperClass) &&
        !linkClass(CF.SuperClass))
      return false;
    for (const std::string &Iface : CF.Interfaces)
      if (Loaded.contains(Iface) && !linkClass(Iface))
        return false;

    if (!linkOwnChecks(CF, Name))
      return false;

    Linked.insert(Name);
    return true;
  }

  /// The non-recursive tail of linkClass: every check Vm::linkClass
  /// runs for \p Name itself, after its supertypes linked. Callable
  /// directly when the supertype chains are already proven clean.
  bool linkOwnChecks(const ClassFile &CF, const std::string &Name) {
    const ClassFile *Super =
        CF.SuperClass.empty() ? nullptr : lookupClassFile(CF.SuperClass);

    if (Policy.CheckHierarchyKinds && Super) {
      if (!CF.isInterface() && (Super->AccessFlags & ACC_INTERFACE)) {
        abort(JvmPhase::Linking,
              JvmErrorKind::IncompatibleClassChangeError,
              "class " + CF.ThisClass + " has interface " + CF.SuperClass +
                  " as super class",
              Name);
        return false;
      }
      for (const std::string &IfaceName : CF.Interfaces) {
        const ClassFile *Iface = lookupClassFile(IfaceName);
        if (Iface && !(Iface->AccessFlags & ACC_INTERFACE)) {
          abort(JvmPhase::Linking,
                JvmErrorKind::IncompatibleClassChangeError,
                "class " + CF.ThisClass + " implements non-interface " +
                    IfaceName,
                Name);
          return false;
        }
      }
    }

    if (Policy.CheckFinalSuperclass && Super &&
        (Super->AccessFlags & ACC_FINAL)) {
      abort(JvmPhase::Linking, JvmErrorKind::VerifyError,
            "Cannot inherit from final class " + CF.SuperClass, Name);
      return false;
    }

    if (Policy.CheckThrowsAccessibility) {
      for (const MethodInfo &M : CF.Methods) {
        for (const std::string &ExcName : M.Exceptions) {
          const ClassFile *Exc = lookupClassFile(ExcName);
          if (!Exc)
            continue;
          bool SamePackage =
              packagePrefix(ExcName) == packagePrefix(CF.ThisClass);
          if (!(Exc->AccessFlags & ACC_PUBLIC) && !SamePackage) {
            abort(JvmPhase::Linking, JvmErrorKind::IllegalAccessError,
                  "class " + CF.ThisClass + " cannot access class " +
                      ExcName + " declared in throws clause",
                  Name);
            return false;
          }
        }
      }
    }

    if (Policy.Verification == CheckMode::Eager) {
      if (OverlayVerify && isOverlay(Name)) {
        // The type-check pass already ran verifyMethod over this exact
        // class with this exact lookup view; reuse its first failure.
        if (*OverlayVerify) {
          abort(JvmPhase::Linking, (*OverlayVerify)->Kind,
                (*OverlayVerify)->Message, Name);
          return false;
        }
      } else {
        ClassLookupFn Lookup = [this](const std::string &N) {
          return lookupClassFile(N);
        };
        for (const MethodInfo &M : CF.Methods) {
          if (auto Failure = verifyMethod(CF, M, Policy, Lookup, nullptr)) {
            abort(JvmPhase::Linking, Failure->Kind, Failure->Message, Name);
            return false;
          }
        }
      }
    }
    if (Policy.Verification == CheckMode::Lazy &&
        Policy.StructuralVerifyOnLink) {
      for (const MethodInfo &M : CF.Methods) {
        if (auto Failure = verifyMethodStructural(CF, M, Policy, nullptr)) {
          abort(JvmPhase::Linking, Failure->Kind, Failure->Message, Name);
          return false;
        }
      }
    }

    return true;
  }

  static std::string packagePrefix(const std::string &InternalName) {
    size_t Slash = InternalName.rfind('/');
    return Slash == std::string::npos ? std::string()
                                      : InternalName.substr(0, Slash);
  }
};

const StaticAnalyzer::EnvClassInfo &
StaticAnalyzer::envClassInfo(const std::string &Name) const {
  auto It = EnvCache.find(Name);
  if (It != EnvCache.end())
    return It->second;
  EnvClassInfo Info;
  if (const ClassEntryRef *Entry = Env.entry(Name)) {
    Info.Entry = *Entry;
    const Result<ClassFile> &Parsed = Info.Entry->parsed();
    if (Parsed.ok()) {
      Info.CF = &*Parsed;
      Info.FormatFailure = checkClassFormat(*Info.CF, Policy, nullptr);
    }
  }
  return EnvCache.emplace(Name, std::move(Info)).first->second;
}

std::optional<StaticAnalyzer::SimAbort>
StaticAnalyzer::simulateFresh(const std::string &Name,
                              std::set<std::string> *Touched) const {
  SimState Sim(*this);
  Sim.Touched = Touched;
  if (!Sim.loadClass(Name))
    return Sim.Abort;
  Sim.linkClass(Name);
  return Sim.Abort;
}

const StaticAnalyzer::ChainMemo &
StaticAnalyzer::chainMemo(const std::string &Name) const {
  auto It = Memo.find(Name);
  if (It != Memo.end())
    return It->second;
  ChainMemo Entry;
  Entry.Abort = simulateFresh(Name, &Entry.Touched);
  return Memo.emplace(Name, std::move(Entry)).first->second;
}

std::optional<StaticAnalyzer::SimAbort>
StaticAnalyzer::simulate(const std::string &Name, const ClassEntry *Overlay,
                         const std::optional<CheckFailure>
                             *FirstVerifyFailure) const {
  if (!Overlay) {
    // Environment class: the memoized chain walk is the whole answer.
    return chainMemo(Name).Abort;
  }
  // Mutant overlay. The mutant's own load steps always run fresh; its
  // supertype chains reuse memoized walks when the overlay cannot have
  // influenced them (the mutant's name was never looked up).
  const Result<ClassFile> &Parsed = Overlay->parsed();
  if (!Parsed.ok())
    return SimAbort{JvmPhase::Loading, JvmErrorKind::ClassFormatError,
                    Parsed.error(), Name};
  const ClassFile &CF = *Parsed;
  if (CF.ThisClass != Name)
    return SimAbort{JvmPhase::Loading, JvmErrorKind::NoClassDefFoundError,
                    Name + " (wrong name: " + CF.ThisClass + ")", Name};
  if (auto Failure = checkClassFormat(CF, Policy, nullptr))
    return SimAbort{JvmPhase::Loading, Failure->Kind, Failure->Message,
                    Name};

  // Direct supertypes: a chain that touches the mutant's name (shadowed
  // by the overlay, or a genuine cycle back into it) must re-simulate
  // with the overlay active; anything else reuses the memo.
  std::vector<std::string> DirectSupers;
  if (!CF.SuperClass.empty())
    DirectSupers.push_back(CF.SuperClass);
  for (const std::string &Iface : CF.Interfaces)
    DirectSupers.push_back(Iface);
  for (const std::string &Super : DirectSupers) {
    if (Super == Name)
      // Self-inheritance: Vm::loadClass hits LoadingInProgress.
      return SimAbort{JvmPhase::Loading,
                      JvmErrorKind::ClassCircularityError, Super, Super};
    const ChainMemo &M = chainMemo(Super);
    if (!M.Touched.contains(Name)) {
      if (M.Abort)
        return M.Abort;
      continue;
    }
    // The chain sees the overlay: run it fresh with the overlay and
    // the mutant marked in-progress, exactly like Vm::loadClass does.
    SimState Sim(*this);
    Sim.OverlayName = &Name;
    Sim.Overlay = Overlay;
    Sim.LoadingInProgress.insert(Name);
    if (!Sim.loadClass(Super))
      return Sim.Abort;
    Sim.linkClass(Super);
    if (Sim.Abort)
      return Sim.Abort;
  }

  // Every chain is clean: only the mutant's own link checks remain.
  // The mutant itself parsed and format-checked above, and its direct
  // supertypes load and link cleanly, so loadClass(Name) cannot abort;
  // linkClass(Name)'s supertype recursion cannot either. That leaves
  // exactly linkOwnChecks -- run it directly against a state whose
  // lookups see the overlay.
  SimState Sim(*this);
  Sim.OverlayName = &Name;
  Sim.Overlay = Overlay;
  Sim.OverlayVerify = FirstVerifyFailure;
  Sim.linkOwnChecks(CF, Name);
  return Sim.Abort;
}

StartupPrediction
StaticAnalyzer::predictionFrom(const std::optional<SimAbort> &Abort) const {
  StartupPrediction P;
  if (!Abort) {
    P.Outcome = PredictedOutcome::PassStatic;
    return P;
  }
  P.Outcome = Abort->Phase == JvmPhase::Loading
                  ? PredictedOutcome::RejectLoading
                  : PredictedOutcome::RejectLinking;
  P.Error = Abort->Kind;
  P.Message = Abort->Message;
  return P;
}

StartupPrediction
StaticAnalyzer::predictStartupOutcome(const std::string &Name,
                                      const ClassEntry &Entry) const {
  return predictionFrom(simulate(Name, &Entry));
}

StartupPrediction
StaticAnalyzer::predictStartupOutcome(const std::string &Name,
                                      const Bytes &Data) const {
  return predictStartupOutcome(Name, ClassEntry(Data));
}

void StaticAnalyzer::addEnvironmentClass(const std::string &Name,
                                         Bytes Data) {
  addEnvironmentClass(Name, makeClassEntry(std::move(Data)));
}

void StaticAnalyzer::addEnvironmentClass(const std::string &Name,
                                         ClassEntryRef Entry) {
  // Capture the hierarchy edges this redefinition rewires before the
  // caches forget them: sibling sets keyed off both the old and the
  // new parent change. Only needed once typed holes are in play --
  // any sibling query builds the children index, which parses every
  // env class into EnvCache, so the old parent is always on hand.
  std::string OldParent;
  std::string NewParent;
  if (Children || !HoleMemos.empty()) {
    if (auto CacheIt = EnvCache.find(Name);
        CacheIt != EnvCache.end() && CacheIt->second.CF)
      OldParent = CacheIt->second.CF->SuperClass;
    if (const Result<ClassFile> &Parsed = Entry->parsed(); Parsed.ok())
      NewParent = Parsed->SuperClass;
  }

  Env.add(Name, std::move(Entry));
  EnvCache.erase(Name);
  // Touched records every environment lookup -- hits and misses alike
  // -- so "Touched contains Name" is exactly "this walk could now
  // resolve differently".
  for (auto It = Memo.begin(); It != Memo.end();) {
    if (It->second.Touched.contains(Name))
      It = Memo.erase(It);
    else
      ++It;
  }
  // Same contract for hole memos, plus the sibling dimension: a hole
  // list is stale when its extraction ever queried the children of the
  // class's old or new superclass.
  for (auto It = HoleMemos.begin(); It != HoleMemos.end();) {
    const HoleMemo &M = It->second;
    bool Stale = M.Touched.contains(Name) ||
                 (!OldParent.empty() && M.SiblingParents.contains(OldParent)) ||
                 (!NewParent.empty() && M.SiblingParents.contains(NewParent));
    if (Stale)
      It = HoleMemos.erase(It);
    else
      ++It;
  }
  if (Children) {
    if (!OldParent.empty()) {
      auto It = Children->find(OldParent);
      if (It != Children->end())
        std::erase(It->second, Name);
    }
    if (!NewParent.empty()) {
      std::vector<std::string> &Kids = (*Children)[NewParent];
      auto Pos = std::lower_bound(Kids.begin(), Kids.end(), Name);
      if (Pos == Kids.end() || *Pos != Name)
        Kids.insert(Pos, Name);
    }
  }
}

const std::map<std::string, std::vector<std::string>> &
StaticAnalyzer::childrenIndex() const {
  if (!Children) {
    Children.emplace();
    // names() is sorted, so every child list comes out sorted too.
    for (const std::string &Name : Env.names()) {
      const EnvClassInfo &Info = envClassInfo(Name);
      if (Info.CF && !Info.CF->SuperClass.empty())
        (*Children)[Info.CF->SuperClass].push_back(Name);
    }
  }
  return *Children;
}

HoleEnv StaticAnalyzer::holeEnv(std::set<std::string> *Touched,
                                std::set<std::string> *SiblingParents) const {
  HoleEnv E;
  E.Siblings = [this, Touched,
                SiblingParents](const std::string &Name) {
    if (Touched)
      Touched->insert(Name);
    const EnvClassInfo &Info = envClassInfo(Name);
    if (!Info.CF || Info.CF->SuperClass.empty())
      return std::vector<std::string>();
    const std::string &Parent = Info.CF->SuperClass;
    if (SiblingParents)
      SiblingParents->insert(Parent);
    std::vector<std::string> Out;
    auto It = childrenIndex().find(Parent);
    if (It != childrenIndex().end())
      for (const std::string &Kid : It->second)
        if (Kid != Name)
          Out.push_back(Kid);
    return Out;
  };
  return E;
}

const TypedHoleList &
StaticAnalyzer::typedHoles(const std::string &Name) const {
  auto It = HoleMemos.find(Name);
  if (It != HoleMemos.end())
    return It->second.Holes;
  HoleMemo Entry;
  Entry.Touched.insert(Name);
  const EnvClassInfo &Info = envClassInfo(Name);
  if (Info.CF)
    Entry.Holes = extractTypedHoles(
        *Info.CF, holeEnv(&Entry.Touched, &Entry.SiblingParents));
  return HoleMemos.emplace(Name, std::move(Entry)).first->second.Holes;
}

TypedHoleList StaticAnalyzer::typedHolesFor(const std::string &Name,
                                            const Bytes &Data) const {
  (void)Name; // The overlay name never feeds sibling queries: holes
              // skip self-references, so only referenced classes --
              // which live in the environment -- are looked up.
  auto Parsed = parseClassFile(Data);
  if (!Parsed.ok())
    return {};
  ClassFile CF = Parsed.take();
  return extractTypedHoles(CF, holeEnv(nullptr, nullptr));
}

//===----------------------------------------------------------------------===//
// Lint passes
//===----------------------------------------------------------------------===//

void StaticAnalyzer::runCpGraphPass(const ClassFile &CF,
                                    std::vector<Diagnostic> &Out) const {
  std::vector<Diagnostic> Findings = CpGraph::build(CF).check();
  Out.insert(Out.end(), std::make_move_iterator(Findings.begin()),
             std::make_move_iterator(Findings.end()));
}

void StaticAnalyzer::runFormatPass(const ClassFile &CF,
                                   std::vector<Diagnostic> &Out) const {
  // The same walk the VM's loading phase runs, but exhaustively: every
  // failure, not just the first. Message strings are identical by
  // construction, which the superset test pins.
  runFormatChecks(CF, Policy, nullptr, [&](const CheckFailure &Failure) {
    Diagnostic D;
    D.Pass = PassId::Format;
    D.Severity = DiagSeverity::Error;
    D.Location = DiagLocation::none();
    D.Message = Failure.Message;
    Out.push_back(std::move(D));
    return true;
  });
}

void StaticAnalyzer::runCodeShapePass(const ClassFile &CF,
                                      std::vector<Diagnostic> &Out) const {
  for (const MethodInfo &M : CF.Methods) {
    if (!M.Code)
      continue;
    auto Add = [&](DiagSeverity Severity, uint32_t Offset,
                   std::string Message) {
      Diagnostic D;
      D.Pass = PassId::CodeShape;
      D.Severity = Severity;
      D.Location = DiagLocation::bytecode(M.Name, M.Descriptor, Offset);
      D.Message = std::move(Message);
      Out.push_back(std::move(D));
    };

    if (M.Code->Code.empty()) {
      Add(DiagSeverity::Error, 0, "code array is empty");
      continue;
    }

    // Decode every instruction; a malformed encoding ends the method's
    // walk (nothing beyond it has defined instruction boundaries).
    std::map<uint32_t, Insn> Insns;
    bool Decodable = true;
    {
      InsnDecoder Decoder(M.Code->Code);
      Insn I;
      while (Decoder.decodeNext(I))
        Insns[I.Offset] = I;
      if (!Decoder.valid()) {
        Add(DiagSeverity::Error, Decoder.position(),
            "malformed bytecode at offset " +
                std::to_string(Decoder.position()));
        Decodable = false;
      }
    }

    // Branch targets and switch-free control flow.
    for (const auto &[Offset, I] : Insns) {
      bool IsBranch = (I.Op >= OP_ifeq && I.Op <= OP_jsr) ||
                      I.Op == OP_ifnull || I.Op == OP_ifnonnull ||
                      I.Op == OP_goto_w;
      if (IsBranch && !Insns.contains(static_cast<uint32_t>(I.Operand1)))
        Add(DiagSeverity::Error, Offset,
            "branch target " + std::to_string(I.Operand1) +
                " is not an instruction start");
    }

    // Exception-table shape.
    for (const ExceptionTableEntry &E : M.Code->ExceptionTable) {
      bool Malformed = E.StartPc >= E.EndPc ||
                       E.EndPc > M.Code->Code.size() ||
                       !Insns.contains(E.StartPc) || !Insns.contains(E.HandlerPc);
      if (Malformed)
        Add(DiagSeverity::Error, E.StartPc,
            "malformed exception table entry [" +
                std::to_string(E.StartPc) + ", " + std::to_string(E.EndPc) +
                ") -> " + std::to_string(E.HandlerPc));
    }

    // Constant-pool operand tags per opcode (report all, keep going).
    for (const auto &[Offset, I] : Insns) {
      uint16_t Index = static_cast<uint16_t>(I.Operand1);
      auto TagOf = [&](uint16_t Idx) {
        return CF.CP.isValidIndex(Idx) ? CF.CP.at(Idx).Tag : CpTag::Invalid;
      };
      CpTag Tag = TagOf(Index);
      auto Complain = [&](const std::string &Expected) {
        Add(DiagSeverity::Error, Offset,
            std::string(opcodeName(I.Op)) + " operand #" +
                std::to_string(Index) + " is not " + Expected);
      };
      switch (I.Op) {
      case OP_ldc:
      case OP_ldc_w:
        if (Tag != CpTag::Integer && Tag != CpTag::Float &&
            Tag != CpTag::String && Tag != CpTag::Class)
          Complain("a loadable single-slot constant");
        break;
      case OP_ldc2_w:
        if (Tag != CpTag::Long && Tag != CpTag::Double)
          Complain("a long or double constant");
        break;
      case OP_getstatic:
      case OP_putstatic:
      case OP_getfield:
      case OP_putfield:
        if (Tag != CpTag::Fieldref)
          Complain("a CONSTANT_Fieldref");
        break;
      case OP_invokevirtual:
      case OP_invokespecial:
      case OP_invokestatic:
        if (Tag != CpTag::Methodref && Tag != CpTag::InterfaceMethodref)
          Complain("a method reference");
        break;
      case OP_invokeinterface:
        if (Tag != CpTag::InterfaceMethodref)
          Complain("a CONSTANT_InterfaceMethodref");
        break;
      case OP_new:
      case OP_anewarray:
      case OP_checkcast:
      case OP_instanceof:
      case OP_multianewarray:
        if (Tag != CpTag::Class)
          Complain("a CONSTANT_Class");
        break;
      default:
        break;
      }
    }

    if (!Decodable)
      continue;

    // Abstract stack-shape walk over the shared lattice's depth table
    // (the same insnStackEffect the verifier's pre-pass uses). First
    // inconsistency ends the method's walk; later methods still run.
    MethodDescriptor MD;
    if (!parseMethodDescriptor(M.Descriptor, MD))
      continue; // The format pass already reported the descriptor.
    int ArgSlots = MD.argSlots() + (M.isStatic() ? 0 : 1);
    if (ArgSlots > M.Code->MaxLocals) {
      Add(DiagSeverity::Error, 0, "arguments exceed max_locals");
      continue;
    }

    std::map<uint32_t, int> DepthAt;
    std::deque<uint32_t> Worklist;
    DepthAt[0] = 0;
    Worklist.push_back(0);
    for (const ExceptionTableEntry &E : M.Code->ExceptionTable) {
      if (!Insns.contains(E.HandlerPc))
        continue;
      DepthAt[E.HandlerPc] = 1;
      Worklist.push_back(E.HandlerPc);
    }
    size_t Steps = 0;
    bool WalkFailed = false;
    while (!Worklist.empty() && !WalkFailed) {
      if (++Steps > 4 * Insns.size() + 64)
        break;
      uint32_t Offset = Worklist.front();
      Worklist.pop_front();
      auto InsnIt = Insns.find(Offset);
      if (InsnIt == Insns.end())
        continue;
      const Insn &I = InsnIt->second;
      int Pops = 0, Pushes = 0;
      if (!insnStackEffect(CF, I, Pops, Pushes))
        break; // Unknown effect (already diagnosed via operand checks).
      int Depth = DepthAt[Offset];
      if (Depth < Pops) {
        Add(DiagSeverity::Error, Offset,
            "operand stack underflow: depth " + std::to_string(Depth) +
                ", " + std::string(opcodeName(I.Op)) + " pops " +
                std::to_string(Pops));
        break;
      }
      int Next = Depth - Pops + Pushes;
      if (Next > M.Code->MaxStack) {
        Add(DiagSeverity::Error, Offset,
            "operand stack overflow: depth " + std::to_string(Next) +
                " exceeds max_stack " + std::to_string(M.Code->MaxStack));
        break;
      }
      bool LocalOp = (I.Op >= OP_iload && I.Op <= OP_aload) ||
                     (I.Op >= OP_istore && I.Op <= OP_astore) ||
                     I.Op == OP_iinc;
      if (LocalOp && I.Operand1 >= M.Code->MaxLocals) {
        Add(DiagSeverity::Error, Offset,
            "local variable index " + std::to_string(I.Operand1) +
                " out of range (max_locals " +
                std::to_string(M.Code->MaxLocals) + ")");
        break;
      }
      auto Propagate = [&](uint32_t Succ) {
        auto It = DepthAt.find(Succ);
        if (It == DepthAt.end()) {
          DepthAt[Succ] = Next;
          Worklist.push_back(Succ);
        } else if (It->second != Next) {
          Add(DiagSeverity::Error, Succ,
              "inconsistent stack depth at join: " +
                  std::to_string(It->second) + " vs " +
                  std::to_string(Next));
          WalkFailed = true;
        }
      };
      bool IsBranch = (I.Op >= OP_ifeq && I.Op <= OP_jsr) ||
                      I.Op == OP_ifnull || I.Op == OP_ifnonnull ||
                      I.Op == OP_goto_w;
      bool Terminates = (I.Op >= OP_ireturn && I.Op <= OP_return) ||
                        I.Op == OP_athrow || I.Op == OP_goto ||
                        I.Op == OP_goto_w || I.Op == OP_ret ||
                        I.Op == OP_tableswitch || I.Op == OP_lookupswitch;
      if (IsBranch && Insns.contains(static_cast<uint32_t>(I.Operand1)))
        Propagate(static_cast<uint32_t>(I.Operand1));
      if (!Terminates && !WalkFailed) {
        uint32_t FallThrough = Offset + I.Length;
        if (Insns.contains(FallThrough)) {
          Propagate(FallThrough);
        } else {
          Add(DiagSeverity::Error, Offset,
              "execution falls off the end of the code");
          break;
        }
      }
    }
  }
}

void StaticAnalyzer::runTypeCheckPass(
    const ClassFile &CF, const std::string &Name, const ClassEntry *Overlay,
    std::vector<Diagnostic> &Out,
    std::optional<CheckFailure> *FirstVerifyFailure) const {
  // Full dataflow verification of every method -- the VM stops at the
  // first failing method; the analyzer reports each method's failure.
  if (FirstVerifyFailure)
    FirstVerifyFailure->reset();
  SimState Sim(*this);
  if (Overlay) {
    Sim.OverlayName = &Name;
    Sim.Overlay = Overlay;
  }
  // Self-references resolve to the class under analysis even when its
  // recorded name differs from the lookup name.
  ClassLookupFn Lookup = [&](const std::string &N) -> const ClassFile * {
    if (N == CF.ThisClass)
      return &CF;
    return Sim.lookupClassFile(N);
  };
  for (const MethodInfo &M : CF.Methods) {
    if (auto Failure = verifyMethod(CF, M, Policy, Lookup, nullptr)) {
      if (FirstVerifyFailure && !*FirstVerifyFailure)
        *FirstVerifyFailure = *Failure;
      Diagnostic D;
      D.Pass = PassId::TypeCheck;
      D.Severity = DiagSeverity::Error;
      D.Location = DiagLocation::method(M.Name, M.Descriptor);
      D.Message = Failure->Message;
      Out.push_back(std::move(D));
    }
  }
}

void StaticAnalyzer::runHierarchyPass(const ClassFile &CF,
                                      const std::string &Name,
                                      const std::optional<SimAbort> &Abort,
                                      std::vector<Diagnostic> &Out) const {
  auto Add = [&](DiagSeverity Severity, std::string Message) {
    Diagnostic D;
    D.Pass = PassId::Hierarchy;
    D.Severity = Severity;
    D.Location = DiagLocation::none();
    D.Message = std::move(Message);
    Out.push_back(std::move(D));
  };

  // Lookups below run against the plain environment: the class's own
  // file is already in hand, and its supertypes come from Env.
  SimState Sim(*this);

  // Existence and kind of every direct supertype.
  auto Inspect = [&](const std::string &SuperName, bool AsInterface) {
    if (SuperName == Name || SuperName == CF.ThisClass) {
      Add(DiagSeverity::Error,
          "class " + CF.ThisClass + " is its own supertype");
      return;
    }
    const ClassFile *Super = Sim.lookupClassFile(SuperName);
    if (!Super) {
      Add(DiagSeverity::Error,
          std::string(AsInterface ? "interface " : "superclass ") +
              SuperName + " cannot be resolved on the class path");
      return;
    }
    bool IsInterface = (Super->AccessFlags & ACC_INTERFACE) != 0;
    if (AsInterface && !IsInterface)
      Add(DiagSeverity::Error, "class " + CF.ThisClass +
                                   " implements non-interface " + SuperName);
    if (!AsInterface && IsInterface && !CF.isInterface())
      Add(DiagSeverity::Error, "class " + CF.ThisClass + " has interface " +
                                   SuperName + " as super class");
    if (!AsInterface && (Super->AccessFlags & ACC_FINAL))
      Add(DiagSeverity::Error,
          "Cannot inherit from final class " + SuperName);
  };
  if (!CF.SuperClass.empty())
    Inspect(CF.SuperClass, false);
  for (const std::string &Iface : CF.Interfaces)
    Inspect(Iface, true);

  // Superclass-chain circularity (bounded walk, like the VM's
  // LoadingInProgress detection but without loading).
  {
    std::set<std::string> Seen{CF.ThisClass};
    std::string Cur = CF.SuperClass;
    for (int Depth = 0; !Cur.empty() && Depth < 64; ++Depth) {
      if (!Seen.insert(Cur).second) {
        Add(DiagSeverity::Error,
            "superclass chain of " + CF.ThisClass + " cycles at " + Cur);
        break;
      }
      const ClassFile *Super = Sim.lookupClassFile(Cur);
      if (!Super)
        break;
      Cur = Super->SuperClass;
    }
  }

  // Throws-clause accessibility (Problem 3), policy-gated like the VM.
  if (Policy.CheckThrowsAccessibility) {
    for (const MethodInfo &M : CF.Methods) {
      for (const std::string &ExcName : M.Exceptions) {
        const ClassFile *Exc = Sim.lookupClassFile(ExcName);
        if (!Exc)
          continue;
        bool SamePackage = SimState::packagePrefix(ExcName) ==
                           SimState::packagePrefix(CF.ThisClass);
        if (!(Exc->AccessFlags & ACC_PUBLIC) && !SamePackage)
          Add(DiagSeverity::Error,
              "class " + CF.ThisClass + " cannot access class " + ExcName +
                  " declared in throws clause");
      }
    }
  }

  // A chain failure the per-class passes cannot see (the culprit is a
  // supertype, not this class) surfaces as one hierarchy finding.
  if (Abort && Abort->Culprit != Name && Abort->Culprit != CF.ThisClass)
    Add(DiagSeverity::Error, "supertype chain: " + Abort->Message +
                                 " (in " + Abort->Culprit + ")");
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

AnalysisReport StaticAnalyzer::analyzeClass(const std::string &Name,
                                            const Bytes &Data) const {
  return analyzeClass(Name, ClassEntry(Data));
}

AnalysisReport StaticAnalyzer::analyzeClass(const std::string &Name,
                                            const ClassEntry &Entry) const {
  AnalysisReport Report;
  Report.ClassName = Name;

  const Result<ClassFile> &Parsed = Entry.parsed();
  if (!Parsed.ok()) {
    Diagnostic D;
    D.Pass = PassId::Parse;
    D.Severity = DiagSeverity::Error;
    D.Location = DiagLocation::none();
    D.Message = Parsed.error();
    Report.Diagnostics.push_back(std::move(D));
    Report.Prediction.Outcome = PredictedOutcome::RejectLoading;
    Report.Prediction.Error = JvmErrorKind::ClassFormatError;
    Report.Prediction.Message = Parsed.error();
    return Report;
  }
  const ClassFile &CF = *Parsed;
  Report.Parsed = true;

  if (CF.ThisClass != Name) {
    Diagnostic D;
    D.Pass = PassId::Parse;
    D.Severity = DiagSeverity::Error;
    D.Location = DiagLocation::none();
    D.Message =
        "class file for " + Name + " has wrong name " + CF.ThisClass;
    Report.Diagnostics.push_back(std::move(D));
  }

  runCpGraphPass(CF, Report.Diagnostics);
  runFormatPass(CF, Report.Diagnostics);
  runCodeShapePass(CF, Report.Diagnostics);
  std::optional<CheckFailure> FirstVerifyFailure;
  runTypeCheckPass(CF, Name, &Entry, Report.Diagnostics,
                   &FirstVerifyFailure);

  std::optional<SimAbort> Abort = simulate(Name, &Entry, &FirstVerifyFailure);
  runHierarchyPass(CF, Name, Abort, Report.Diagnostics);
  Report.Prediction = predictionFrom(Abort);
  return Report;
}

AnalysisReport StaticAnalyzer::analyzeClass(const std::string &Name) const {
  const ClassEntryRef *Entry = Env.entry(Name);
  if (!Entry) {
    AnalysisReport Report;
    Report.ClassName = Name;
    Diagnostic D;
    D.Pass = PassId::Parse;
    D.Severity = DiagSeverity::Error;
    D.Location = DiagLocation::none();
    D.Message = "class " + Name + " not found on class path";
    Report.Diagnostics.push_back(std::move(D));
    Report.Prediction.Outcome = PredictedOutcome::RejectLoading;
    Report.Prediction.Error = JvmErrorKind::NoClassDefFoundError;
    Report.Prediction.Message = Name;
    return Report;
  }
  return analyzeClass(Name, **Entry);
}

std::string StaticAnalyzer::renderAnnotated(const AnalysisReport &Report,
                                            const Bytes &Data) {
  std::string Out;
  auto Parsed = parseClassFile(Data);
  if (Parsed.ok())
    Out += printClassFile(*Parsed);
  else
    Out += "<unparseable class file: " + Parsed.error() + ">\n";

  Out += "\nAnalysis of " + Report.ClassName + ":\n";
  Out += "  prediction: ";
  Out += predictedOutcomeName(Report.Prediction.Outcome);
  if (Report.Prediction.Outcome != PredictedOutcome::PassStatic) {
    Out += " (";
    Out += errorKindName(Report.Prediction.Error);
    Out += ": " + Report.Prediction.Message + ")";
  }
  Out += "\n";
  if (Report.Diagnostics.empty()) {
    Out += "  no findings\n";
    return Out;
  }
  for (const Diagnostic &D : Report.Diagnostics) {
    Out += "  [";
    Out += passIdName(D.Pass);
    Out += "/";
    Out += severityName(D.Severity);
    Out += "] ";
    std::string Loc = D.Location.toString();
    if (!Loc.empty())
      Out += Loc + ": ";
    Out += D.Message + "\n";
  }
  return Out;
}
