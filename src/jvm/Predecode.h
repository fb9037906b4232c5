//===- jvm/Predecode.h - Lowered instruction stream for the fast tiers ---===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-decoder lowers a method's bytecode once per Vm into a dense,
/// cached instruction stream shared by the threaded and baseline tiers
/// (each call counts one `work.methods_predecoded`):
///
///  * one PInsn per instruction, in code order, with the opcode mapped
///    to a dense handler token;
///  * branch targets resolved from byte offsets to instruction indices
///    (an unresolvable target lowers to InvalidIndex, which the runtime
///    turns into an "execution fell off the code" VerifyError);
///  * constant-pool member/class references pre-fetched into side
///    tables, with resolution *errors* recorded but not raised -- every
///    abort still happens at execution time, when the site runs.
///
/// The lowering is purely syntactic: it never touches the class
/// registry, the heap, or coverage, so a predecoded method can be cached
/// per (Vm, method) and shared by every invocation.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_JVM_PREDECODE_H
#define CLASSFUZZ_JVM_PREDECODE_H

#include "classfile/ClassFile.h"
#include "classfile/ConstantPool.h"
#include "classfile/Descriptor.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace classfuzz {

/// Dense dispatch tokens. The threaded interpreter indexes its goto
/// table with these; the baseline tier binds one thunk per token. Family
/// handlers (H_IArith, H_Conv, ...) disambiguate on PInsn::Op.
enum Handler : uint8_t {
  H_Nop,
  H_AconstNull,
  H_IPush, ///< iconst_*/bipush/sipush; A = value.
  H_LPush, ///< lconst_*; A = value.
  H_FPush, ///< fconst_*; A = value.
  H_DPush, ///< dconst_*; A = value.
  H_Ldc,   ///< ldc/ldc_w/ldc2_w; A = constant pool index.
  H_Iinc,  ///< A = slot, B = delta.
  H_Goto,
  H_Return,  ///< return.
  H_VReturn, ///< [ilfda]return.
  H_Athrow,
  H_Pop,
  H_Pop2,
  H_Dup,
  H_DupX1,
  H_Swap,
  H_ArrayLength,
  H_NewArray,
  H_ANewArray, ///< A = class site index.
  H_ALoad,     ///< iaload/aaload.
  H_AStore,    ///< iastore/aastore.
  H_New,       ///< A = class site index.
  H_Checkcast, ///< A = class site index.
  H_InstanceOf, ///< A = class site index.
  H_Monitor,
  H_GetStatic, ///< A = member site index.
  H_PutStatic, ///< A = member site index.
  H_GetField,  ///< A = member site index.
  H_PutField,  ///< A = member site index.
  H_Invoke,    ///< invoke{static,virtual,special,interface}; A = member site.
  H_Load,      ///< [ilfda]load and short forms; A = slot.
  H_Store,     ///< [ilfda]store and short forms; A = slot.
  H_IArith,    ///< iadd..ixor family; Op disambiguates.
  H_INeg,
  H_Conv, ///< 0x85..0x93 conversions; Op disambiguates.
  H_If,   ///< ifeq..ifle; Op disambiguates.
  H_IfICmp,
  H_IfACmp,
  H_IfNull,
  H_Switch, ///< tableswitch/lookupswitch -> default target.
  H_Unsupported,
  NumHandlers,
};

/// Instruction index marking "no valid target": jumping or falling
/// through to it raises the fell-off-the-code VerifyError.
constexpr uint32_t InvalidInsnIndex = 0xFFFFFFFFu;

/// One lowered instruction.
struct PInsn {
  uint8_t Op = 0;      ///< Original opcode (probes + family dispatch).
  uint8_t Handler = H_Nop;
  uint32_t Offset = 0; ///< Byte offset (exception-table matching).
  int32_t A = 0;       ///< Value / slot / side-table index.
  int32_t B = 0;       ///< Secondary operand (iinc delta).
  uint32_t Target = InvalidInsnIndex; ///< Branch target (insn index).
};

/// A pre-fetched constant-pool member reference (field or method site).
/// Errors are deferred: the site records what resolution failed with,
/// and the tier raises it when the site executes.
struct MemberSite {
  bool Ok = false;
  std::string Error; ///< getMemberRef failure message when !Ok.
  ConstantPool::MemberRef Ref;
  bool DescOk = false;    ///< Invoke sites: descriptor parsed.
  MethodDescriptor Desc;  ///< Invoke sites only.
};

/// A pre-fetched constant-pool class reference.
struct ClassSite {
  bool Ok = false;
  std::string Name;
};

/// The lowered form of one method, shared by all invocations.
struct PredecodedMethod {
  /// False when the decoder rejected the bytecode; execution must abort
  /// with the "malformed bytecode reached execution" VerifyError.
  bool Valid = false;
  std::vector<PInsn> Insns;
  std::vector<MemberSite> MemberSites;
  std::vector<ClassSite> ClassSites;
  /// Instruction starts, for exception-handler entry (byte offset ->
  /// instruction index).
  std::map<uint32_t, uint32_t> OffsetToIndex;

  uint32_t indexOfOffset(uint32_t Offset) const {
    auto It = OffsetToIndex.find(Offset);
    return It == OffsetToIndex.end() ? InvalidInsnIndex : It->second;
  }
};

/// Lowers \p M (a method of \p CF) once. Never fails: malformed input
/// yields Valid == false for the runtime to report.
PredecodedMethod predecodeMethod(const ClassFile &CF, const MethodInfo &M);

} // namespace classfuzz

#endif // CLASSFUZZ_JVM_PREDECODE_H
