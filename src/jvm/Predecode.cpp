//===- jvm/Predecode.cpp - Bytecode lowering for the fast tiers ----------===//

#include "jvm/Predecode.h"

#include "classfile/Opcodes.h"
#include "telemetry/Telemetry.h"

using namespace classfuzz;

namespace {

/// Pre-fetches a member reference (and, for invokes, its descriptor)
/// into the side table; returns the site index.
int32_t addMemberSite(PredecodedMethod &PM, const ClassFile &CF,
                      uint16_t Index, bool IsInvoke) {
  MemberSite Site;
  auto Ref = CF.CP.getMemberRef(Index);
  if (Ref.ok()) {
    Site.Ok = true;
    Site.Ref = *Ref;
    if (IsInvoke)
      Site.DescOk = parseMethodDescriptor(Site.Ref.Descriptor, Site.Desc);
  } else {
    Site.Error = Ref.error();
  }
  PM.MemberSites.push_back(std::move(Site));
  return static_cast<int32_t>(PM.MemberSites.size() - 1);
}

int32_t addClassSite(PredecodedMethod &PM, const ClassFile &CF,
                     uint16_t Index) {
  ClassSite Site;
  auto Name = CF.CP.getClassName(Index);
  if (Name.ok()) {
    Site.Ok = true;
    Site.Name = *Name;
  }
  PM.ClassSites.push_back(std::move(Site));
  return static_cast<int32_t>(PM.ClassSites.size() - 1);
}

/// Maps one decoded instruction to its handler token and operands,
/// including which opcodes of a family are actually modeled (e.g.
/// iaload/aaload but not faload) -- anything else lowers to
/// H_Unsupported, which aborts when it executes.
void lower(PredecodedMethod &PM, const ClassFile &CF, const Insn &I,
           PInsn &P) {
  uint8_t Op = I.Op;
  switch (Op) {
  case OP_nop:
    P.Handler = H_Nop;
    return;
  case OP_aconst_null:
    P.Handler = H_AconstNull;
    return;
  case OP_bipush:
  case OP_sipush:
    P.Handler = H_IPush;
    P.A = I.Operand1;
    return;
  case OP_lconst_0:
  case OP_lconst_1:
    P.Handler = H_LPush;
    P.A = Op - OP_lconst_0;
    return;
  case OP_ldc:
  case OP_ldc_w:
  case OP_ldc2_w:
    P.Handler = H_Ldc;
    P.A = I.Operand1;
    return;
  case OP_iinc:
    P.Handler = H_Iinc;
    P.A = I.Operand1;
    P.B = I.Operand2;
    return;
  case OP_goto:
  case OP_goto_w:
    P.Handler = H_Goto;
    return; // Target filled by the branch-resolution pass.
  case OP_return:
    P.Handler = H_Return;
    return;
  case OP_ireturn:
  case OP_lreturn:
  case OP_freturn:
  case OP_dreturn:
  case OP_areturn:
    P.Handler = H_VReturn;
    return;
  case OP_athrow:
    P.Handler = H_Athrow;
    return;
  case OP_pop:
    P.Handler = H_Pop;
    return;
  case OP_pop2:
    P.Handler = H_Pop2;
    return;
  case OP_dup:
    P.Handler = H_Dup;
    return;
  case OP_dup_x1:
    P.Handler = H_DupX1;
    return;
  case OP_swap:
    P.Handler = H_Swap;
    return;
  case OP_arraylength:
    P.Handler = H_ArrayLength;
    return;
  case OP_newarray:
    P.Handler = H_NewArray;
    return;
  case OP_anewarray:
    P.Handler = H_ANewArray;
    P.A = addClassSite(PM, CF, static_cast<uint16_t>(I.Operand1));
    return;
  case OP_iaload:
  case OP_aaload:
    P.Handler = H_ALoad;
    return;
  case OP_iastore:
  case OP_aastore:
    P.Handler = H_AStore;
    return;
  case OP_new:
    P.Handler = H_New;
    P.A = addClassSite(PM, CF, static_cast<uint16_t>(I.Operand1));
    return;
  case OP_checkcast:
    P.Handler = H_Checkcast;
    P.A = addClassSite(PM, CF, static_cast<uint16_t>(I.Operand1));
    return;
  case OP_instanceof:
    P.Handler = H_InstanceOf;
    P.A = addClassSite(PM, CF, static_cast<uint16_t>(I.Operand1));
    return;
  case OP_monitorenter:
  case OP_monitorexit:
    P.Handler = H_Monitor;
    return;
  case OP_getstatic:
  case OP_putstatic:
    P.Handler = Op == OP_getstatic ? H_GetStatic : H_PutStatic;
    P.A = addMemberSite(PM, CF, static_cast<uint16_t>(I.Operand1), false);
    return;
  case OP_getfield:
  case OP_putfield:
    P.Handler = Op == OP_getfield ? H_GetField : H_PutField;
    P.A = addMemberSite(PM, CF, static_cast<uint16_t>(I.Operand1), false);
    return;
  case OP_invokestatic:
  case OP_invokevirtual:
  case OP_invokespecial:
  case OP_invokeinterface:
    P.Handler = H_Invoke;
    P.A = addMemberSite(PM, CF, static_cast<uint16_t>(I.Operand1), true);
    return;
  default:
    break;
  }

  // The opcode ranges, family by family.
  if (Op >= OP_iconst_m1 && Op <= OP_iconst_5) {
    P.Handler = H_IPush;
    P.A = static_cast<int32_t>(Op) - static_cast<int32_t>(OP_iconst_0);
    return;
  }
  if (Op >= 0x0B && Op <= 0x0D) { // fconst
    P.Handler = H_FPush;
    P.A = Op - 0x0B;
    return;
  }
  if (Op == 0x0E || Op == 0x0F) { // dconst
    P.Handler = H_DPush;
    P.A = Op - 0x0E;
    return;
  }
  if (Op == OP_iload || Op == OP_lload || Op == OP_fload ||
      Op == OP_dload || Op == OP_aload) {
    P.Handler = H_Load;
    P.A = I.Operand1;
    return;
  }
  if (Op >= OP_iload_0 && Op <= OP_aload_3) {
    P.Handler = H_Load;
    P.A = static_cast<int32_t>((Op - OP_iload_0) % 4);
    return;
  }
  if (Op == OP_istore || Op == OP_lstore || Op == OP_fstore ||
      Op == OP_dstore || Op == OP_astore) {
    P.Handler = H_Store;
    P.A = I.Operand1;
    return;
  }
  if (Op >= OP_istore_0 && Op <= OP_astore_3) {
    P.Handler = H_Store;
    P.A = static_cast<int32_t>((Op - OP_istore_0) % 4);
    return;
  }
  if (Op == OP_iadd || Op == OP_isub || Op == OP_imul || Op == OP_idiv ||
      Op == OP_irem || Op == OP_ishl || Op == OP_ishr || Op == 0x7C ||
      Op == OP_iand || Op == OP_ior || Op == OP_ixor) {
    P.Handler = H_IArith;
    return;
  }
  if (Op == OP_ineg) {
    P.Handler = H_INeg;
    return;
  }
  if (Op >= OP_i2l && Op <= 0x93) {
    P.Handler = H_Conv;
    return;
  }
  if (Op >= OP_ifeq && Op <= OP_ifle) {
    P.Handler = H_If;
    return;
  }
  if (Op >= OP_if_icmpeq && Op <= OP_if_icmple) {
    P.Handler = H_IfICmp;
    return;
  }
  if (Op == OP_if_acmpeq || Op == OP_if_acmpne) {
    P.Handler = H_IfACmp;
    return;
  }
  if (Op == OP_ifnull || Op == OP_ifnonnull) {
    P.Handler = H_IfNull;
    return;
  }
  if (Op == OP_tableswitch || Op == OP_lookupswitch) {
    P.Handler = H_Switch;
    return;
  }
  P.Handler = H_Unsupported;
}

/// True for handlers whose PInsn::Target must be resolved from the
/// decoded branch operand.
bool takesBranchTarget(uint8_t H) {
  switch (H) {
  case H_Goto:
  case H_If:
  case H_IfICmp:
  case H_IfACmp:
  case H_IfNull:
  case H_Switch:
    return true;
  default:
    return false;
  }
}

} // namespace

PredecodedMethod classfuzz::predecodeMethod(const ClassFile &CF,
                                            const MethodInfo &M) {
  // Exact work counter: one per lowering. Each tier lowers a method at
  // most once per Vm, so this counts distinct (Vm, method) pairs.
  if (telemetry::enabled()) {
    static telemetry::Counter &Predecoded =
        telemetry::metrics().counter("work.methods_predecoded");
    Predecoded.inc();
  }
  PredecodedMethod PM;
  if (!M.Code)
    return PM;

  InsnDecoder Decoder(M.Code->Code);
  Insn I;
  std::vector<Insn> Raw;
  while (Decoder.decodeNext(I)) {
    PM.OffsetToIndex.emplace(I.Offset,
                             static_cast<uint32_t>(Raw.size()));
    Raw.push_back(I);
  }
  if (!Decoder.valid() || Raw.empty()) {
    // Leaves Valid == false: the tier raises "malformed bytecode
    // reached execution" when the method is invoked.
    PM.OffsetToIndex.clear();
    return PM;
  }

  PM.Insns.reserve(Raw.size());
  for (const Insn &R : Raw) {
    PInsn P;
    P.Op = R.Op;
    P.Offset = R.Offset;
    lower(PM, CF, R, P);
    if (takesBranchTarget(P.Handler))
      P.Target = PM.indexOfOffset(static_cast<uint32_t>(R.Operand1));
    PM.Insns.push_back(P);
  }
  PM.Valid = true;
  return PM;
}
