//===- classfile/ClassReader.cpp ------------------------------------------===//

#include "classfile/ClassReader.h"

#include "telemetry/Telemetry.h"

using namespace classfuzz;

namespace {

/// Stateful parser over one class file's bytes.
class Parser {
public:
  explicit Parser(const Bytes &Data) : Reader(Data) {}

  Result<ClassFile> run();

private:
  Status parseConstantPool(ClassFile &CF);
  Status parseFields(ClassFile &CF);
  Status parseMethods(ClassFile &CF);
  Status parseAttributes(const ConstantPool &CP,
                         std::vector<AttributeInfo> &Out);
  Result<CodeAttr> parseCode(const ConstantPool &CP, const Bytes &Data);
  Result<std::vector<std::string>> parseExceptions(const ConstantPool &CP,
                                                   const Bytes &Data);

  Status truncated(const char *What) {
    return makeError(std::string("truncated class file while reading ") +
                     What);
  }

  ByteReader Reader;
};

Status Parser::parseConstantPool(ClassFile &CF) {
  uint16_t Count = Reader.readU2();
  if (Reader.hasError())
    return truncated("constant_pool_count");
  if (Count == 0)
    return makeError("constant_pool_count must be at least 1");
  // Slot 0 is pre-reserved by the ConstantPool constructor.
  for (uint16_t Index = 1; Index < Count; ++Index) {
    CpEntry E;
    E.Tag = static_cast<CpTag>(Reader.readU1());
    switch (E.Tag) {
    case CpTag::Utf8: {
      uint16_t Len = Reader.readU2();
      E.Utf8 = Reader.readString(Len);
      break;
    }
    case CpTag::Integer:
      E.IntValue = static_cast<int32_t>(Reader.readU4());
      break;
    case CpTag::Float: {
      uint32_t Raw = Reader.readU4();
      static_assert(sizeof(float) == 4, "IEEE-754 float expected");
      __builtin_memcpy(&E.FloatValue, &Raw, 4);
      break;
    }
    case CpTag::Long:
      E.LongValue = static_cast<int64_t>(Reader.readU8());
      break;
    case CpTag::Double: {
      uint64_t Raw = Reader.readU8();
      static_assert(sizeof(double) == 8, "IEEE-754 double expected");
      __builtin_memcpy(&E.DoubleValue, &Raw, 8);
      break;
    }
    case CpTag::Class:
    case CpTag::String:
    case CpTag::MethodType:
      E.Ref1 = Reader.readU2();
      break;
    case CpTag::Fieldref:
    case CpTag::Methodref:
    case CpTag::InterfaceMethodref:
    case CpTag::NameAndType:
    case CpTag::InvokeDynamic:
      E.Ref1 = Reader.readU2();
      E.Ref2 = Reader.readU2();
      break;
    case CpTag::MethodHandle:
      E.Kind = Reader.readU1();
      E.Ref1 = Reader.readU2();
      break;
    default:
      return makeError("unknown constant pool tag " +
                       std::to_string(static_cast<unsigned>(E.Tag)) +
                       " at index " + std::to_string(Index));
    }
    if (Reader.hasError())
      return truncated("constant pool entry");
    CF.CP.addRaw(std::move(E));
    if (CF.CP.count() > Count)
      return makeError("Long/Double constant overflows constant_pool_count");
    // addRaw emitted an extra placeholder slot for Long/Double.
    if (CF.CP.count() == Index + 2)
      ++Index;
  }
  return Status::success();
}

Status Parser::parseAttributes(const ConstantPool &CP,
                               std::vector<AttributeInfo> &Out) {
  uint16_t Count = Reader.readU2();
  if (Reader.hasError())
    return truncated("attributes_count");
  for (uint16_t I = 0; I != Count; ++I) {
    uint16_t NameIndex = Reader.readU2();
    uint32_t Length = Reader.readU4();
    if (Reader.hasError())
      return truncated("attribute header");
    auto Name = CP.getUtf8(NameIndex);
    if (!Name)
      return makeError("attribute name: " + Name.error());
    AttributeInfo Attr;
    Attr.Name = Name.take();
    Attr.Data = Reader.readBytes(Length);
    if (Reader.hasError())
      return truncated("attribute body");
    Out.push_back(std::move(Attr));
  }
  return Status::success();
}

Result<CodeAttr> Parser::parseCode(const ConstantPool &CP,
                                   const Bytes &Data) {
  ByteReader R(Data);
  CodeAttr Code;
  Code.MaxStack = R.readU2();
  Code.MaxLocals = R.readU2();
  uint32_t CodeLength = R.readU4();
  Code.Code = R.readBytes(CodeLength);
  uint16_t TableLength = R.readU2();
  if (R.hasError())
    return makeError("truncated Code attribute");
  for (uint16_t I = 0; I != TableLength; ++I) {
    ExceptionTableEntry E;
    E.StartPc = R.readU2();
    E.EndPc = R.readU2();
    E.HandlerPc = R.readU2();
    uint16_t CatchIndex = R.readU2();
    if (R.hasError())
      return makeError("truncated exception_table");
    if (CatchIndex != 0) {
      auto Name = CP.getClassName(CatchIndex);
      if (!Name)
        return makeError("exception_table catch_type: " + Name.error());
      E.CatchType = Name.take();
    }
    Code.ExceptionTable.push_back(std::move(E));
  }
  // Nested attributes (LineNumberTable, StackMapTable, ...) kept raw.
  uint16_t AttrCount = R.readU2();
  if (R.hasError())
    return makeError("truncated Code attribute count");
  for (uint16_t I = 0; I != AttrCount; ++I) {
    uint16_t NameIndex = R.readU2();
    uint32_t Length = R.readU4();
    if (R.hasError())
      return makeError("truncated nested attribute header");
    auto Name = CP.getUtf8(NameIndex);
    if (!Name)
      return makeError("nested attribute name: " + Name.error());
    AttributeInfo Attr;
    Attr.Name = Name.take();
    Attr.Data = R.readBytes(Length);
    if (R.hasError())
      return makeError("truncated nested attribute body");
    Code.Attributes.push_back(std::move(Attr));
  }
  return Code;
}

Result<std::vector<std::string>>
Parser::parseExceptions(const ConstantPool &CP, const Bytes &Data) {
  ByteReader R(Data);
  uint16_t Count = R.readU2();
  std::vector<std::string> Out;
  for (uint16_t I = 0; I != Count; ++I) {
    uint16_t Index = R.readU2();
    if (R.hasError())
      return makeError("truncated Exceptions attribute");
    auto Name = CP.getClassName(Index);
    if (!Name)
      return makeError("Exceptions attribute entry: " + Name.error());
    Out.push_back(Name.take());
  }
  return Out;
}

Status Parser::parseFields(ClassFile &CF) {
  uint16_t Count = Reader.readU2();
  if (Reader.hasError())
    return truncated("fields_count");
  for (uint16_t I = 0; I != Count; ++I) {
    FieldInfo Field;
    Field.AccessFlags = Reader.readU2();
    uint16_t NameIndex = Reader.readU2();
    uint16_t DescIndex = Reader.readU2();
    if (Reader.hasError())
      return truncated("field_info");
    auto Name = CF.CP.getUtf8(NameIndex);
    if (!Name)
      return makeError("field name: " + Name.error());
    auto Desc = CF.CP.getUtf8(DescIndex);
    if (!Desc)
      return makeError("field descriptor: " + Desc.error());
    Field.Name = Name.take();
    Field.Descriptor = Desc.take();
    std::vector<AttributeInfo> Raw;
    if (Status S = parseAttributes(CF.CP, Raw); !S)
      return S;
    for (AttributeInfo &Attr : Raw) {
      if (Attr.Name == "ConstantValue" && !Field.ConstantValue &&
          Attr.Data.size() == 2) {
        uint16_t CvIndex =
            static_cast<uint16_t>(Attr.Data[0] << 8 | Attr.Data[1]);
        if (!CF.CP.isValidIndex(CvIndex))
          return makeError("field " + Field.Name +
                           ": dangling ConstantValue index");
        const CpEntry &E = CF.CP.at(CvIndex);
        FieldConstant CV;
        switch (E.Tag) {
        case CpTag::Integer:
          CV.Kind = 'i';
          CV.IntValue = E.IntValue;
          break;
        case CpTag::Long:
          CV.Kind = 'j';
          CV.IntValue = E.LongValue;
          break;
        case CpTag::Float:
          CV.Kind = 'f';
          CV.FpValue = E.FloatValue;
          break;
        case CpTag::Double:
          CV.Kind = 'd';
          CV.FpValue = E.DoubleValue;
          break;
        case CpTag::String: {
          auto S = CF.CP.getUtf8(E.Ref1);
          if (!S)
            return makeError("field " + Field.Name +
                             ": dangling ConstantValue string");
          CV.Kind = 's';
          CV.StrValue = S.take();
          break;
        }
        default:
          return makeError("field " + Field.Name +
                           ": ConstantValue of unusable constant kind");
        }
        Field.ConstantValue = std::move(CV);
      } else {
        Field.Attributes.push_back(std::move(Attr));
      }
    }
    CF.Fields.push_back(std::move(Field));
  }
  return Status::success();
}

Status Parser::parseMethods(ClassFile &CF) {
  uint16_t Count = Reader.readU2();
  if (Reader.hasError())
    return truncated("methods_count");
  for (uint16_t I = 0; I != Count; ++I) {
    MethodInfo Method;
    Method.AccessFlags = Reader.readU2();
    uint16_t NameIndex = Reader.readU2();
    uint16_t DescIndex = Reader.readU2();
    if (Reader.hasError())
      return truncated("method_info");
    auto Name = CF.CP.getUtf8(NameIndex);
    if (!Name)
      return makeError("method name: " + Name.error());
    auto Desc = CF.CP.getUtf8(DescIndex);
    if (!Desc)
      return makeError("method descriptor: " + Desc.error());
    Method.Name = Name.take();
    Method.Descriptor = Desc.take();

    std::vector<AttributeInfo> Raw;
    if (Status S = parseAttributes(CF.CP, Raw); !S)
      return S;
    for (AttributeInfo &Attr : Raw) {
      if (Attr.Name == "Code" && !Method.Code) {
        auto Code = parseCode(CF.CP, Attr.Data);
        if (!Code)
          return makeError("method " + Method.Name + ": " + Code.error());
        Method.Code = Code.take();
      } else if (Attr.Name == "Exceptions" && Method.Exceptions.empty()) {
        auto Exceptions = parseExceptions(CF.CP, Attr.Data);
        if (!Exceptions)
          return makeError("method " + Method.Name + ": " +
                           Exceptions.error());
        Method.Exceptions = Exceptions.take();
      } else {
        Method.Attributes.push_back(std::move(Attr));
      }
    }
    CF.Methods.push_back(std::move(Method));
  }
  return Status::success();
}

Result<ClassFile> Parser::run() {
  ClassFile CF;
  CF.AccessFlags = 0;

  if (Reader.readU4() != ClassFileMagic)
    return makeError("bad magic number (expected 0xCAFEBABE)");
  CF.MinorVersion = Reader.readU2();
  CF.MajorVersion = Reader.readU2();
  if (Reader.hasError())
    return makeError("truncated class file while reading version");

  if (Status S = parseConstantPool(CF); !S)
    return makeError(S.error());

  CF.AccessFlags = Reader.readU2();
  uint16_t ThisIndex = Reader.readU2();
  uint16_t SuperIndex = Reader.readU2();
  if (Reader.hasError())
    return makeError("truncated class file while reading class header");

  auto ThisName = CF.CP.getClassName(ThisIndex);
  if (!ThisName)
    return makeError("this_class: " + ThisName.error());
  CF.ThisClass = ThisName.take();
  if (SuperIndex != 0) {
    auto SuperName = CF.CP.getClassName(SuperIndex);
    if (!SuperName)
      return makeError("super_class: " + SuperName.error());
    CF.SuperClass = SuperName.take();
  }

  uint16_t InterfaceCount = Reader.readU2();
  if (Reader.hasError())
    return makeError("truncated class file while reading interfaces_count");
  for (uint16_t I = 0; I != InterfaceCount; ++I) {
    uint16_t Index = Reader.readU2();
    if (Reader.hasError())
      return makeError("truncated class file while reading interfaces");
    auto Name = CF.CP.getClassName(Index);
    if (!Name)
      return makeError("interface: " + Name.error());
    CF.Interfaces.push_back(Name.take());
  }

  if (Status S = parseFields(CF); !S)
    return makeError(S.error());
  if (Status S = parseMethods(CF); !S)
    return makeError(S.error());
  if (Status S = parseAttributes(CF.CP, CF.Attributes); !S)
    return makeError(S.error());

  if (!Reader.atEnd())
    return makeError("extra bytes at end of class file");
  return CF;
}

} // namespace

Result<ClassFile> classfuzz::parseClassFile(const Bytes &Data) {
  // Exact work counter: one per parse, whoever asks. ClassEntry makes
  // it jobs-invariant by parsing each shared entry exactly once.
  if (telemetry::enabled()) {
    static telemetry::Counter &Parsed =
        telemetry::metrics().counter("work.classes_parsed");
    Parsed.inc();
  }
  return Parser(Data).run();
}
