//===- classfile/ClassReader.h - Class file binary parser ----------------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses class file bytes into a ClassFile. The parser is *structural*:
/// it rejects only what makes the bytes unreadable (bad magic, truncation,
/// unknown constant tags, unresolvable name indices). Semantic constraints
/// (flag combinations, descriptor validity, <clinit> shape, ...) are left
/// to the JVM's format checker so that invalid-but-readable mutants flow
/// through the pipeline exactly as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_CLASSFILE_CLASSREADER_H
#define CLASSFUZZ_CLASSFILE_CLASSREADER_H

#include "classfile/ClassFile.h"
#include "support/Result.h"

namespace classfuzz {

/// Parses \p Data into a ClassFile; the error message of a failed Result
/// describes the structural problem in ClassFormatError style. Every call
/// counts one `work.classes_parsed` while telemetry is enabled.
Result<ClassFile> parseClassFile(const Bytes &Data);

} // namespace classfuzz

#endif // CLASSFUZZ_CLASSFILE_CLASSREADER_H
