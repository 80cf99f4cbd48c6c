#ifndef MLCS_COMMON_NESTING_H_
#define MLCS_COMMON_NESTING_H_

#include <string>

#include "common/status.h"

namespace mlcs {

/// One nesting level of a recursive-descent parser (SQL, VectorScript),
/// counted for the enclosing scope. A parser recurses at least once per
/// level, so text from outside the program must not choose the depth of
/// the stack: past kMax levels, Check fails (DESIGN.md §6).
class NestingLevel {
 public:
  static constexpr int kMax = 256;

  explicit NestingLevel(int* depth) : depth_(depth) { ++*depth_; }
  ~NestingLevel() { --*depth_; }
  NestingLevel(const NestingLevel&) = delete;
  NestingLevel& operator=(const NestingLevel&) = delete;

  /// ParseError naming `line` once the depth is past kMax.
  Status Check(int line) const {
    if (*depth_ <= kMax) return Status::OK();
    return Status::ParseError("nesting deeper than " + std::to_string(kMax) +
                              " levels at line " + std::to_string(line));
  }

 private:
  int* depth_;
};

}  // namespace mlcs

#endif  // MLCS_COMMON_NESTING_H_
