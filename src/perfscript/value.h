// Runtime values for PerfScript.
//
// A value is either a number or a reference to a host object. Host objects
// are how the C++ side hands workload descriptors (an image, a protobuf-like
// message) to an interface program: the program reads attributes
// (`img.orig_size`) and iterates sub-objects (`for sub_msg in msg:`), exactly
// like the paper's Python interfaces do.
//
// Contract for ScriptObject implementations: during one top-level call
// (Vm::Call), an object's answers (attributes, child count, children) do
// not change, and Child(i) returns distinct objects unless they are
// observationally identical. The bytecode VM's call memo compares objects
// by address and relies on both (vm.h). Every in-tree object complies;
// KvObject::AddUniformChildren aliases one immutable child on purpose.
#ifndef SRC_PERFSCRIPT_VALUE_H_
#define SRC_PERFSCRIPT_VALUE_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

namespace perfiface {

// PerfScript's min and max of two numbers, the one rule of every evaluator
// (interpreter, VM, compiled expressions, constant folding): a NaN operand
// yields the other operand, and a tie of +0 and -0 is -0 for min and +0
// for max in either order. std::fmin/fmax leave that tie open, and the
// compiler may resolve it differently from one build to the next.
inline double MinNum(double a, double b) {
  if (a < b) {
    return a;
  }
  if (b < a) {
    return b;
  }
  if (a == b) {
    return std::signbit(a) ? a : b;
  }
  return std::isnan(a) ? b : a;
}

inline double MaxNum(double a, double b) {
  if (a > b) {
    return a;
  }
  if (b > a) {
    return b;
  }
  if (a == b) {
    return std::signbit(a) ? b : a;
  }
  return std::isnan(a) ? b : a;
}

class ScriptObject {
 public:
  virtual ~ScriptObject() = default;

  // Returns the numeric attribute `name`, or nullopt if the object does not
  // expose it (a runtime error in the interface program).
  virtual std::optional<double> GetAttr(std::string_view name) const = 0;

  // Inline-cache-aware attribute read. `*hint` is a caller-owned slot
  // keyed by the reading call site (the bytecode VM keeps one per kAttr
  // instruction); implementations with indexable attribute storage probe
  // the hinted index first and write back the index that matched. The
  // default ignores the hint, so existing objects behave unchanged.
  virtual std::optional<double> GetAttrHinted(std::string_view name,
                                              std::uint32_t* hint) const {
    (void)hint;
    return GetAttr(name);
  }

  // Iteration support (`for x in obj:` and `len(obj)`).
  virtual std::size_t NumChildren() const { return 0; }
  virtual const ScriptObject* Child(std::size_t i) const {
    (void)i;
    return nullptr;
  }
};

struct Value {
  enum class Kind { kNumber, kObject };
  Kind kind = Kind::kNumber;
  double num = 0;
  const ScriptObject* obj = nullptr;

  static Value Number(double v) {
    Value out;
    out.kind = Kind::kNumber;
    out.num = v;
    return out;
  }
  static Value Object(const ScriptObject* o) {
    Value out;
    out.kind = Kind::kObject;
    out.obj = o;
    return out;
  }
  bool IsNumber() const { return kind == Kind::kNumber; }
};

}  // namespace perfiface

#endif  // SRC_PERFSCRIPT_VALUE_H_
