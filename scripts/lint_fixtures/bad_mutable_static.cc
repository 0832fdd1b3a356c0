// Negative fixture: hidden process-global state. check_source.py's
// mutable-static check must flag the mutable function-local statics,
// while accepting const ones, class-scope statics and waived lines.

#include <cstdint>
#include <string>

namespace axml {

class FixtureCounter {
 public:
  static int Next();                    // static member function: NOT flagged
  static int shared_;                   // class-scope static: NOT flagged

  int Bump() {
    static int calls = 0;               // MUST be flagged
    return ++calls;
  }

 private:
  struct Nested {
    static constexpr int kLimit = 4;    // class-scope static: NOT flagged
  };
};

std::string FixtureName(bool shipped) {
  static uint64_t counter = 0;          // MUST be flagged
  static const char* const kPrefix = "q";  // const: NOT flagged
  static constexpr int kWidth = 8;      // constexpr: NOT flagged
  static const std::string kSuffix("_"); // const: NOT flagged
  if (shipped) {
    static bool warned;                 // MUST be flagged
    warned = true;
  }
  auto next = [] {
    static int in_lambda = 0;           // MUST be flagged
    return in_lambda++;
  };
  // lint: allow-mutable-static
  static int waived = 0;                // waived: NOT flagged
  return kPrefix + std::to_string(counter++ + kWidth + next() + waived) +
         kSuffix;
}

}  // namespace axml
