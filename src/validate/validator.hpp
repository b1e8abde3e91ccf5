// Independent schedule validation.
//
// Re-checks a schedule against the *problem* (not against any scheduler
// state): every min/max separation, resource exclusivity, the non-negative
// start rule, and the Pmax budget. Implemented without reusing the
// constraint-graph/longest-path machinery so scheduler bugs cannot hide
// behind shared code. Returns structured violations that tests and tools
// can assert on; power gaps are reported separately because min power is a
// soft constraint.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "base/interval.hpp"
#include "model/problem.hpp"
#include "sched/schedule.hpp"

namespace paws {

struct Violation {
  enum class Kind : std::uint8_t {
    kNegativeStart,      ///< task starts before time 0
    kMinSeparation,      ///< a min separation is broken
    kMaxSeparation,      ///< a max separation is broken
    kResourceOverlap,    ///< two same-resource tasks overlap
    kPowerSpike,         ///< P(t) > Pmax somewhere
  };
  Kind kind;
  std::string detail;
};

const char* toString(Violation::Kind kind);
std::ostream& operator<<(std::ostream& os, const Violation& v);

struct ValidationReport {
  std::vector<Violation> violations;
  /// Soft-constraint info: maximal intervals with P(t) < Pmin.
  std::vector<Interval> powerGaps;

  [[nodiscard]] bool timeValid() const {
    for (const Violation& v : violations) {
      if (v.kind != Violation::Kind::kPowerSpike) return false;
    }
    return true;
  }
  [[nodiscard]] bool powerValid() const {
    for (const Violation& v : violations) {
      if (v.kind == Violation::Kind::kPowerSpike) return false;
    }
    return timeValid();
  }
  /// Fully valid (hard constraints only; gaps are allowed).
  [[nodiscard]] bool valid() const { return violations.empty(); }
};

class ScheduleValidator {
 public:
  explicit ScheduleValidator(const Problem& problem) : problem_(problem) {}

  [[nodiscard]] ValidationReport validate(const Schedule& schedule) const;

 private:
  const Problem& problem_;
};

}  // namespace paws
