#include "gate.hpp"

#include <cmath>

#include "f3d/validation.hpp"
#include "util/format.hpp"

namespace bench {

std::string check_residual(double residual, double reference) {
  if (!std::isfinite(residual)) {
    return llp::strfmt("residual %g is not finite", residual);
  }
  if (residual == 0.0) {
    return "residual is exactly 0: the flow never moved, nothing was checked";
  }
  if (reference > 0.0 &&
      !(std::fabs(residual - reference) <= kRefRelTol * reference)) {
    return llp::strfmt("residual %.17g is off the reference %.17g by more "
                       "than %g relative",
                       residual, reference, kRefRelTol);
  }
  return "";
}

void Gate::fail(std::size_t index, const std::string& why) {
  if (failures_.count(index) == 0) failures_[index] = labels_[index] + ": " + why;
}

void Gate::add(SolveOutcome s) {
  const std::size_t index = labels_.size();
  labels_.push_back(s.label);
  const std::string why = check_residual(s.residual, s.reference);
  if (!why.empty()) fail(index, why);

  const bool simd = s.engine == f3d::EngineKind::kPencilSimd;
  bool& have = simd ? have_simd_ : have_scalar_;
  std::uint64_t& expect = simd ? simd_checksum_ : scalar_checksum_;
  if (!have) {
    have = true;
    expect = s.checksum;
  } else if (s.checksum != expect) {
    fail(index, llp::strfmt("checksum %016llx differs from its family's "
                            "%016llx",
                            static_cast<unsigned long long>(s.checksum),
                            static_cast<unsigned long long>(expect)));
  }

  if (!simd) {
    if (scalar_grid_ == nullptr) scalar_grid_ = std::move(s.grid);
  } else if (scalar_grid_ == nullptr || s.grid == nullptr) {
    fail(index, "no risc solution judged before it to compare against");
  } else {
    const double d = f3d::linf_diff(*scalar_grid_, *s.grid);
    if (!(d <= kSimdDiffTol)) {
      fail(index, llp::strfmt("simd is %g (linf) from risc, above %g", d,
                              kSimdDiffTol));
    }
  }
}

}  // namespace bench
