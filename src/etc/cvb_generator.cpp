#include "etc/cvb_generator.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hcsched::etc {

namespace {

/// Throws unless `value` is finite and > 0; `!(value > 0)` catches NaN.
void require_finite_positive(const std::string& what, double value) {
  if (!(value > 0.0) || !std::isfinite(value)) {
    std::ostringstream message;
    message << "CvbEtcGenerator: " << what << " must be finite and > 0, got "
            << value;
    throw std::invalid_argument(message.str());
  }
}

}  // namespace

EtcMatrix CvbEtcGenerator::generate(rng::Rng& rng) const {
  require_finite_positive("v_task", params_.v_task);
  require_finite_positive("v_machine", params_.v_machine);
  require_finite_positive("mean_task_time", params_.mean_task_time);
  const double alpha_task = 1.0 / (params_.v_task * params_.v_task);
  const double beta_task = params_.mean_task_time / alpha_task;
  const double alpha_mach = 1.0 / (params_.v_machine * params_.v_machine);
  // A finite CoV can still take a gamma parameter out of range: v_machine
  // 1e300 underflows 1 / v^2 to 0, and a tiny v overflows it.
  require_finite_positive("1 / v_task^2", alpha_task);
  require_finite_positive("mean_task_time * v_task^2", beta_task);
  require_finite_positive("1 / v_machine^2", alpha_mach);

  std::vector<double> values;
  values.reserve(EtcMatrix::cell_count(params_.num_tasks,
                                       params_.num_machines));
  for (std::size_t t = 0; t < params_.num_tasks; ++t) {
    const double q = rng.gamma(alpha_task, beta_task);
    const double beta_mach = q / alpha_mach;
    for (std::size_t j = 0; j < params_.num_machines; ++j) {
      values.push_back(rng.gamma(alpha_mach, beta_mach));
    }
  }
  return EtcMatrix::from_values(params_.num_tasks, params_.num_machines,
                                std::move(values));
}

}  // namespace hcsched::etc
