#include "etc/range_generator.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace hcsched::etc {

RangeParams range_preset(Heterogeneity h, std::size_t num_tasks,
                         std::size_t num_machines) {
  RangeParams p;
  p.num_tasks = num_tasks;
  p.num_machines = num_machines;
  switch (h) {
    case Heterogeneity::kHiHi:
      p.task_range = 3000.0;
      p.machine_range = 1000.0;
      break;
    case Heterogeneity::kHiLo:
      p.task_range = 3000.0;
      p.machine_range = 10.0;
      break;
    case Heterogeneity::kLoHi:
      p.task_range = 100.0;
      p.machine_range = 1000.0;
      break;
    case Heterogeneity::kLoLo:
      p.task_range = 100.0;
      p.machine_range = 10.0;
      break;
  }
  return p;
}

EtcMatrix RangeEtcGenerator::generate(rng::Rng& rng) const {
  // Written as !(range >= 1) so a NaN range fails too.
  if (!(params_.task_range >= 1.0) || !(params_.machine_range >= 1.0)) {
    throw std::invalid_argument("RangeEtcGenerator: ranges must be >= 1");
  }
  std::vector<double> values;
  values.reserve(EtcMatrix::cell_count(params_.num_tasks,
                                       params_.num_machines));
  for (std::size_t t = 0; t < params_.num_tasks; ++t) {
    const double baseline = rng.uniform(1.0, params_.task_range);
    for (std::size_t j = 0; j < params_.num_machines; ++j) {
      values.push_back(baseline * rng.uniform(1.0, params_.machine_range));
    }
  }
  return EtcMatrix::from_values(params_.num_tasks, params_.num_machines,
                                std::move(values));
}

}  // namespace hcsched::etc
