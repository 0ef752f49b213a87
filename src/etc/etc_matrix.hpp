// EtcMatrix: estimated-time-to-compute matrix (paper §2).
//
// Row t, column m holds the estimated time to compute task t on machine m.
// The matrix is dense, row-major, immutable in normal use after
// construction. Task and machine identifiers throughout the library are the
// row/column indices of this matrix; Problem objects select subsets of them,
// which is how the iterative technique removes machines without copying or
// renumbering the ETC data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/check.hpp"

namespace hcsched::etc {

using TaskId = std::int32_t;
using MachineId = std::int32_t;

class EtcMatrix {
 public:
  EtcMatrix() = default;

  /// Zero-initialized tasks x machines matrix. Throws std::invalid_argument,
  /// allocating nothing, when tasks x machines overflows std::size_t.
  EtcMatrix(std::size_t num_tasks, std::size_t num_machines)
      : tasks_(num_tasks),
        machines_(num_machines),
        values_(cell_count(num_tasks, num_machines), 0.0) {}

  /// The one validated construction path: a tasks x machines matrix over
  /// row-major `values`. Throws std::invalid_argument when tasks x machines
  /// overflows or the size does not match, or naming the row and column of
  /// the first cell that is not a finite, non-negative time.
  static EtcMatrix from_values(std::size_t num_tasks, std::size_t num_machines,
                               std::vector<double> values);

  /// Construction from row data through from_values; every row must have
  /// the same length.
  static EtcMatrix from_rows(
      std::initializer_list<std::initializer_list<double>> rows);
  static EtcMatrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t num_tasks() const noexcept { return tasks_; }
  std::size_t num_machines() const noexcept { return machines_; }
  bool empty() const noexcept { return values_.empty(); }

  double at(TaskId task, MachineId machine) const {
    return values_[index(task, machine)];
  }
  double& at(TaskId task, MachineId machine) {
    return values_[index(task, machine)];
  }

  /// The ETC row of one task across all machines. Unlike at(), this is an
  /// internal hot-path accessor: callers must pass an in-range task id.
  std::span<const double> row(TaskId task) const {
    HCSCHED_PRECONDITION(
        task >= 0 && static_cast<std::size_t>(task) < tasks_, "task id ",
        task, " outside 0..", tasks_);
    return std::span<const double>(values_)
        .subspan(static_cast<std::size_t>(task) * machines_, machines_);
  }

  std::span<const double> data() const noexcept { return values_; }

  /// Sum, min and max over all entries (used by generators' self-checks).
  double total() const noexcept;
  double min_value() const noexcept;
  double max_value() const noexcept;

  bool operator==(const EtcMatrix& other) const = default;

  /// num_tasks x num_machines; throws std::invalid_argument on overflow.
  static std::size_t cell_count(std::size_t num_tasks,
                                std::size_t num_machines);

 private:
  std::size_t index(TaskId task, MachineId machine) const {
    if (task < 0 || static_cast<std::size_t>(task) >= tasks_ || machine < 0 ||
        static_cast<std::size_t>(machine) >= machines_) {
      throw std::out_of_range("EtcMatrix: index (" + std::to_string(task) +
                              ", " + std::to_string(machine) +
                              ") outside " + std::to_string(tasks_) + "x" +
                              std::to_string(machines_));
    }
    return static_cast<std::size_t>(task) * machines_ +
           static_cast<std::size_t>(machine);
  }

  std::size_t tasks_ = 0;
  std::size_t machines_ = 0;
  std::vector<double> values_{};
};

}  // namespace hcsched::etc
