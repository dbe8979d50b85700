#include "service/request.h"

#include <stdexcept>

namespace pim::service {

namespace {

bool same_vector(const dram::bulk_vector& x, const dram::bulk_vector& y) {
  return x.size == y.size && x.rows == y.rows;
}

}  // namespace

std::vector<std::size_t> program_capture_steps(
    const std::vector<bulk_step>& steps,
    const std::vector<dram::bulk_vector>& outputs) {
  if (steps.empty()) {
    throw std::invalid_argument("submit_program: empty program");
  }
  std::vector<std::size_t> capture(outputs.size());
  for (std::size_t o = 0; o < outputs.size(); ++o) {
    std::size_t s = steps.size();
    while (s > 0) {
      const bulk_step& step = steps[s - 1];
      if (same_vector(step.a, outputs[o]) || same_vector(step.d, outputs[o]) ||
          (step.b && same_vector(*step.b, outputs[o]))) {
        break;
      }
      --s;
    }
    if (s == 0) {
      throw std::invalid_argument("submit_program: output " +
                                  std::to_string(o) +
                                  " is not an operand of any step");
    }
    capture[o] = s - 1;
  }
  return capture;
}

program_args make_program(std::vector<bulk_step> steps,
                          std::vector<dram::bulk_vector> outputs) {
  program_args args;
  args.run = std::make_shared<program_run>();
  program_run& run = *args.run;
  run.capture_step = program_capture_steps(steps, outputs);
  run.result.reports.resize(steps.size());
  run.result.outputs.resize(outputs.size());
  run.remaining.store(steps.size(), std::memory_order_relaxed);
  run.outputs = std::move(outputs);
  args.steps = std::move(steps);
  return args;
}

}  // namespace pim::service
