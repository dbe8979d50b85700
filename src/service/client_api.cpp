#include "service/client_api.h"

namespace pim::service {

request_future client_api::submit_program(
    std::vector<bulk_step> steps, std::vector<dram::bulk_vector> outputs) {
  program_capture_steps(steps, outputs);
  std::vector<request_future> futures;
  futures.reserve(steps.size());
  for (const bulk_step& s : steps) {
    futures.push_back(submit_bulk(s.op, s.a, s.b ? &*s.b : nullptr, s.d));
  }
  auto state = std::make_shared<request_state>();
  request_result result;
  result.reports.reserve(steps.size());
  for (const request_future& f : futures) {
    std::string error = f.error();
    if (!error.empty()) {
      fail(*state, std::move(error));
      return request_future(state);
    }
    result.reports.push_back(f.get().report);
  }
  for (const dram::bulk_vector& v : outputs) result.outputs.push_back(read(v));
  complete(*state, std::move(result));
  return request_future(state);
}

}  // namespace pim::service
