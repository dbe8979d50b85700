#include "service/client.h"

#include "common/digest.h"

namespace pim::service {

service_client::service_client(pim_service& svc, double weight) : svc_(&svc) {
  session_ = svc.open_session(weight);
}

request service_client::make_request(request_payload payload) const {
  request r;
  r.session = session_.id;
  r.payload = std::move(payload);
  return r;
}

std::vector<dram::bulk_vector> service_client::allocate(bits size, int count) {
  std::vector<dram::bulk_vector> vectors =
      svc_->allocate(session_.id, size, count);
  owned_.insert(owned_.end(), vectors.begin(), vectors.end());
  return vectors;
}

void service_client::write(const dram::bulk_vector& v, const bitvector& data) {
  write_args args;
  args.v = v;
  args.data = data;
  svc_->submit(make_request(std::move(args))).get();
}

bitvector service_client::read(const dram::bulk_vector& v) {
  read_args args;
  args.v = v;
  return svc_->submit(make_request(std::move(args))).get().data;
}

request_future service_client::submit(runtime::pim_task task) {
  run_task_args args;
  args.task = std::move(task);
  request_future f = svc_->submit(make_request(std::move(args)));
  pending_.push_back(f);
  return f;
}

request_future service_client::submit_bulk(dram::bulk_op op,
                                           const dram::bulk_vector& a,
                                           const dram::bulk_vector* b,
                                           const dram::bulk_vector& d) {
  return submit(runtime::make_bulk_task(op, a, b, d));
}

request_future service_client::submit_program(
    std::vector<bulk_step> steps, std::vector<dram::bulk_vector> outputs) {
  request_future f = svc_->submit(
      make_request(make_program(std::move(steps), std::move(outputs))));
  pending_.push_back(f);
  return f;
}

std::optional<request_future> service_client::try_submit(
    runtime::pim_task task) {
  run_task_args args;
  args.task = std::move(task);
  std::optional<request_future> f =
      svc_->try_submit(make_request(std::move(args)));
  if (f) pending_.push_back(*f);
  return f;
}

request_future service_client::submit_shared(dram::bulk_op op,
                                             const shared_vector& a,
                                             const shared_vector* b,
                                             const shared_vector& d) {
  request_future f = svc_->submit_cross(session_.id, op, a, b, d);
  pending_.push_back(f);
  return f;
}

void service_client::wait_all() {
  // Wait everything out before surfacing the first failure, so a
  // throw cannot leave silently-unwaited futures behind.
  std::vector<request_future> waiting = std::move(pending_);
  pending_.clear();
  std::exception_ptr first_error;
  for (const request_future& f : waiting) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::uint64_t service_client::digest() {
  wait_all();
  std::uint64_t hash = fnv1a_basis;
  for (const dram::bulk_vector& v : owned_) {
    hash = fnv1a(hash, read(v));
  }
  return hash;
}

}  // namespace pim::service
