#include "dram/controller.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pim::dram {

controller::controller(const organization& org, const timing_params& timing,
                       row_policy policy, bool bulk_power_exempt,
                       std::size_t queue_capacity, mapping_policy mapping)
    : org_(org),
      timing_(timing),
      policy_(policy),
      mapper_(org, mapping),
      checker_(org, timing, bulk_power_exempt),
      queue_capacity_(queue_capacity),
      refresh_pending_(static_cast<std::size_t>(org.ranks), false),
      next_refresh_(timing.trefi) {}

bool controller::enqueue(request req) {
  if (queue_.size() >= queue_capacity_) return false;
  pending_request pr;
  pr.addr = mapper_.decode(req.addr);
  if (pr.addr.channel != 0) {
    throw std::invalid_argument(
        "controller: request decoded to a different channel");
  }
  pr.req = std::move(req);
  pr.enqueue_cycle = cycle_;
  queue_.push_back(std::move(pr));
  next_event_ = cycle_ + 1;
  counters_.add("ctrl.requests");
  return true;
}

void controller::enqueue_bulk(bulk_sequence seq) {
  if (seq.commands.empty()) {
    throw std::invalid_argument("controller: empty bulk sequence");
  }
  bulk_state pb;
  for (const command& cmd : seq.commands) {
    pb.banks.insert(flat_bank(cmd.addr));
  }
  pb.seq = std::move(seq);
  bulk_queue_.push_back(std::move(pb));
  next_event_ = cycle_ + 1;
  counters_.add("ctrl.bulk_sequences");
}

bool controller::bank_locked(int flat) const {
  return locked_banks_.count(flat) != 0;
}

bool controller::ready(const command& cmd) {
  const cycles at = checker_.earliest(cmd);
  if (at <= cycle_) return true;
  next_event_ = std::min(next_event_, at);
  return false;
}

void controller::issue(const command& cmd) {
  checker_.issue(cmd, cycle_);
  next_event_ = cycle_ + 1;
  switch (cmd.kind) {
    case command_kind::activate:
      counters_.add(cmd.bulk ? "dram.bulk_act" : "dram.act");
      break;
    case command_kind::copy_activate:
      counters_.add("dram.copy_act");
      break;
    case command_kind::triple_activate:
      counters_.add("dram.tra");
      break;
    case command_kind::precharge:
      counters_.add(cmd.bulk ? "dram.bulk_pre" : "dram.pre");
      break;
    case command_kind::read:
      counters_.add(cmd.bulk ? "dram.bulk_rd" : "dram.rd");
      break;
    case command_kind::write:
      counters_.add(cmd.bulk ? "dram.bulk_wr" : "dram.wr");
      break;
    case command_kind::refresh:
      counters_.add("dram.ref");
      break;
  }
}

bool controller::try_issue_refresh() {
  for (int rk = 0; rk < org_.ranks; ++rk) {
    if (!refresh_pending_[static_cast<std::size_t>(rk)]) continue;
    // A rank awaiting refresh: precharge its open banks (unless a bulk
    // sequence holds them; the sequence will finish and release them),
    // then issue REF once everything is closed.
    bool any_open = false;
    for (int bk = 0; bk < org_.banks; ++bk) {
      if (checker_.status(rk, bk) != bank_status::active) continue;
      any_open = true;
      if (bank_locked(rk * org_.banks + bk)) continue;
      command pre;
      pre.kind = command_kind::precharge;
      pre.addr.rank = rk;
      pre.addr.bank = bk;
      if (ready(pre)) {
        issue(pre);
        counters_.add("ctrl.refresh_pre");
        return true;
      }
    }
    if (any_open) continue;
    command ref;
    ref.kind = command_kind::refresh;
    ref.addr.rank = rk;
    if (ready(ref)) {
      issue(ref);
      refresh_pending_[static_cast<std::size_t>(rk)] = false;
      return true;
    }
  }
  return false;
}

bool controller::try_issue_bulk() {
  for (std::size_t i = 0; i < bulk_queue_.size(); ++i) {
    bulk_state& pb = bulk_queue_[i];
    if (!pb.started) {
      // Only start a sequence when its banks are free and no refresh is
      // waiting on the ranks it touches (so refresh cannot starve).
      bool blocked = false;
      for (int flat : pb.banks) {
        const int rk = flat / org_.banks;
        if (bank_locked(flat) ||
            refresh_pending_[static_cast<std::size_t>(rk)]) {
          blocked = true;
          break;
        }
      }
      if (blocked) continue;
      // Host traffic may have left a row open (open-row policy); the
      // sequence's activations need precharged banks, so close them.
      for (int flat : pb.banks) {
        const int rk = flat / org_.banks;
        const int bk = flat % org_.banks;
        if (checker_.status(rk, bk) != bank_status::active) continue;
        command pre;
        pre.kind = command_kind::precharge;
        pre.addr.rank = rk;
        pre.addr.bank = bk;
        if (ready(pre)) {
          issue(pre);
          return true;
        }
        blocked = true;  // wait for the precharge window
      }
      if (blocked) continue;
    }
    const command& cmd = pb.seq.commands[pb.next];
    if (!ready(cmd)) continue;
    if (!pb.started) {
      pb.started = true;
      locked_banks_.insert(pb.banks.begin(), pb.banks.end());
    }
    issue(cmd);
    ++pb.next;
    if (pb.next == pb.seq.commands.size()) {
      // Completion time: column commands finish after their burst;
      // row commands take effect at issue.
      cycles done = cycle_;
      if (cmd.kind == command_kind::read) done = checker_.read_done(cycle_);
      if (cmd.kind == command_kind::write) done = checker_.write_done(cycle_);
      completion c;
      c.done = done;
      c.callback = std::move(pb.seq.on_complete);
      c.enqueued = cycle_;
      completions_.push_back(std::move(c));
      ++inflight_;
      for (int flat : pb.banks) locked_banks_.erase(flat);
      bulk_queue_.erase(bulk_queue_.begin() +
                        static_cast<std::ptrdiff_t>(i));
    }
    return true;
  }
  return false;
}

std::optional<command> controller::next_command(
    const pending_request& pr) const {
  const int flat = flat_bank(pr.addr);
  if (bank_locked(flat)) return std::nullopt;
  if (refresh_pending_[static_cast<std::size_t>(pr.addr.rank)]) {
    return std::nullopt;  // rank is draining towards REF
  }
  command cmd;
  cmd.addr = pr.addr;
  if (checker_.status(pr.addr.rank, pr.addr.bank) == bank_status::precharged) {
    cmd.kind = command_kind::activate;
  } else if (checker_.open_row(pr.addr.rank, pr.addr.bank) == pr.addr.row) {
    cmd.kind = pr.req.kind == request_kind::read ? command_kind::read
                                                 : command_kind::write;
  } else {
    cmd.kind = command_kind::precharge;
  }
  return cmd;
}

bool controller::try_issue_request() {
  // FR-FCFS: first pass prefers requests whose next command is a column
  // command (row hit); second pass takes the oldest ready row command.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      auto cmd = next_command(*it);
      if (!cmd) continue;
      const bool is_column = cmd->kind == command_kind::read ||
                             cmd->kind == command_kind::write;
      if (pass == 0 && !is_column) continue;
      if (!ready(*cmd)) continue;
      // Classify the request by the first command issued on its behalf.
      if (!it->classified) {
        it->classified = true;
        if (is_column) {
          counters_.add("ctrl.row_hits");
        } else if (cmd->kind == command_kind::activate) {
          counters_.add("ctrl.row_misses");
        } else {
          counters_.add("ctrl.row_conflicts");
        }
      }
      issue(*cmd);
      if (!is_column) return true;
      const cycles done = cmd->kind == command_kind::read
                              ? checker_.read_done(cycle_)
                              : checker_.write_done(cycle_);
      completion c;
      c.done = done;
      c.callback = std::move(it->req.on_complete);
      c.enqueued = it->enqueue_cycle;
      c.is_read = cmd->kind == command_kind::read;
      completions_.push_back(std::move(c));
      ++inflight_;
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

void controller::finish_completions() {
  for (std::size_t i = 0; i < completions_.size();) {
    if (completions_[i].done <= cycle_) {
      completion c = std::move(completions_[i]);
      completions_[i] = std::move(completions_.back());
      completions_.pop_back();
      --inflight_;
      if (c.is_read) {
        read_latency_ps_.add(
            static_cast<double>((c.done - c.enqueued) * timing_.tck_ps));
      }
      if (c.callback) c.callback(c.done * timing_.tck_ps);
    } else {
      next_event_ = std::min(next_event_, completions_[i].done);
      ++i;
    }
  }
}

void controller::tick() {
  ++cycle_;
  if (cycle_ >= next_refresh_) {
    next_refresh_ += timing_.trefi;
    for (int rk = 0; rk < org_.ranks; ++rk) {
      refresh_pending_[static_cast<std::size_t>(rk)] = true;
    }
  }
  // One command per cycle on the command bus, in priority order. The
  // scans below fold every deferred candidate and pending completion
  // into next_event_, starting from the next refresh.
  next_event_ = next_refresh_;
  if (!try_issue_refresh()) {
    if (!try_issue_bulk()) {
      try_issue_request();
    }
  }
  finish_completions();
}

void controller::skip_to(cycles c) {
  if (c < cycle_ || c >= next_event_) {
    throw std::logic_error("controller::skip_to: cycle " + std::to_string(c) +
                           " outside [now, next event)");
  }
  cycle_ = c;
}

bool controller::idle() const {
  return queue_.empty() && bulk_queue_.empty() && inflight_ == 0;
}

}  // namespace pim::dram
