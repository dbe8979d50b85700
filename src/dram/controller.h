// Per-channel DRAM controller: FR-FCFS scheduling, open-row policy,
// refresh management, and bulk in-DRAM operation sequencing.
#ifndef PIM_DRAM_CONTROLLER_H
#define PIM_DRAM_CONTROLLER_H

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/request.h"
#include "dram/timing_checker.h"

namespace pim::dram {

/// Row-buffer management policy.
enum class row_policy {
  open,   // keep rows open until a conflict or refresh (FR-FCFS default)
  closed  // precharge as soon as no pending request hits the row
};

class controller {
 public:
  controller(const organization& org, const timing_params& timing,
             row_policy policy = row_policy::open,
             bool bulk_power_exempt = true, std::size_t queue_capacity = 64,
             mapping_policy mapping = mapping_policy::row_bank_column);

  /// Enqueues a host request; returns false when the queue is full.
  bool enqueue(request req);

  /// Enqueues a bulk in-DRAM command sequence (unbounded queue; the
  /// bulk engines self-throttle).
  void enqueue_bulk(bulk_sequence seq);

  /// Advances one DRAM clock cycle, issuing at most one command.
  void tick();

  /// Earliest cycle at which tick() can change any state: issue a
  /// command, raise a refresh, or finish a completion. Every cycle
  /// before it is a no-op tick. Folded by tick()'s own scans; an
  /// issued command or an enqueue pulls it to the next cycle.
  cycles next_event() const { return next_event_; }

  /// Moves the clock to `c` without ticking, as if every cycle up to
  /// `c` had been a no-op tick. Requires now_cycles() <= c <
  /// next_event().
  void skip_to(cycles c);

  /// True when no request or bulk work is pending or in flight.
  bool idle() const;

  cycles now_cycles() const { return cycle_; }
  picoseconds now_ps() const { return cycle_ * timing_.tck_ps; }

  const counter_set& counters() const { return counters_; }
  const summary& read_latency_ps() const { return read_latency_ps_; }
  const organization& org() const { return org_; }
  const timing_params& timing() const { return timing_; }

  std::size_t pending_requests() const { return queue_.size(); }
  std::size_t pending_bulk() const { return bulk_queue_.size(); }

  // --- per-bank busy introspection (for runtime schedulers) -------------

  /// True while a bulk sequence holds (rank, bank) against other work.
  bool bank_busy(int rank, int bank) const {
    return bank_locked(rank * org_.banks + bank);
  }

  /// Number of banks currently locked by in-flight bulk sequences.
  std::size_t busy_banks() const { return locked_banks_.size(); }

 private:
  struct pending_request {
    request req;
    address addr;
    cycles enqueue_cycle = 0;
    bool classified = false;  // row hit/miss/conflict accounting done
  };

  struct bulk_state {
    bulk_sequence seq;
    std::size_t next = 0;           // next command index
    std::set<int> banks;            // flat bank ids touched
    bool started = false;
  };

  int flat_bank(const address& a) const {
    return a.rank * org_.banks + a.bank;
  }
  bool bank_locked(int flat) const;

  /// True when `cmd` may issue this cycle; otherwise folds the cycle
  /// it becomes legal into next_event_.
  bool ready(const command& cmd);

  /// Issues the command and accounts for it. Returns completion info
  /// for column commands.
  void issue(const command& cmd);

  bool try_issue_refresh();
  bool try_issue_bulk();
  bool try_issue_request();
  void finish_completions();

  /// Next command a request needs given current bank state, or nullopt
  /// if the bank is locked by a bulk sequence.
  std::optional<command> next_command(const pending_request& pr) const;

  organization org_;
  timing_params timing_;
  row_policy policy_;
  address_mapper mapper_;
  timing_checker checker_;

  cycles cycle_ = 0;
  cycles next_event_ = 1;
  std::deque<pending_request> queue_;
  std::size_t queue_capacity_;
  std::deque<bulk_state> bulk_queue_;
  std::set<int> locked_banks_;

  // Refresh state: one pending flag per rank.
  std::vector<bool> refresh_pending_;
  cycles next_refresh_ = 0;

  struct completion {
    cycles done = 0;
    std::function<void(picoseconds)> callback;
    cycles enqueued = 0;
    bool is_read = false;
  };
  std::vector<completion> completions_;
  std::size_t inflight_ = 0;

  counter_set counters_;
  summary read_latency_ps_;
};

}  // namespace pim::dram

#endif  // PIM_DRAM_CONTROLLER_H
