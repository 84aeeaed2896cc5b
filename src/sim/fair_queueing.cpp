#include "sim/fair_queueing.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace ffc::sim {

FairQueueingServer::FairQueueingServer(Simulator& sim, double mu,
                                       std::size_t num_local,
                                       stats::Xoshiro256 rng,
                                       PacketSink* sink)
    : GatewayServer(sim, mu, num_local, rng, sink),
      backlog_(num_local),
      last_finish_(num_local, 0.0) {}

void FairQueueingServer::arrival(Packet packet, std::size_t local_conn) {
  occupancy_delta(local_conn, +1);
  Job job;
  job.packet = std::move(packet);
  job.local_conn = local_conn;
  job.service_time = sample_nominal_service_time();
  // Self-clocked tag: restart from the current virtual time if the
  // connection was idle long enough for its finish number to lapse.
  const double start = std::max(last_finish_[local_conn], virtual_time_);
  job.finish_tag = start + job.service_time;
  last_finish_[local_conn] = job.finish_tag;
  backlog_.push_back(local_conn, std::move(job));
  if (!in_service_) start_service();
}

void FairQueueingServer::on_service_factor_changed() {
  ++generation_;  // invalidate any pending completion
  if (service_halted()) return;  // job (if any) parks until recovery
  if (in_service_) {
    // The packet's size (service_time) was fixed at arrival; a rate change
    // restarts its transmission at the new effective rate.
    schedule_completion_in(in_service_->service_time / service_factor(),
                           generation_);
  } else {
    start_service();
  }
}

void FairQueueingServer::start_service() {
  if (service_halted()) return;
  // Pick the head-of-line packet with the smallest finish tag, walking only
  // the backlogged connections, in ascending local index: the strict `<`
  // leaves a tie with the lowest index.
  constexpr std::size_t kNone = ClassQueues<Job>::npos;
  std::size_t best = kNone;
  double best_tag = std::numeric_limits<double>::infinity();
  for (std::size_t k = backlog_.next_nonempty(0); k != kNone;
       k = backlog_.next_nonempty(k + 1)) {
    if (backlog_.front(k).finish_tag < best_tag) {
      best_tag = backlog_.front(k).finish_tag;
      best = k;
    }
  }
  if (best == kNone) {
    // Idle: let lapsed finish numbers restart from the current round.
    return;
  }
  in_service_ = backlog_.pop_front(best);
  virtual_time_ = in_service_->finish_tag;
  const std::uint64_t gen = ++generation_;
  schedule_completion_in(in_service_->service_time / service_factor(), gen);
}

void FairQueueingServer::on_service_complete(std::uint64_t generation) {
  if (generation != generation_ || !in_service_) return;
  Job job = std::move(*in_service_);
  in_service_.reset();
  occupancy_delta(job.local_conn, -1);
  deliver(std::move(job.packet));
  start_service();
}

}  // namespace ffc::sim
