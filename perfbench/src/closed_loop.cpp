// closed_loop: the synchronous feedback loop at packet level -- one FIFO
// bottleneck with N = 2000 sources and mu = N, aggregate feedback, the
// rational signal and additive TSI, over many short epochs. The per-epoch
// pipeline-bound use of `sim`: each epoch runs a short DES and then forms
// congestion, signals and the bottleneck maximum from the measured queues.
// Fair Share and the multi-gateway index are bypassed (G = 1).
//
// With the rational signal the aggregate signal equals the measured load,
// so the common rate obeys r <- r + eta (beta - N r / mu) and settles at the
// model's fair steady state beta mu / N; the check allows for the epoch's
// sampling noise. The traced run steps the loop one epoch at a time with
// run(rates(), 1), which must reproduce the single run() call bit for bit.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/rate_adjustment.hpp"
#include "core/signal.hpp"
#include "core/steady_state.hpp"
#include "harness.hpp"
#include "network/builders.hpp"
#include "obs/metrics.hpp"
#include "queueing/fifo.hpp"
#include "sim/feedback_sim.hpp"
#include "sim/network_sim.hpp"

namespace perfbench {

namespace {

using namespace ffc;

constexpr std::size_t kConnections = 2000;
constexpr double kMu = double(kConnections);
constexpr double kEta = 0.5;
constexpr double kBeta = 0.5;
constexpr double kInitialRate = 0.2;
constexpr double kEpochDuration = 5.0;
constexpr std::size_t kEpochs = 40;
/// Allowed distance of the final rates from the fair steady state: the last
/// epoch's load estimate carries a few percent of sampling noise.
constexpr double kRateTolerance = 0.1;
/// Set-ups per set-up sample: one set-up takes about 3 ms.
constexpr std::size_t kSetupBatch = 8;

sim::ClosedLoopOptions loop_options() {
  sim::ClosedLoopOptions opts;
  opts.epoch_duration = kEpochDuration;
  return opts;
}

std::unique_ptr<sim::ClosedLoopSimulator> build(std::uint64_t seed) {
  network::Topology topology = in_span("network.single_bottleneck", [] {
    return network::single_bottleneck(kConnections, kMu);
  });
  std::vector<std::shared_ptr<const core::RateAdjustment>> adjusters(
      kConnections, std::make_shared<core::AdditiveTsi>(kEta, kBeta));
  return in_span("sim.construct", [&] {
    return std::make_unique<sim::ClosedLoopSimulator>(
        std::move(topology), sim::SimDiscipline::Fifo,
        std::make_shared<core::RationalSignal>(),
        core::FeedbackStyle::Aggregate, std::move(adjusters), seed,
        loop_options());
  });
}

}  // namespace

void run_closed_loop(Harness& h) {
  const std::uint64_t seed = h.options().seed;
  std::unique_ptr<sim::ClosedLoopSimulator> loop;
  const auto setup = [&] {
    loop.reset();
    loop = build(seed);
  };
  h.value("network.slots", double(kConnections));
  h.value("sim.loop_epochs", double(kEpochs));

  // The model the loop realizes, for its fair steady state.
  const core::FlowControlModel model(
      network::single_bottleneck(kConnections, kMu),
      std::make_shared<queueing::Fifo>(),
      std::make_shared<core::RationalSignal>(), core::FeedbackStyle::Aggregate,
      std::make_shared<core::AdditiveTsi>(kEta, kBeta));
  const std::vector<double> fair = core::fair_steady_state(model);

  const std::vector<double> initial(kConnections, kInitialRate);
  std::vector<double> untraced_final;
  std::vector<sim::EpochRecord> traced_records;
  h.measure(kSetupBatch, HostProbe::kScan, setup, [&](bool traced) {
    std::vector<sim::EpochRecord> records;
    const double t = h.timed([&] {
      if (!traced) {
        records = loop->run(initial, kEpochs);
        return;
      }
      records.reserve(kEpochs);
      for (std::size_t e = 0; e < kEpochs; ++e) {
        Span epoch("sim.loop_epoch");
        auto one = loop->run(e == 0 ? initial : loop->rates(), 1);
        records.push_back(std::move(one.front()));
      }
    });

    const std::vector<double>& final_rates = loop->rates();
    for (std::size_t i = 0; i < final_rates.size(); ++i) {
      h.check(std::isfinite(final_rates[i]) &&
                  std::fabs(final_rates[i] - fair[i]) <= kRateTolerance,
              "connection " + std::to_string(i) + ": final rate " +
                  std::to_string(final_rates[i]) + " far from " +
                  std::to_string(fair[i]));
      h.fingerprint(final_rates[i]);
    }
    if (traced) {
      traced_records = std::move(records);
      if (!untraced_final.empty()) {
        h.check(final_rates == untraced_final,
                "epoch-by-epoch stepping diverged from the single run()");
      }
    } else {
      untraced_final = final_rates;
    }
    obs::MetricRegistry registry;
    loop->collect_metrics(registry);
    h.expect_same("sim.events", double(loop->network().events_processed()));
    h.expect_same("sim.calendar_high_water",
                  double(registry.high_water("des.calendar_high_water")));
    std::fprintf(stderr, "closed_loop: %zu epochs, %llu events in %.3f s\n",
                 kEpochs,
                 static_cast<unsigned long long>(
                     loop->network().events_processed()),
                 t);
    return t;
  });

  if (!h.options().trace) return;
  // Replay: the last traced repetition's epochs on a standalone packet
  // engine with the same seed and the same calls. Whatever an epoch took
  // beyond its replay is the loop's own pipeline, outside the DES.
  h.replay([&] {
    sim::NetworkSimulator engine(network::single_bottleneck(kConnections, kMu),
                                 sim::SimDiscipline::Fifo, seed);
    const sim::ClosedLoopOptions opts = loop_options();
    for (const sim::EpochRecord& record : traced_records) {
      Span epoch("replay.sim.des_epoch");
      engine.set_rates(record.rates);
      engine.run_for(opts.epoch_duration * opts.warmup_fraction);
      engine.reset_metrics();
      engine.run_for(opts.epoch_duration * (1.0 - opts.warmup_fraction));
    }
    h.check(engine.events_processed() == loop->network().events_processed(),
            "the DES replay processed a different number of events");
  });
}

}  // namespace perfbench
