// The fault-injection layer (src/faults, docs/FAULTS.md): plan validation,
// the determinism contract (empty plan == no plan, bitwise; impaired sweeps
// byte-identical at any --jobs), schedule semantics on the DES (outage,
// degradation, churn), signal impairment in the closed loop and run_async,
// and the faults.* counter audit trail.
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/async_dynamics.hpp"
#include "core/ffc.hpp"
#include "exec/param_grid.hpp"
#include "exec/sweep_runner.hpp"
#include "faults/fault_plan.hpp"
#include "network/builders.hpp"
#include "obs/metrics.hpp"
#include "sim/feedback_sim.hpp"
#include "sim/network_sim.hpp"

namespace {

using namespace ffc;

constexpr double kInf = std::numeric_limits<double>::infinity();

faults::FaultPlan empty_plan() { return faults::FaultPlan{}; }

std::vector<std::shared_ptr<const core::RateAdjustment>> tsi_adjusters(
    std::size_t n, double eta = 0.1, double beta = 0.5) {
  return {n, std::make_shared<core::AdditiveTsi>(eta, beta)};
}

// ---------------------------------------------------------------- plan ----

TEST(FaultPlan, EmptyDetectsEveryImpairmentClass) {
  EXPECT_TRUE(empty_plan().empty());
  faults::FaultPlan loss;
  loss.signal_loss_prob = 0.1;
  EXPECT_FALSE(loss.empty());
  faults::FaultPlan stale;
  stale.signal_delay_epochs = 2;
  EXPECT_FALSE(stale.empty());
  faults::FaultPlan window;
  window.gateway_faults.push_back({0, 1.0, 1.0, 0.5});
  EXPECT_FALSE(window.empty());
  faults::FaultPlan churned;
  churned.churn.push_back({0, 1.0, kInf});
  EXPECT_FALSE(churned.empty());
}

TEST(FaultPlan, FaultSeedIsPureAndSaltSensitive) {
  faults::FaultPlan plan;
  EXPECT_EQ(plan.fault_seed(42), plan.fault_seed(42));
  EXPECT_NE(plan.fault_seed(42), plan.fault_seed(43));
  faults::FaultPlan other;
  other.salt = plan.salt ^ 1;
  EXPECT_NE(plan.fault_seed(42), other.fault_seed(42));
  // The fault stream must not alias the task seed itself.
  EXPECT_NE(plan.fault_seed(42), 42u);
}

TEST(FaultPlan, ValidateRejectsMalformedPlans) {
  faults::FaultPlan plan;
  plan.signal_loss_prob = 1.5;
  EXPECT_THROW(plan.validate(1, 1), std::invalid_argument);

  plan = empty_plan();
  plan.signal_delay_time = -1.0;
  EXPECT_THROW(plan.validate_signal_fields(), std::invalid_argument);

  plan = empty_plan();
  plan.gateway_faults.push_back({/*gateway=*/3, 1.0, 1.0, 0.5});
  EXPECT_THROW(plan.validate(/*num_gateways=*/2, 1), std::invalid_argument);

  plan = empty_plan();
  plan.gateway_faults.push_back({0, 1.0, 1.0, 1.5});  // factor > 1
  EXPECT_THROW(plan.validate(1, 1), std::invalid_argument);

  plan = empty_plan();  // same-gateway overlap
  plan.gateway_faults.push_back({0, 1.0, 2.0, 0.5});
  plan.gateway_faults.push_back({0, 2.5, 2.0, 0.0});
  EXPECT_THROW(plan.validate(1, 1), std::invalid_argument);

  plan = empty_plan();  // same windows on DIFFERENT gateways are fine
  plan.gateway_faults.push_back({0, 1.0, 2.0, 0.5});
  plan.gateway_faults.push_back({1, 2.5, 2.0, 0.0});
  EXPECT_NO_THROW(plan.validate(2, 1));

  plan = empty_plan();
  plan.churn.push_back({0, 5.0, 4.0});  // rejoin before leave
  EXPECT_THROW(plan.validate(1, 1), std::invalid_argument);

  plan = empty_plan();
  plan.churn.push_back({2, 1.0, kInf});  // unknown connection
  EXPECT_THROW(plan.validate(1, /*num_connections=*/2),
               std::invalid_argument);
}

// ------------------------------------------- zero-impairment identity ----

TEST(FaultIdentity, EmptyPlanIsBitwiseIdenticalOnTheDes) {
  const auto topo = network::single_bottleneck(3, 1.0);
  const std::vector<double> rates{0.2, 0.25, 0.3};
  sim::NetworkSimulator plain(topo, sim::SimDiscipline::FairShare, 99);
  sim::NetworkSimulator planned(topo, sim::SimDiscipline::FairShare, 99,
                                empty_plan());
  EXPECT_FALSE(planned.impaired());
  for (auto* s : {&plain, &planned}) {
    s->set_rates(rates);
    s->run_for(5000.0);
  }
  EXPECT_EQ(plain.packets_generated(), planned.packets_generated());
  EXPECT_EQ(plain.packets_delivered_total(),
            planned.packets_delivered_total());
  for (network::ConnectionId i = 0; i < 3; ++i) {
    // Bitwise: the empty plan must not shift a single RNG draw or FLOP.
    EXPECT_EQ(plain.mean_delay(i), planned.mean_delay(i));
    EXPECT_EQ(plain.mean_queue(0, i), planned.mean_queue(0, i));
  }
  obs::MetricRegistry m_plain, m_planned;
  plain.collect_metrics(m_plain);
  planned.collect_metrics(m_planned);
  EXPECT_EQ(m_plain.counters(), m_planned.counters());
  EXPECT_EQ(m_plain.gauges(), m_planned.gauges());
  EXPECT_EQ(m_planned.counters().count("faults.signals_lost"), 0u)
      << "an empty plan must not emit faults.* metrics";
}

TEST(FaultIdentity, EmptyPlanIsBitwiseIdenticalOnTheClosedLoop) {
  const auto topo = network::single_bottleneck(2, 1.0);
  const auto adjusters = tsi_adjusters(2);
  sim::ClosedLoopOptions opts;
  opts.epoch_duration = 300.0;
  sim::ClosedLoopSimulator plain(topo, sim::SimDiscipline::FairShare,
                                 std::make_shared<core::RationalSignal>(),
                                 core::FeedbackStyle::Individual, adjusters,
                                 123, opts);
  sim::ClosedLoopSimulator planned(topo, sim::SimDiscipline::FairShare,
                                   std::make_shared<core::RationalSignal>(),
                                   core::FeedbackStyle::Individual, adjusters,
                                   123, empty_plan(), opts);
  const auto r_plain = plain.run({0.1, 0.3}, 8);
  const auto r_planned = planned.run({0.1, 0.3}, 8);
  ASSERT_EQ(r_plain.size(), r_planned.size());
  for (std::size_t e = 0; e < r_plain.size(); ++e) {
    EXPECT_EQ(r_plain[e].rates, r_planned[e].rates);
    EXPECT_EQ(r_plain[e].signals, r_planned[e].signals);
    EXPECT_EQ(r_plain[e].delays, r_planned[e].delays);
  }
}

TEST(FaultIdentity, NullOrEmptyPlanIsBitwiseIdenticalOnRunAsync) {
  const auto topo = network::single_bottleneck(3, 1.0);
  core::FlowControlModel model(topo, std::make_shared<queueing::FairShare>(),
                               std::make_shared<core::RationalSignal>(),
                               core::FeedbackStyle::Individual,
                               tsi_adjusters(3)[0]);
  core::AsyncOptions options;
  options.horizon = 300.0;
  options.seed = 5;
  const auto base = core::run_async(model, {0.1, 0.2, 0.3}, options);

  const faults::FaultPlan none;
  options.faults = &none;
  const auto with_empty = core::run_async(model, {0.1, 0.2, 0.3}, options);
  EXPECT_EQ(base.final_rates, with_empty.final_rates);
  EXPECT_EQ(base.updates_performed, with_empty.updates_performed);
  EXPECT_EQ(base.residual, with_empty.residual);
  ASSERT_EQ(base.samples.size(), with_empty.samples.size());
  for (std::size_t k = 0; k < base.samples.size(); ++k) {
    EXPECT_EQ(base.samples[k].second, with_empty.samples[k].second);
  }
  EXPECT_EQ(with_empty.fault_counters.signals_lost, 0u);
}

// ------------------------------------------------- schedule on the DES ----

TEST(FaultSchedule, OutageHaltsServiceAndRecoveryResumesIt) {
  const auto topo = network::single_bottleneck(1, 1.0);
  faults::FaultPlan plan;
  plan.gateway_faults.push_back({0, /*start=*/1000.0, /*duration=*/500.0,
                                 /*factor=*/0.0});
  sim::NetworkSimulator netsim(topo, sim::SimDiscipline::Fifo, 11, plan);
  EXPECT_TRUE(netsim.impaired());
  netsim.set_rates({0.5});
  netsim.run_for(1000.0);
  const std::uint64_t before = netsim.packets_delivered_total();
  EXPECT_GT(before, 0u);
  netsim.run_for(500.0);  // inside the outage: nothing can be served
  EXPECT_EQ(netsim.packets_delivered_total(), before);
  netsim.run_for(1500.0);  // after recovery the backlog drains
  EXPECT_GT(netsim.packets_delivered_total(), before);
  EXPECT_EQ(netsim.fault_counters().gateway_outages, 1u);
  EXPECT_EQ(netsim.fault_counters().gateway_recoveries, 1u);
  EXPECT_EQ(netsim.fault_counters().gateway_degradations, 0u);
}

TEST(FaultSchedule, DegradationLengthensQueuesAndCounts) {
  const auto topo = network::single_bottleneck(2, 1.0);
  faults::FaultPlan plan;
  plan.gateway_faults.push_back({0, 0.0, 20000.0, /*factor=*/0.5});
  sim::NetworkSimulator impaired(topo, sim::SimDiscipline::Fifo, 21, plan);
  sim::NetworkSimulator nominal(topo, sim::SimDiscipline::Fifo, 21);
  for (auto* s : {&impaired, &nominal}) {
    s->set_rates({0.2, 0.2});
    s->run_for(2000.0);
    s->reset_metrics();
    s->run_for(15000.0);
  }
  // Served at mu/2, the load doubles: queues must be clearly longer.
  EXPECT_GT(impaired.mean_total_queue(0), 1.5 * nominal.mean_total_queue(0));
  EXPECT_EQ(impaired.fault_counters().gateway_degradations, 1u);
  obs::MetricRegistry metrics;
  impaired.collect_metrics(metrics);
  EXPECT_EQ(metrics.counter("faults.gateway_degradations"), 1u);
}

TEST(FaultSchedule, ChurnSilencesAndRevivesASource) {
  const auto topo = network::single_bottleneck(2, 1.0);
  faults::FaultPlan plan;
  plan.churn.push_back({/*connection=*/1, /*leave=*/1000.0,
                        /*rejoin=*/3000.0});
  sim::NetworkSimulator netsim(topo, sim::SimDiscipline::Fifo, 31, plan);
  netsim.set_rates({0.2, 0.2});
  netsim.run_for(1010.0);  // a hair past the leave so in-flight drain out
  netsim.reset_metrics();
  netsim.run_for(1980.0);  // strictly inside the away window
  EXPECT_EQ(netsim.delivered(1), 0u)
      << "a churned-out source must stop generating";
  EXPECT_GT(netsim.delivered(0), 0u);
  netsim.run_for(2000.0);  // past the rejoin
  EXPECT_GT(netsim.delivered(1), 0u) << "the source must resume on rejoin";
  EXPECT_EQ(netsim.fault_counters().source_leaves, 1u);
  EXPECT_EQ(netsim.fault_counters().source_joins, 1u);
}

TEST(FaultSchedule, SetRatesKeepsChurnedSourceSilent) {
  const auto topo = network::single_bottleneck(2, 1.0);
  faults::FaultPlan plan;
  plan.churn.push_back({1, /*leave=*/100.0, kInf});  // never comes back
  sim::NetworkSimulator netsim(topo, sim::SimDiscipline::Fifo, 41, plan);
  netsim.set_rates({0.2, 0.2});
  netsim.run_for(150.0);
  netsim.set_rates({0.2, 0.9});  // re-rating must NOT resurrect it
  netsim.reset_metrics();
  netsim.run_for(3000.0);
  EXPECT_EQ(netsim.delivered(1), 0u);
  EXPECT_GT(netsim.delivered(0), 0u);
}

TEST(FaultSchedule, PlanIsValidatedAgainstTheTopology) {
  faults::FaultPlan plan;
  plan.gateway_faults.push_back({/*gateway=*/5, 1.0, 1.0, 0.5});
  EXPECT_THROW(sim::NetworkSimulator(network::single_bottleneck(2, 1.0),
                                     sim::SimDiscipline::Fifo, 1, plan),
               std::invalid_argument);
}

// --------------------------------------------- closed-loop signal path ----

TEST(FaultSignals, TotalLossFreezesEveryRate) {
  const auto topo = network::single_bottleneck(2, 1.0);
  faults::FaultPlan plan;
  plan.signal_loss_prob = 1.0;
  sim::ClosedLoopOptions opts;
  opts.epoch_duration = 200.0;
  sim::ClosedLoopSimulator loop(topo, sim::SimDiscipline::FairShare,
                                std::make_shared<core::RationalSignal>(),
                                core::FeedbackStyle::Individual,
                                tsi_adjusters(2), 7, plan, opts);
  const std::vector<double> r0{0.15, 0.25};
  loop.run(r0, 5);
  EXPECT_EQ(loop.rates(), r0)
      << "with every signal lost, no source may ever adjust";
  EXPECT_EQ(loop.fault_counters().signals_lost, 2u * 5u);
  obs::MetricRegistry metrics;
  loop.collect_metrics(metrics);
  EXPECT_EQ(metrics.counter("faults.signals_lost"), 10u);
}

TEST(FaultSignals, DuplicationDoublesTheFirstStep) {
  const auto topo = network::single_bottleneck(1, 1.0);
  sim::ClosedLoopOptions opts;
  opts.epoch_duration = 200.0;
  faults::FaultPlan dup;
  dup.signal_duplicate_prob = 1.0;
  sim::ClosedLoopSimulator doubled(topo, sim::SimDiscipline::FairShare,
                                   std::make_shared<core::RationalSignal>(),
                                   core::FeedbackStyle::Individual,
                                   tsi_adjusters(1), 7, dup, opts);
  sim::ClosedLoopSimulator plain(topo, sim::SimDiscipline::FairShare,
                                 std::make_shared<core::RationalSignal>(),
                                 core::FeedbackStyle::Individual,
                                 tsi_adjusters(1), 7, opts);
  const auto rec_dup = doubled.run({0.1}, 1);
  const auto rec_plain = plain.run({0.1}, 1);
  // Same seed => same epoch measurement; the duplicated signal is applied
  // twice, compounding the (rate-dependent) adjustment.
  ASSERT_EQ(rec_dup[0].signals, rec_plain[0].signals);
  const double f1 = 0.1 * (0.5 - rec_plain[0].signals[0]);
  const double once = std::max(0.0, 0.1 + f1);
  EXPECT_DOUBLE_EQ(plain.rates()[0], once);
  const double f2 = 0.1 * (0.5 - rec_plain[0].signals[0]);
  EXPECT_DOUBLE_EQ(doubled.rates()[0], std::max(0.0, once + f2));
  EXPECT_EQ(doubled.fault_counters().signals_duplicated, 1u);
}

TEST(FaultSignals, StaleSignalsActOnOldMeasurements) {
  const auto topo = network::single_bottleneck(2, 1.0);
  faults::FaultPlan plan;
  plan.signal_delay_epochs = 3;
  sim::ClosedLoopOptions opts;
  opts.epoch_duration = 200.0;
  sim::ClosedLoopSimulator loop(topo, sim::SimDiscipline::FairShare,
                                std::make_shared<core::RationalSignal>(),
                                core::FeedbackStyle::Individual,
                                tsi_adjusters(2), 7, plan, opts);
  loop.run({0.1, 0.1}, 6);
  // Epoch 0 acts fresh (no history yet); epochs 1..5 act on stale signals.
  EXPECT_EQ(loop.fault_counters().signals_delayed, 2u * 5u);
}

// ------------------------------------------------------- run_async path ----

TEST(FaultSignals, RunAsyncLossBlocksEveryUpdate) {
  const auto topo = network::single_bottleneck(2, 1.0);
  core::FlowControlModel model(topo, std::make_shared<queueing::FairShare>(),
                               std::make_shared<core::RationalSignal>(),
                               core::FeedbackStyle::Individual,
                               tsi_adjusters(2)[0]);
  faults::FaultPlan plan;
  plan.signal_loss_prob = 1.0;
  core::AsyncOptions options;
  options.horizon = 200.0;
  options.seed = 3;
  options.faults = &plan;
  const std::vector<double> r0{0.1, 0.2};
  const auto result = core::run_async(model, r0, options);
  EXPECT_EQ(result.final_rates, r0);
  EXPECT_EQ(result.updates_performed, 0u);
  EXPECT_GT(result.fault_counters.signals_lost, 0u);
}

TEST(FaultSignals, RunAsyncExtraStalenessChangesTheTrajectory) {
  const auto topo = network::single_bottleneck(3, 1.0);
  core::FlowControlModel model(topo, std::make_shared<queueing::FairShare>(),
                               std::make_shared<core::RationalSignal>(),
                               core::FeedbackStyle::Individual,
                               tsi_adjusters(3, 0.3)[0]);
  core::AsyncOptions options;
  options.horizon = 400.0;
  options.seed = 9;
  const auto fresh = core::run_async(model, {0.05, 0.1, 0.6}, options);
  faults::FaultPlan plan;
  plan.signal_delay_time = 25.0;
  options.faults = &plan;
  const auto stale = core::run_async(model, {0.05, 0.1, 0.6}, options);
  EXPECT_EQ(stale.fault_counters.signals_delayed, stale.updates_performed);
  EXPECT_NE(fresh.final_rates, stale.final_rates)
      << "25 time units of extra staleness must perturb the trajectory";
}

// --------------------------------------------------- sweep determinism ----

TEST(FaultDeterminism, ImpairedSweepIsIdenticalAcrossJobCounts) {
  // The E13b shape in miniature: impaired closed-loop tasks
  // fanned across threads must give byte-identical results and merged
  // metrics at --jobs 1 and --jobs 4 (docs/DETERMINISM.md).
  const auto run_sweep = [](std::size_t jobs) {
    exec::ParamGrid grid;
    grid.axis("loss", {0.0, 0.5}).axis("delay", {0.0, 2.0});
    exec::SweepOptions options;
    options.jobs = jobs;
    options.base_seed = 2024;
    exec::SweepRunner runner(options);
    auto results = runner.run(
        grid,
        [](const exec::GridPoint& p, std::uint64_t seed,
           obs::MetricRegistry& metrics) -> std::vector<double> {
          faults::FaultPlan plan;
          plan.signal_loss_prob = p.get("loss");
          plan.signal_delay_epochs =
              static_cast<std::size_t>(p.get("delay"));
          plan.gateway_faults.push_back({0, 300.0, 200.0, 0.5});
          sim::ClosedLoopOptions opts;
          opts.epoch_duration = 150.0;
          sim::ClosedLoopSimulator loop(
              network::single_bottleneck(2, 1.0),
              sim::SimDiscipline::FairShare,
              std::make_shared<core::RationalSignal>(),
              core::FeedbackStyle::Individual, tsi_adjusters(2), seed, plan,
              opts);
          loop.run({0.1, 0.1}, 6);
          loop.collect_metrics(metrics);
          return loop.rates();
        });
    obs::MetricRegistry merged;
    for (const auto& task : runner.last_manifest().tasks) {
      merged.merge(task.metrics);
    }
    return std::make_pair(std::move(results), merged.counters());
  };
  const auto serial = run_sweep(1);
  const auto parallel = run_sweep(4);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_GT(serial.second.at("faults.gateway_degradations"), 0u);
}

}  // namespace
