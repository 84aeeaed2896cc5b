#include "spectral/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "network/csr.hpp"
#include "queueing/discipline.hpp"

namespace ffc::spectral {

namespace {

/// Any exact duplicate among the (finite or infinite) values? The layer JVPs
/// resolve ties by the direction, which makes the one-sided derivative
/// direction-dependent -- the operator then needs the two-pass branch
/// average. Sorts a scratch copy; only runs at construction.
bool has_duplicates(std::span<const double> values,
                    std::vector<double>& scratch) {
  scratch.assign(values.begin(), values.end());
  std::sort(scratch.begin(), scratch.end());
  return std::adjacent_find(scratch.begin(), scratch.end()) != scratch.end();
}

}  // namespace

bool AnalyticJacobianOperator::supported(
    const core::FlowControlModel& model) {
  if (!model.signal().differentiable()) return false;
  if (!model.discipline().differentiable()) return false;
  for (network::ConnectionId i = 0; i < model.topology().num_connections();
       ++i) {
    if (!model.adjuster(i).differentiable()) return false;
  }
  return true;
}

AnalyticJacobianOperator::AnalyticJacobianOperator(
    const core::FlowControlModel& model, std::vector<double> base_rates)
    : model_(&model), base_(std::move(base_rates)) {
  if (!supported(*model_)) {
    throw std::invalid_argument(
        "AnalyticJacobianOperator: a model layer has no closed-form "
        "derivative (see supported())");
  }
  // The checked step validates the base once and leaves every observable
  // alive in ws_ for the operator's lifetime.
  model_->step(base_, ws_);

  const network::Topology& topo = model_->topology();
  const network::CsrIncidence& csr = topo.incidence();
  const std::size_t num_gw = topo.num_gateways();
  const std::size_t n = base_.size();
  const std::size_t entries = csr.num_entries();
  const core::NetworkState& st = ws_.state;
  const core::SignalFunction& sig = model_->signal();
  if (entries > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "AnalyticJacobianOperator: 2^32 or more incidence entries");
  }

  adj_dr_.resize(n);
  adj_db_.resize(n);
  adj_dd_.resize(n);
  status_.resize(n);
  bool boundary = false;
  for (std::size_t i = 0; i < n; ++i) {
    const core::RateAdjustment& adj = model_->adjuster(i);
    const double b = st.combined_signals[i];
    const double d = st.delays[i];
    const core::AdjustmentGradient grad = adj.gradient(base_[i], b, d);
    adj_dr_[i] = grad.d_rate;
    adj_db_[i] = grad.d_signal;
    adj_dd_[i] = grad.d_delay;
    need_delay_ = need_delay_ || grad.d_delay != 0.0;
    const double u = base_[i] + adj(base_[i], b, d);
    status_[i] = u > 0.0 ? Truncation::Active
                         : (u < 0.0 ? Truncation::Clamped
                                    : Truncation::Boundary);
    boundary = boundary || u == 0.0;
  }

  // Bottleneck layer: each connection's argmax hops, in path order, with
  // the signal slope B'(C) there. A connection with two or more hops at its
  // path maximum sits on the bottleneck max's kink.
  argmax_offset_.resize(n + 1);
  bool multi_bottleneck = false;
  for (network::ConnectionId i = 0; i < n; ++i) {
    argmax_offset_[i] = static_cast<std::uint32_t>(argmax_slot_.size());
    for (std::size_t slot : csr.slots(i)) {
      if (!core::is_bottleneck(st, i, slot)) continue;
      argmax_slot_.push_back(static_cast<std::uint32_t>(slot));
      argmax_coef_.push_back(sig.derivative(st.congestion[slot]));
    }
    multi_bottleneck = multi_bottleneck ||
                       argmax_slot_.size() - argmax_offset_[i] > 1;
  }
  argmax_offset_[n] = static_cast<std::uint32_t>(argmax_slot_.size());

  // A tie-sensitive discipline's perturbed order is (rate, dx, index). The
  // base rate order is fixed for the operator's lifetime, so it is sorted
  // once here, with the discipline's per-position JVP coefficients; each
  // pass then only re-sorts (or mirrors) the tie runs and walks the order.
  const bool rate_ties_matter = model_->discipline().jvp_tie_sensitive();
  if (rate_ties_matter) {
    rate_order_.resize(entries);
    jvp_order_.resize(entries);
    jvp_coef_.resize(entries);
    unsaturated_.resize(num_gw);
    run_offset_.resize(num_gw + 1);
    for (network::GatewayId a = 0; a < num_gw; ++a) {
      const std::size_t offset = csr.gateway_offset(a);
      const std::size_t m = csr.fan_in(a);
      const std::span<const double> local(ws_.local_rates.data() + offset, m);
      const std::span<std::uint32_t> order(rate_order_.data() + offset, m);
      run_offset_[a] = static_cast<std::uint32_t>(tie_runs_.size());
      queueing::rate_order_into(local, order, tie_runs_);
      unsaturated_[a] = static_cast<std::uint32_t>(
          model_->discipline().jvp_coefficients_into(
              local, topo.gateway(a).mu, {st.queues.data() + offset, m},
              order, {jvp_coef_.data() + offset, m}));
    }
    run_offset_[num_gw] = static_cast<std::uint32_t>(tie_runs_.size());
    // The history starts from the base order: every run of it is a
    // permutation of that run's members, as the reuse check requires.
    plus_order_.assign(rate_order_.begin(), rate_order_.end());
    std::size_t longest = 0;
    for (const queueing::RateTieRun& run : tie_runs_) {
      longest = std::max<std::size_t>(longest, run.end - run.begin);
    }
    keys_.reserve(2 * longest);
  }

  // Smoothness: one directional pass suffices iff no layer sits on a kink
  // the direction could tip. Rate ties only matter to tie-sensitive
  // disciplines (Fair Share's sort); queue ties only to the individual
  // measure's sort; FIFO + aggregate is smooth even fully tied.
  bool ties = rate_ties_matter && !tie_runs_.empty();
  if (!ties && model_->style() == core::FeedbackStyle::Individual) {
    std::vector<double> scratch;
    for (network::GatewayId a = 0; a < num_gw && !ties; ++a) {
      ties = has_duplicates(
          {st.queues.data() + csr.gateway_offset(a), csr.fan_in(a)}, scratch);
    }
  }
  smooth_ = !ties && !multi_bottleneck && !boundary;

  dx_flat_.resize(entries);
  dq_flat_.resize(entries);
  dc_flat_.resize(entries);
  d_plus_.resize(n);
  d_minus_.resize(n);
}

void AnalyticJacobianOperator::directional(const std::vector<double>& x,
                                           Side side,
                                           std::vector<double>& out) const {
  const network::Topology& topo = model_->topology();
  const network::CsrIncidence& csr = topo.incidence();
  const std::size_t num_gw = topo.num_gateways();
  const std::size_t n = base_.size();
  const core::NetworkState& st = ws_.state;
  const queueing::ServiceDiscipline& discipline = model_->discipline();
  const bool ordered = !rate_order_.empty();

  // The direction per entry: gathered for +x; negated in place for -x
  // (negation is exact, so this is the gather of -x).
  if (side == Side::Plus) {
    network::gather_by_gateway_into(csr, x, dx_flat_);
  } else {
    for (double& v : dx_flat_) v = -v;
  }

  // Discipline and congestion layers, gateway by gateway over the flat SoA
  // slices (same layout as observe_into).
  for (network::GatewayId a = 0; a < num_gw; ++a) {
    const std::size_t offset = csr.gateway_offset(a);
    const std::size_t m = csr.fan_in(a);
    const std::span<const double> dx(dx_flat_.data() + offset, m);
    const std::span<double> dq(dq_flat_.data() + offset, m);
    const std::span<double> dc(dc_flat_.data() + offset, m);
    const std::span<const double> queues(st.queues.data() + offset, m);
    const double mu = topo.gateway(a).mu;
    if (!ordered) {
      discipline.queue_lengths_jvp_into({ws_.local_rates.data() + offset, m},
                                        mu, queues, dx, ws_.discipline, dq);
      core::congestion_jvp_into(model_->style(), queues, dq, ws_.congestion,
                                dc);
      continue;
    }
    // The perturbed rate order: the base order with its tie runs sorted by
    // dx (Plus), or that order mirrored for -x (Minus, right after Plus).
    // A Plus pass keeps each run of the last Plus order that is still
    // sorted by (dx, index), which is then the one sorted result, and
    // sorts the others afresh from the base order.
    std::span<std::uint32_t> order(plus_order_.data() + offset, m);
    const std::span<const queueing::RateTieRun> runs(
        tie_runs_.data() + run_offset_[a], run_offset_[a + 1] - run_offset_[a]);
    if (side == Side::Plus) {
      for (const queueing::RateTieRun& run : runs) {
        const std::span<std::uint32_t> members =
            order.subspan(run.begin, run.end - run.begin);
        if (queueing::tie_run_ordered_by_direction(dx, members)) continue;
        std::copy_n(rate_order_.data() + offset + run.begin, members.size(),
                    members.begin());
        queueing::order_tie_runs_by_direction(dx, {&run, 1}, keys_, order);
      }
    } else {
      const std::span<std::uint32_t> mirrored(jvp_order_.data() + offset, m);
      std::copy(order.begin(), order.end(), mirrored.begin());
      queueing::mirror_tie_runs(dx, runs, mirrored);
      order = mirrored;
    }
    discipline.queue_lengths_jvp_ordered_into(
        mu, dx, order, {jvp_coef_.data() + offset, unsaturated_[a]}, dq);
    core::congestion_jvp_into(model_->style(), queues, dq, ws_.congestion, dc,
                              order);
  }

  // Per connection, fused: the signal and bottleneck layers (the one-sided
  // derivative of max_a b^a is the max of B'(C) dC over the argmax hops),
  // the delay layer, the adjuster and the truncation.
  out.resize(n);
  for (network::ConnectionId i = 0; i < n; ++i) {
    const double xi = side == Side::Plus ? x[i] : -x[i];
    double db = -std::numeric_limits<double>::infinity();
    for (std::uint32_t k = argmax_offset_[i]; k < argmax_offset_[i + 1]; ++k) {
      db = std::max(db, argmax_coef_[k] * dc_flat_[argmax_slot_[k]]);
    }
    double df = adj_dr_[i] * xi + adj_db_[i] * db;
    if (need_delay_) {
      // Quotient rule on the per-hop sojourn W = Q / r_i; pinned hops
      // (W = inf at a saturated gateway) and zero-rate connections
      // contribute slope 0, matching the FD operator's behaviour at those
      // pinned observables.
      double dd = 0.0;
      const double r = base_[i];
      if (r > 0.0) {
        const auto slots = csr.slots(i);
        const double inv = 1.0 / r;
        for (std::size_t h = 0; h < slots.size(); ++h) {
          const double w = ws_.sojourns[slots[h]];
          if (!std::isinf(w)) {
            dd += (dq_flat_[slots[h]] - w * xi) * inv;
          }
        }
      }
      df += adj_dd_[i] * dd;
    }
    switch (status_[i]) {
      case Truncation::Active:
        out[i] = xi + df;
        break;
      case Truncation::Clamped:
        out[i] = 0.0;
        break;
      case Truncation::Boundary:
        out[i] = std::max(0.0, xi + df);
        break;
    }
  }
}

void AnalyticJacobianOperator::apply(const linalg::Vector& x,
                                     linalg::Vector& y) const {
  const std::size_t n = base_.size();
  directional(x, Side::Plus, d_plus_);
  y.resize(n);
  if (smooth_) {
    // D is linear at a smooth base point: one pass IS the derivative.
    std::copy(d_plus_.begin(), d_plus_.end(), y.begin());
  } else {
    // Branch average (D(x) - D(-x)) / 2: the central-difference limit on
    // every kink, e.g. s/2 across the truncation boundary.
    directional(x, Side::Minus, d_minus_);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = 0.5 * (d_plus_[i] - d_minus_[i]);
    }
  }
  ++applications_;
}

}  // namespace ffc::spectral
