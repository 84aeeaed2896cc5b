// certify: the Theorem-4 cell (individual feedback, Fair Share, rational
// signal, additive TSI eta = 0.4, beta = 0.5) certified spectrally on two
// multi-gateway networks. The one-huge-solve use of `spectral` and
// `linalg`: the fixed point (water-filling plus one damped iteration)
// and the set-up are a few percent of the wall time.
//
// The seed relabels both networks -- a random permutation of gateway ids
// and of connection order. Relabelling is a similarity transform of the
// Jacobian, so the certified radius must not move: the parking lot must
// certify at its analytic 0.8 and the random topology at the committed
// reference below, whatever the seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/rate_adjustment.hpp"
#include "core/signal.hpp"
#include "core/steady_state.hpp"
#include "harness.hpp"
#include "linalg/sparse_eigen.hpp"
#include "network/builders.hpp"
#include "queueing/fair_share.hpp"
#include "spectral/analytic.hpp"
#include "spectral/stability.hpp"
#include "stats/rng.hpp"

namespace perfbench {

namespace {

using namespace ffc;

constexpr std::size_t kHops = 4;
constexpr std::size_t kCrossPerHop = 10000;
constexpr std::size_t kRandomGateways = 200;
constexpr std::size_t kRandomConnections = 10000;
constexpr std::size_t kRandomMaxPath = 4;
/// The random topology itself is fixed, so its radius has a reference; the
/// workload seed only relabels it.
constexpr std::uint64_t kRandomTopologySeed = 20260807;
constexpr double kEta = 0.4;
constexpr double kBeta = 0.5;
constexpr double kParkingLotRadius = 0.8;
/// Spectral radius of the random topology's certificate, committed from a
/// run of this workload; every relabelling must reproduce it.
constexpr double kRandomTopologyRadius = 0.995688314982;
constexpr double kRadiusTolerance = 1e-6;
/// Set-ups per set-up sample: a set-up takes tens of milliseconds.
constexpr std::size_t kSetupBatch = 4;

std::vector<std::size_t> shuffled_iota(std::size_t n, stats::Xoshiro256& rng) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), std::size_t{0});
  for (std::size_t k = n; k > 1; --k) {
    std::swap(v[k - 1], v[rng.uniform_index(k)]);
  }
  return v;
}

/// The same network under a random permutation of gateway ids and of
/// connection order (paths keep their traversal order).
network::Topology relabeled(const network::Topology& t,
                            stats::Xoshiro256& rng) {
  const std::vector<std::size_t> gateway_id =
      shuffled_iota(t.num_gateways(), rng);
  const std::vector<std::size_t> order =
      shuffled_iota(t.num_connections(), rng);
  std::vector<network::Gateway> gateways(t.num_gateways());
  for (std::size_t a = 0; a < t.num_gateways(); ++a) {
    gateways[gateway_id[a]] = t.gateway(a);
  }
  std::vector<network::Connection> connections(t.num_connections());
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (network::GatewayId a : t.path(order[k])) {
      connections[k].path.push_back(gateway_id[a]);
    }
  }
  return network::Topology(std::move(gateways), std::move(connections));
}

network::Topology random_network() {
  stats::Xoshiro256 rng(kRandomTopologySeed);
  network::RandomTopologyParams params;
  params.num_gateways = kRandomGateways;
  params.num_connections = kRandomConnections;
  params.max_path_length = kRandomMaxPath;
  // Capacities scale with the expected fan-in N * E[path length] / G, as in
  // E16, so per-connection shares stay O(1) against the eta = 0.4 step.
  const double fan_in = double(kRandomConnections) *
                        (1.0 + double(kRandomMaxPath)) / 2.0 /
                        double(kRandomGateways);
  params.mu_min = 0.8 * fan_in;
  params.mu_max = 1.2 * fan_in;
  return network::random_topology(rng, params);
}

struct Cell {
  const char* label;
  double reference_radius;
  core::FlowControlModel model;
};

Cell make_cell(const char* label, double reference_radius,
               network::Topology topology) {
  Span span("core.model");
  return Cell{label, reference_radius,
              core::FlowControlModel(
                  std::move(topology), std::make_shared<queueing::FairShare>(),
                  std::make_shared<core::RationalSignal>(),
                  core::FeedbackStyle::Individual,
                  std::make_shared<core::AdditiveTsi>(kEta, kBeta))};
}

std::vector<Cell> build_cells(std::uint64_t seed) {
  stats::Xoshiro256 relabel_rng(seed);
  std::vector<Cell> cells;
  cells.reserve(2);
  network::Topology lot = in_span("network.parking_lot", [] {
    return network::parking_lot(kHops, kCrossPerHop, double(kCrossPerHop + 1));
  });
  lot = in_span("network.relabel", [&] { return relabeled(lot, relabel_rng); });
  cells.push_back(make_cell("parking lot", kParkingLotRadius, std::move(lot)));

  network::Topology random =
      in_span("network.random_topology", [] { return random_network(); });
  random = in_span("network.relabel",
                   [&] { return relabeled(random, relabel_rng); });
  cells.push_back(
      make_cell("random topology", kRandomTopologyRadius, std::move(random)));
  return cells;
}

spectral::SpectralOptions certify_options() {
  spectral::SpectralOptions opts;
  opts.method = spectral::SpectralOptions::Method::Iterative;
  // As in E16: heterogeneous shares cluster the real spectrum under the
  // radius, so power iteration is cut to a probe before Arnoldi takes over.
  opts.iterative.power_iterations = 300;
  return opts;
}

struct Certificate {
  core::FixedPointResult fixed;
  spectral::SpectralReport report;
};

/// LinearOperator wrapper that counts and times each Jacobian-vector
/// product, so a replay can split the eigensolver's own time from the
/// operator's.
class CountingOperator final : public linalg::LinearOperator {
 public:
  explicit CountingOperator(const linalg::LinearOperator& inner)
      : inner_(inner) {}
  std::size_t dim() const override { return inner_.dim(); }
  void apply(const linalg::Vector& x, linalg::Vector& y) const override {
    Span span("replay.spectral.jvp_apply");
    ++applications_;
    inner_.apply(x, y);
  }
  std::size_t applications() const { return applications_; }

 private:
  const linalg::LinearOperator& inner_;
  mutable std::size_t applications_ = 0;
};

}  // namespace

void run_certify(Harness& h) {
  std::optional<std::vector<Cell>> cells;
  const auto setup = [&] {
    cells.reset();
    cells.emplace(build_cells(h.options().seed));
  };
  const spectral::SpectralOptions opts = certify_options();
  std::vector<Certificate> last;
  h.measure(kSetupBatch, HostProbe::kThroughput, setup, [&](bool) {
    std::vector<Certificate> certs;
    certs.reserve(cells->size());
    const double t = h.timed([&] {
      for (const Cell& cell : *cells) {
        std::vector<double> start = in_span("core.fair_steady_state", [&] {
          return core::fair_steady_state(cell.model);
        });
        core::FixedPointResult fixed = in_span("core.solve_fixed_point", [&] {
          return core::solve_fixed_point(cell.model, std::move(start));
        });
        spectral::SpectralReport report =
            in_span("spectral.spectral_stability", [&] {
              return spectral::spectral_stability(cell.model, fixed.rates,
                                                  opts);
            });
        certs.push_back({std::move(fixed), std::move(report)});
      }
    });

    double iterations = 0.0, evaluations = 0.0, analytic = 0.0, deflated = 0.0;
    for (std::size_t c = 0; c < certs.size(); ++c) {
      const Cell& cell = (*cells)[c];
      const Certificate& cert = certs[c];
      const std::string label = cell.label;
      h.check(cert.fixed.converged, label + ": fixed point did not converge");
      h.check(cert.report.converged && cert.report.spectral_radius < 1.0,
              label + ": spectral radius not certified below 1");
      h.check(std::fabs(cert.report.spectral_radius - cell.reference_radius) <=
                  kRadiusTolerance,
              label + ": radius " + std::to_string(cert.report.spectral_radius) +
                  " differs from the reference " +
                  std::to_string(cell.reference_radius));
      h.fingerprint(cert.report.spectral_radius);
      iterations += double(cert.fixed.iterations);
      evaluations += double(cert.report.model_evaluations);
      analytic += cert.report.analytic_jvp ? 1.0 : 0.0;
      deflated += double(cert.report.unit_modes_deflated);
      std::fprintf(stderr, "certify: %s N=%zu radius %.12f\n", cell.label,
                   cell.model.topology().num_connections(),
                   cert.report.spectral_radius);
    }
    h.expect_same("core.fixed_point_iterations", iterations);
    h.expect_same("spectral.model_evaluations", evaluations);
    h.expect_same("spectral.analytic_jvp", analytic);
    h.expect_same("spectral.unit_modes_deflated", deflated);
    double slots = 0.0;
    for (const Cell& cell : *cells) {
      const auto& topo = cell.model.topology();
      for (std::size_t i = 0; i < topo.num_connections(); ++i) {
        slots += double(topo.path(i).size());
      }
    }
    h.value("network.slots", slots);
    last = std::move(certs);
    return t;
  });

  if (!h.options().trace) return;
  // Replay: the same solve through linalg::iterative_eigenvalues over a
  // counting wrapper of the analytic operator, with the options
  // spectral_stability derives for this (triangular) cell.
  h.replay([&] {
    double applications = 0.0, arnoldi = 0.0, residual = 0.0;
    for (std::size_t c = 0; c < cells->size(); ++c) {
      const Cell& cell = (*cells)[c];
      const spectral::AnalyticJacobianOperator jvp =
          in_span("replay.spectral.operator", [&] {
            return spectral::AnalyticJacobianOperator(cell.model,
                                                      last[c].fixed.rates);
          });
      const CountingOperator counting(jvp);
      linalg::IterativeEigenOptions eig = opts.iterative;
      eig.real_spectrum = true;
      const linalg::IterativeEigenResult result =
          in_span("replay.linalg.iterative_eigenvalues",
                  [&] { return linalg::iterative_eigenvalues(counting, 1, eig); });
      h.check(result.spectral_radius == last[c].report.spectral_radius,
              std::string(cell.label) +
                  ": replayed radius differs from spectral_stability");
      applications += double(counting.applications());
      arnoldi += result.method == linalg::IterativeMethod::Arnoldi ? 1.0 : 0.0;
      residual = std::max(residual, result.residual);
    }
    h.value("spectral.jvp_applications", applications);
    h.value("linalg.arnoldi_used", arnoldi);
    h.value("linalg.residual", residual);
  });
}

}  // namespace perfbench
