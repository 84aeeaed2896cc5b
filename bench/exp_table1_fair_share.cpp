// TAB1 -- Reproduces Table 1 of the paper: the Fair Share service
// discipline's priority decomposition for four connections with increasing
// rates, plus the resulting queue occupancies (which Table 1's construction
// implies but the paper does not tabulate).
//
// Claims (exit code 0 iff all pass): the class totals and the per-cell
// decomposition both match the paper's pattern to 1e-12.
#include <cmath>
#include <vector>

#include "queueing/fair_share.hpp"
#include "report/table.hpp"
#include "repro/experiments.hpp"

namespace ffc::repro {

namespace {

using ffc::queueing::FairShare;
using ffc::report::fmt;
using ffc::report::TextTable;

}  // namespace

void run_table1(ExperimentContext& ctx) {
  auto& out = ctx.out;
  out << "== TAB1: The Fair Share service discipline (paper Table 1) "
         "==\n\n";
  // The paper's example uses four abstract rates r1 < r2 < r3 < r4; we give
  // them concrete values that keep the gateway underloaded at mu = 1.
  const std::vector<double> rates{0.05, 0.15, 0.25, 0.35};
  const double mu = 1.0;

  const auto decomposition = FairShare::decompose(rates);

  TextTable table({"connection", "A", "B", "C", "D", "sum=r_i"});
  table.set_title(
      "Per-connection rate in each FS priority class (A = highest)\n"
      "expected pattern: row i = [r1, r2-r1, ..., r_i-r_{i-1}, 0, ...]");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    double sum = 0.0;
    std::vector<std::string> row{std::to_string(i + 1)};
    for (std::size_t j = 0; j < rates.size(); ++j) {
      row.push_back(decomposition.share(i, j) > 0.0
                        ? fmt(decomposition.share(i, j), 2)
                        : "-");
      sum += decomposition.share(i, j);
    }
    row.push_back(fmt(sum, 2));
    table.add_row(std::move(row));
  }
  table.print(out);

  TextTable totals({"class", "total rate", "expected (N-j+1)(r_j-r_{j-1})"});
  totals.set_title("\nPriority-class totals");
  double worst_total_error = 0.0;
  double prev = 0.0;
  for (std::size_t j = 0; j < rates.size(); ++j) {
    const double expected =
        static_cast<double>(rates.size() - j) * (rates[j] - prev);
    prev = rates[j];
    worst_total_error = std::max(
        worst_total_error, std::abs(decomposition.class_totals[j] - expected));
    totals.add_row({std::string(1, static_cast<char>('A' + j)),
                    fmt(decomposition.class_totals[j], 2), fmt(expected, 2)});
  }
  totals.print(out);

  // The occupancies Table 1's construction yields via the preemptive
  // priority law.
  FairShare fs;
  const auto q = fs.queue_lengths(rates, mu);
  TextTable queues({"connection", "r_i", "sigma_i", "Q_i"});
  queues.set_title("\nResulting mean queues (mu = 1)");
  const auto sigma = FairShare::cumulative_loads(rates, mu);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    queues.add_row({std::to_string(i + 1), fmt(rates[i], 2),
                    fmt(sigma[i], 3), fmt(q[i], 4)});
  }
  queues.print(out);

  // Verify the paper's structural pattern: connection i contributes
  // r_j - r_{j-1} to class j for j <= i, nothing above.
  double worst_cell_error = 0.0;
  prev = 0.0;
  for (std::size_t j = 0; j < rates.size(); ++j) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const double expected = i >= j ? rates[j] - prev : 0.0;
      worst_cell_error = std::max(
          worst_cell_error, std::abs(decomposition.share(i, j) - expected));
    }
    prev = rates[j];
  }

  ctx.claims.check_at_most(
      {"TAB1", "class_totals"},
      "Priority-class totals follow (N-j+1)(r_j - r_{j-1}) (Table 1)",
      worst_total_error, 1e-12);
  ctx.claims.check_at_most(
      {"TAB1", "priority_decomposition"},
      "Connection i contributes r_j - r_{j-1} to every class j <= i and "
      "nothing above (Table 1's decomposition pattern)",
      worst_cell_error, 1e-12);

  out << "\nTable 1 pattern reproduced: "
      << (ctx.claims.all_passed() ? "YES" : "NO") << "\n";
}

}  // namespace ffc::repro
