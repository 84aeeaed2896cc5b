#include "network/csr.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace ffc::network {

CsrIncidence::CsrIncidence(std::size_t num_gateways,
                           std::vector<std::size_t> conn_row,
                           std::vector<GatewayId> conn_gw)
    : conn_row_(std::move(conn_row)), conn_gw_(std::move(conn_gw)) {
  const std::size_t entries = conn_gw_.size();

  gw_row_.assign(num_gateways + 1, 0);
  for (GatewayId a : conn_gw_) ++gw_row_[a + 1];
  std::partial_sum(gw_row_.begin(), gw_row_.end(), gw_row_.begin());

  gw_conn_.resize(entries);
  conn_slot_.resize(entries);

  // One pass in ascending connection id: appending at each gateway's cursor
  // yields ascending connection ids per gateway row, and the cursor position
  // IS the entry's slot, so no membership search is ever needed.
  std::vector<std::size_t> cursor(gw_row_.begin(), gw_row_.end() - 1);
  for (ConnectionId i = 0; i + 1 < conn_row_.size(); ++i) {
    for (std::size_t e = conn_row_[i]; e < conn_row_[i + 1]; ++e) {
      const GatewayId a = conn_gw_[e];
      const std::size_t slot = cursor[a]++;
      gw_conn_[slot] = i;
      conn_slot_[e] = slot;
    }
  }
}

void gather_by_gateway_into(const CsrIncidence& csr,
                            const std::vector<double>& per_connection,
                            std::vector<double>& flat) {
  const std::size_t entries = csr.num_entries();
  flat.resize(entries);
  // One contiguous stream over the E slots via the slot -> connection map:
  // unit-stride store, gather load, no inner slot-list loop. This is the
  // form the compiler turns into vector gathers where the ISA has them
  // (-march=native / FFC_NATIVE) and a tight scalar stream otherwise --
  // either way it beats the per-connection scatter, whose slot lists made
  // every iteration a dependent double indirection.
  const std::span<const ConnectionId> slot_conn = csr.slot_connections();
  const ConnectionId* conn = slot_conn.data();
  double* out = flat.data();
  const double* src = per_connection.data();
  for (std::size_t e = 0; e < entries; ++e) {
    out[e] = src[conn[e]];
  }
}

void reduce_max_over_paths_into(const CsrIncidence& csr,
                                const std::vector<double>& flat,
                                std::vector<double>& per_connection) {
  const std::size_t num_conn = csr.num_connections();
  per_connection.resize(num_conn);
  for (ConnectionId i = 0; i < num_conn; ++i) {
    const auto slots = csr.slots(i);
    // Branch-free running max: std::max compiles to maxsd/vmaxpd instead of
    // a compare-and-branch per hop (NaN-free by the model's invariants).
    double best = flat[slots.front()];
    for (std::size_t h = 1; h < slots.size(); ++h) {
      best = std::max(best, flat[slots[h]]);
    }
    per_connection[i] = best;
  }
}

void reduce_sum_over_paths_into(const CsrIncidence& csr,
                                const std::vector<double>& flat,
                                std::vector<double>& per_connection) {
  const std::size_t num_conn = csr.num_connections();
  per_connection.resize(num_conn);
  for (ConnectionId i = 0; i < num_conn; ++i) {
    double total = 0.0;
    for (std::size_t slot : csr.slots(i)) total += flat[slot];
    per_connection[i] = total;
  }
}

}  // namespace ffc::network
