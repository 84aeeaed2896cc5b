// Compressed-sparse-row incidence between connections and gateways.
//
// The topology's two membership views -- Gamma(a), the connections through
// gateway a, and y(i), the gateways on connection i's path -- are stored as
// a dual CSR structure over the E = sum_i |y(i)| incidence entries:
//
//   gateway-major:    gw_row_[a] .. gw_row_[a+1]   indexes into gw_conn_
//   connection-major: conn_row_[i] .. conn_row_[i+1] indexes into conn_gw_
//
// Each connection-major entry additionally records its flat gateway-major
// position (conn_slot_); its Gamma(a)-local index is that slot minus the
// gateway's row start. The slot array is what makes structure-of-arrays
// buffers possible: any per-entry quantity (local rates, signals, sojourn
// times) lives in ONE flat vector of length E laid out gateway-major,
// gateways read their slice as a span, and connections reduce over their
// path through conn_slot_ in O(|y(i)|) with no per-gateway indirection.
// Construction is O(E).
//
// Layout, memory model, and the large-N engine built on top are documented
// in docs/SCALING.md.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace ffc::network {

using GatewayId = std::size_t;
using ConnectionId = std::size_t;

/// Immutable dual-CSR incidence index. Built by Topology from already
/// validated connection-major rows (paths nonempty, in range,
/// duplicate-free).
class CsrIncidence {
 public:
  CsrIncidence() = default;

  /// Indexes the incidence structure in O(E): y(i) is
  /// conn_gw[conn_row[i] .. conn_row[i + 1]). Both rows are moved in as the
  /// connection-major arrays. They must already be validated; this
  /// constructor does not re-check.
  CsrIncidence(std::size_t num_gateways, std::vector<std::size_t> conn_row,
               std::vector<GatewayId> conn_gw);

  std::size_t num_gateways() const {
    return gw_row_.empty() ? 0 : gw_row_.size() - 1;
  }
  std::size_t num_connections() const {
    return conn_row_.empty() ? 0 : conn_row_.size() - 1;
  }
  /// E: total number of (connection, gateway) incidence entries.
  std::size_t num_entries() const { return gw_conn_.size(); }

  /// Gamma(a): connections through gateway a, ascending connection id.
  std::span<const ConnectionId> connections_through(GatewayId a) const {
    return {gw_conn_.data() + gw_row_[a], gw_row_[a + 1] - gw_row_[a]};
  }

  /// N^a: number of connections through gateway a.
  std::size_t fan_in(GatewayId a) const {
    return gw_row_[a + 1] - gw_row_[a];
  }

  /// y(i): gateways on connection i's path, in traversal order.
  std::span<const GatewayId> path(ConnectionId i) const {
    return {conn_gw_.data() + conn_row_[i], conn_row_[i + 1] - conn_row_[i]};
  }

  /// Gamma(a)-local index of connection i at hop h of its path.
  std::size_t local_index_at(ConnectionId i, std::size_t h) const {
    const std::size_t e = conn_row_[i] + h;
    return conn_slot_[e] - gw_row_[conn_gw_[e]];
  }

  /// Gamma(a)-local index of connection i at gateway a, found on i's path
  /// in O(|y(i)|), not in O(N^a); nullopt if i is no connection through a.
  std::optional<std::size_t> local_index(ConnectionId i, GatewayId a) const {
    if (i >= num_connections()) return std::nullopt;
    for (std::size_t e = conn_row_[i]; e < conn_row_[i + 1]; ++e) {
      if (conn_gw_[e] == a) return conn_slot_[e] - gw_row_[a];
    }
    return std::nullopt;
  }

  /// Flat gateway-major SoA position of connection i's entry at each hop:
  /// slots(i)[h] == gateway_offset(path(i)[h]) + local_index_at(i, h).
  std::span<const std::size_t> slots(ConnectionId i) const {
    return {conn_slot_.data() + conn_row_[i],
            conn_row_[i + 1] - conn_row_[i]};
  }

  /// Start of gateway a's slice in a flat gateway-major SoA buffer.
  std::size_t gateway_offset(GatewayId a) const { return gw_row_[a]; }

  /// The connection id occupying each flat gateway-major slot, for all E
  /// slots -- the slot -> connection map the SoA gather/scatter kernels walk
  /// as ONE contiguous loop instead of per-connection slot lists.
  std::span<const ConnectionId> slot_connections() const { return gw_conn_; }

 private:
  std::vector<std::size_t> gw_row_;      ///< num_gateways + 1 offsets
  std::vector<ConnectionId> gw_conn_;    ///< E entries, ascending per row
  std::vector<std::size_t> conn_row_;    ///< num_connections + 1 offsets
  std::vector<GatewayId> conn_gw_;       ///< E entries, traversal order
  std::vector<std::size_t> conn_slot_;   ///< flat gateway-major slot per entry
};

// Structure-of-arrays *_into primitives over the flat gateway-major layout.
// All follow the PR 3 idiom: unchecked, resize-once, zero heap allocations
// after the destination has warmed up to E (respectively N) entries.

/// flat[slot] = per_connection[connection at that slot], for every incidence
/// entry -- distributes a per-connection vector (e.g. rates) into the
/// gateway-major SoA buffer so each gateway sees its local slice as a span.
void gather_by_gateway_into(const CsrIncidence& csr,
                            const std::vector<double>& per_connection,
                            std::vector<double>& flat);

/// per_connection[i] = max over connection i's path of flat[slot] -- the
/// bottleneck reduction b_i = max_a b^a_i over a flat SoA signal buffer.
void reduce_max_over_paths_into(const CsrIncidence& csr,
                                const std::vector<double>& flat,
                                std::vector<double>& per_connection);

/// per_connection[i] = sum over connection i's path of flat[slot] -- the
/// path accumulation used for sojourn-time totals.
void reduce_sum_over_paths_into(const CsrIncidence& csr,
                                const std::vector<double>& flat,
                                std::vector<double>& per_connection);

}  // namespace ffc::network
