#!/usr/bin/env bash
# Compile-time vectorization-report check for the gateway-major SoA kernels.
#
# Recompiles the kernel translation units with the flags their targets build
# under (-O2 -ftree-loop-vectorize; FFC_VECTORIZE_OPTIONS in the top-level
# CMakeLists.txt, scoped to the SoA-kernel targets) plus
# -fopt-info-vec-optimized, and asserts that GCC's vectorizer report still
# claims the hot loops. This pins the KERNEL SHAPES -- branch-free
# contiguous loops over the flat SoA buffers -- against regressions that
# would silently de-vectorize them (an added branch, a pointer the compiler
# can no longer disambiguate), without needing a benchmark run.
#
# Pinned (counts are minimums, robust to line drift):
#   * queueing/fifo.hpp     >= 3 vectorized loops: the queue-length multiply,
#                              the JVP fused multiply-add, the saturation fill
#   * spectral/analytic.cpp >= 2 vectorized loops: the -x pass's in-place
#                              negation of the gathered direction, the
#                              two-pass branch average (B'(C) dC is one
#                              product per argmax hop inside the fused
#                              per-connection loop, an indexed read the
#                              baseline ISA does not vectorize)
#
# NOT pinned: FP sum reductions (vectorizing them needs -ffast-math
# reassociation, which this project never enables) and the CSR gather
# (profitable vector gathers need AVX2 -- only present under FFC_NATIVE).
# See docs/PERFORMANCE.md "Vectorization".
set -euo pipefail

cd "$(dirname "$0")/.."

CXX=${CXX:-g++}
FLAGS="-std=c++20 -O2 -ftree-loop-vectorize -fopt-info-vec-optimized -Isrc"

check_tu() {
  local tu="$1" pattern="$2" min="$3" label="$4"
  local report count
  report=$("$CXX" $FLAGS -c "$tu" -o /dev/null 2>&1 || true)
  count=$(grep -c "${pattern}.*loop vectorized" <<<"$report" || true)
  if [ "$count" -lt "$min" ]; then
    echo "FAIL: $label: expected >= $min vectorized loops matching" \
         "'$pattern', found $count" >&2
    echo "--- vectorizer report (filtered) ---" >&2
    grep "$pattern" <<<"$report" >&2 || true
    return 1
  fi
  echo "ok: $label: $count vectorized loops (>= $min required)"
}

status=0
# fifo.hpp is header-only and its anchor TU emits no code; compile a probe
# that calls the concrete kernels so the vectorizer reports them against the
# header's source lines.
probe=$(mktemp /tmp/ffc_vec_probe_XXXXXX.cpp)
trap 'rm -f "$probe"' EXIT
cat > "$probe" <<'EOF'
#include "queueing/fifo.hpp"
void ffc_vec_probe(const ffc::queueing::Fifo& f, std::span<const double> r,
                   double mu, ffc::queueing::DisciplineWorkspace& ws,
                   std::span<double> out, std::span<const double> dx,
                   std::span<double> dq) {
  f.queue_lengths_into(r, mu, ws, out);
  f.queue_lengths_jvp_into(r, mu, out, dx, ws, dq);
}
EOF
check_tu "$probe" "fifo.hpp" 3 "FIFO span kernels" || status=1
check_tu src/spectral/analytic.cpp "analytic.cpp" 2 \
  "analytic JVP fused loops" || status=1

exit $status
