// Reproduces FIGURE 6 of the paper: maximum number of uncollected versions
// as a function of update granularity nu, at query granularity nq = 10, for
// the five VM algorithms (PSWF, PSLF, HP, EP, RCU).
//
// Expected shape (paper): HP flat at 2P; EP explodes at small nu (readers
// cannot catch up with epochs) and is moderate at large nu; RCU pinned at 1;
// PSWF/PSLF small (a fraction of the reader count) and shrinking as nu
// grows.
#include <cstdint>
#include <cstdio>

#include "bench_util.h"
#include "mvcc/vm/ep.h"
#include "mvcc/vm/hp.h"
#include "mvcc/vm/ibr.h"
#include "mvcc/vm/pslf.h"
#include "mvcc/vm/pswf.h"
#include "mvcc/vm/rcu.h"
#include "mvcc/workload/range_workload.h"

namespace {

using namespace mvcc;

template <template <typename> class VMImpl>
std::int64_t max_versions(int nu) {
  workload::RangeWorkloadConfig cfg;
  cfg.readers = bench::reader_threads();
  cfg.initial_size = static_cast<std::uint64_t>(config().scaled(100000));
  cfg.nq = 10;
  cfg.nu = nu;
  cfg.duration_sec = bench::cell_seconds();
  return workload::run_range_workload<VMImpl>(cfg).max_live_versions;
}

}  // namespace

int main() {
  const int nus[] = {1, 10, 100, 1000, 10000};
  bench::print_header(
      "Figure 6: max uncollected versions vs update granularity (nq=10)");
  std::printf("(readers=%d; paper: 140 query threads, HP flat at 2P=282, EP "
              "up to ~1000 at small nu, RCU=1)\n",
              bench::reader_threads());
  // The IBR column is our extension beyond the paper (Section 6 cites
  // interval-based reclamation [63] as a further VM solution): era-precise
  // reclamation with HP-style amortization, immune to EP's stalled-reader
  // explosion.
  bench::print_row({"nu", "PSWF", "PSLF", "HP", "EP", "RCU", "IBR"});
  for (int nu : nus) {
    std::fprintf(stderr, "fig6: nu=%d...\n", nu);
    bench::print_row({std::to_string(nu),
                      std::to_string(max_versions<vm::PswfVersionManager>(nu)),
                      std::to_string(max_versions<vm::PslfVersionManager>(nu)),
                      std::to_string(max_versions<vm::HpVersionManager>(nu)),
                      std::to_string(max_versions<vm::EpVersionManager>(nu)),
                      std::to_string(max_versions<vm::RcuVersionManager>(nu)),
                      std::to_string(max_versions<vm::IbrVersionManager>(nu))});
  }
  return 0;
}
