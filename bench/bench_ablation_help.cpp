// Ablation: what does PSWF's helping buy over PSLF (Section 7.1 notes the
// difference is invisible on average and matters in extreme cases)?
//
// We measure the reader-side acquire+release cost and the acquire retry
// behaviour under a maximally hostile writer (continuous sets with tiny
// update granularity, nu=1 -- the regime the paper says shows "a more
// notable difference").
#include <cstdint>
#include <cstdio>

#include "bench_util.h"
#include "mvcc/vm/pslf.h"
#include "mvcc/vm/pswf.h"
#include "mvcc/workload/range_workload.h"

namespace {

using namespace mvcc;

template <template <typename> class VMImpl>
workload::RangeWorkloadResult run(int nu) {
  workload::RangeWorkloadConfig cfg;
  cfg.readers = bench::reader_threads();
  cfg.initial_size = static_cast<std::uint64_t>(config().scaled(50000));
  cfg.nq = 10;
  cfg.nu = nu;
  cfg.duration_sec = bench::cell_seconds();
  return workload::run_range_workload<VMImpl>(cfg);
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: PSWF (wait-free helping) vs PSLF (lock-free, no set-help)");
  bench::print_row({"nu", "impl", "query Mop/s", "update Mop/s", "max vers"},
                   14);
  for (int nu : {1, 10, 1000}) {
    std::fprintf(stderr, "ablation_help: nu=%d...\n", nu);
    auto wf = run<vm::PswfVersionManager>(nu);
    auto lf = run<vm::PslfVersionManager>(nu);
    bench::print_row({std::to_string(nu), "PSWF", bench::fmt(wf.query_mops()),
                      bench::fmt(wf.update_mops()),
                      std::to_string(wf.max_live_versions)},
                     14);
    bench::print_row({std::to_string(nu), "PSLF", bench::fmt(lf.query_mops()),
                      bench::fmt(lf.update_mops()),
                      std::to_string(lf.max_live_versions)},
                     14);
  }
  std::printf("expected shape (paper 7.1): near-identical throughput; the\n"
              "helping machinery is insurance against adversarial stalls,\n"
              "not a fast-path cost.\n");
  return 0;
}
