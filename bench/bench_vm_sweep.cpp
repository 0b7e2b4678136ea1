// Reproduces the paper's Version Maintenance evidence from one grid of
// single-writer multi-reader range-sum cells (workload/range_workload.h),
// each run once:
//   * TABLE 2: query and update throughput (Mop/s) and the maximum number
//     of live versions per VM algorithm, at nq, nu in {10, 1000}^2;
//   * FIGURE 6: maximum uncollected versions against update granularity nu
//     at nq = 10 — the Thm 3.4 O(P) bound for PSWF/PSLF, HP flat at 2P, EP
//     exploding at small nu, RCU pinned at 1;
//   * the §7.1 ablation: PSWF (wait-free helping) against PSLF (lock-free)
//     at nq = 10, down to the hostile nu = 1 writer.
// The grid is every VM at nq = 10 x nu in {1, 10, 100, 1000, 10000} and at
// nq = 1000 x nu in {10, 1000}: 49 cells. Each cell is recorded as integer
// gauges vm_sweep/<VM>/nq<q>/nu<u>/{query_ops_per_s, update_ops_per_s,
// max_live_versions}, beside vm_sweep/readers; the tables are printed from
// those registry values.
//
// Paper setup: 72-core machine, 140 reader threads, initial tree 1e8, 15 s
// per cell. Defaults here are laptop-scale; scale with:
//   MVCC_READERS=140 MVCC_SCALE=1000 MVCC_SECONDS=15 ./bench_vm_sweep
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "mvcc/vm/base.h"
#include "mvcc/vm/ep.h"
#include "mvcc/vm/hp.h"
#include "mvcc/vm/ibr.h"
#include "mvcc/vm/pslf.h"
#include "mvcc/vm/pswf.h"
#include "mvcc/vm/rcu.h"
#include "mvcc/workload/range_workload.h"

namespace {

using namespace mvcc;

// Figure 6 sweeps nu at nq = 10; Table 2 runs nq in {10, 1000} at these nu.
constexpr int kFig6Nu[] = {1, 10, 100, 1000, 10000};
constexpr int kTable2Nu[] = {10, 1000};

std::string cell(const std::string& vm, int nq, int nu) {
  return vm + "/nq" + std::to_string(nq) + "/nu" + std::to_string(nu) + "/";
}

// Runs one cell and records it; returns the VM's name.
template <template <class> class VMImpl>
std::string run_cell(int nq, int nu) {
  workload::RangeWorkloadConfig cfg;
  cfg.readers = bench::reader_threads();
  cfg.initial_size = static_cast<std::uint64_t>(config().scaled(100000));
  cfg.nq = nq;
  cfg.nu = nu;
  cfg.duration_sec = bench::cell_seconds();
  const auto r = workload::run_range_workload<VMImpl>(cfg);
  const std::string name = VMImpl<workload::RangeSnapshot>::name();
  const std::string c = cell(name, nq, nu);
  auto& reg = obs::registry();
  reg.gauge(c + "query_ops_per_s").set(std::llround(r.query_mops() * 1e6));
  reg.gauge(c + "update_ops_per_s").set(std::llround(r.update_mops() * 1e6));
  reg.gauge(c + "max_live_versions").set(r.max_live_versions);
  return name;
}

// Runs one cell per VM at (nq, nu) and returns the VM names in column
// order (a braced list evaluates left to right).
std::vector<std::string> run_cells(int nq, int nu) {
  std::fprintf(stderr, "vm_sweep: nq=%d nu=%d...\n", nq, nu);
  return {run_cell<vm::BaseVersionManager>(nq, nu),
          run_cell<vm::PswfVersionManager>(nq, nu),
          run_cell<vm::PslfVersionManager>(nq, nu),
          run_cell<vm::HpVersionManager>(nq, nu),
          run_cell<vm::EpVersionManager>(nq, nu),
          run_cell<vm::RcuVersionManager>(nq, nu),
          run_cell<vm::IbrVersionManager>(nq, nu)};
}

std::int64_t value(const std::string& vm, int nq, int nu, const char* metric) {
  return obs::registry().gauge(cell(vm, nq, nu) + metric).value();
}

std::string mops(const std::string& vm, int nq, int nu, const char* metric) {
  return bench::fmt(static_cast<double>(value(vm, nq, nu, metric)) / 1e6);
}

std::string versions(const std::string& vm, int nq, int nu) {
  return std::to_string(value(vm, nq, nu, "max_live_versions"));
}

// One Table 2 entry: Mop/s for a throughput, the count for live versions,
// except Base's, which never frees while running.
std::string table2_entry(const std::string& vm, int nq, int nu,
                         const std::string& metric) {
  if (metric != "max_live_versions") return mops(vm, nq, nu, metric.c_str());
  return vm == "Base" ? "-" : versions(vm, nq, nu);
}

}  // namespace

int main() {
  bench::ObsSession obs_session("vm_sweep");
  const int readers = bench::reader_threads();
  obs::registry().gauge("readers").set(readers);

  std::vector<std::string> vms;
  for (int nu : kFig6Nu) vms = run_cells(10, nu);
  for (int nu : kTable2Nu) vms = run_cells(1000, nu);

  bench::print_header(
      "Table 2: query/update throughput and live versions per VM algorithm");
  std::printf("(readers=%d, scale=%g, %gs per cell; paper: 140 readers, "
              "1e8 keys, 15s; IBR is an extension beyond the paper)\n",
              readers, config().scale, bench::cell_seconds());
  std::vector<std::string> header = {"nq", "nu"};
  header.insert(header.end(), vms.begin(), vms.end());
  const std::pair<const char*, const char*> sections[] = {
      {"Query Throughput (Mop/s)", "query_ops_per_s"},
      {"Update Throughput (Mop/s)", "update_ops_per_s"},
      {"Max # Versions", "max_live_versions"}};
  for (const auto& [title, metric] : sections) {
    std::printf("--- %s\n", title);
    bench::Table t(header);
    for (int nq : {10, 1000}) {
      for (int nu : kTable2Nu) {
        std::vector<std::string> row = {std::to_string(nq), std::to_string(nu)};
        for (const auto& v : vms) {
          row.push_back(table2_entry(v, nq, nu, metric));
        }
        t.add_row(std::move(row));
      }
    }
    t.print();
  }

  bench::print_header(
      "Figure 6: max uncollected versions vs update granularity (nq=10)");
  std::printf("(readers=%d; paper: 140 query threads, HP flat at 2P=282, EP "
              "up to ~1000 at small nu, RCU=1; PSWF/PSLF <= P + 1 = %d)\n",
              readers, readers + 2);
  // Base, the first column, never frees, so it has no column here.
  const std::vector<std::string> fig6_vms(vms.begin() + 1, vms.end());
  std::vector<std::string> fig6_header = {"nu"};
  fig6_header.insert(fig6_header.end(), fig6_vms.begin(), fig6_vms.end());
  bench::Table fig6(std::move(fig6_header));
  for (int nu : kFig6Nu) {
    std::vector<std::string> row = {std::to_string(nu)};
    for (const auto& v : fig6_vms) row.push_back(versions(v, 10, nu));
    fig6.add_row(std::move(row));
  }
  fig6.print();

  bench::print_header(
      "Ablation (7.1): PSWF (wait-free helping) vs PSLF (lock-free, no "
      "set-help), nq=10");
  bench::Table ablation(
      {"nu", "impl", "query Mop/s", "update Mop/s", "max vers"});
  for (int nu : {1, 10, 1000}) {
    for (const char* v : {"PSWF", "PSLF"}) {
      ablation.add_row({std::to_string(nu), v,
                        mops(v, 10, nu, "query_ops_per_s"),
                        mops(v, 10, nu, "update_ops_per_s"),
                        versions(v, 10, nu)});
    }
  }
  ablation.print();
  return 0;
}
