// Figure 9: mean performance of dynamic SpGEMM, algebraic case.
//
// Protocol (Section VII-C a): repeatedly compute C' = A'B over (+,*), where
// A' starts empty and grows by per-rank insertion batches drawn from the
// adjacency matrix; B is the full (static) adjacency matrix. The CombBLAS
// strategy computes A*B with static sparse SUMMA — which must broadcast
// blocks of the *large* B — and merges the result into its static C (a
// rebuild); a naive framework recomputes A'B entirely.
//
// The batch sweep keeps the paper's nnz(B) / (batch * p) ratio (~1000-8000):
// the dynamic algorithm's advantage is exactly the hypersparsity gap between
// the update and the operands, so the ratio — not the absolute batch — is
// what transfers across the ~2^12 instance scale-down.
//
// Paper result: ours is 3.41x (batch 8192) to 6.18x (batch 1024) faster than
// CombBLAS, >= 11.73x than CTF, >= 5.2x than PETSc; the speedup decreases
// with batch size as update matrices lose hypersparsity.
#include <algorithm>

#include "baseline/static_rebuild.hpp"
#include "bench_common.hpp"
#include "core/dynamic_spgemm.hpp"
#include "core/summa.hpp"

using namespace dsg;
using namespace dsg::bench;

namespace {

constexpr int kRanks = 4;
constexpr int kBatches = 3;
const std::size_t kBatchSizes[] = {64, 256, 1024, 4096};

/// The static-C merge a CombBLAS-like framework performs per batch: sort the
/// delta and merge-rebuild the whole sorted array (local; the SpGEMM output
/// is already distributed correctly).
void merge_delta(std::vector<Triple<double>>& store,
                 std::vector<Triple<double>> delta) {
    auto less = [](const Triple<double>& a, const Triple<double>& b) {
        return std::tie(a.row, a.col) < std::tie(b.row, b.col);
    };
    std::sort(delta.begin(), delta.end(), less);
    std::vector<Triple<double>> merged(store.size() + delta.size());
    std::merge(store.begin(), store.end(), delta.begin(), delta.end(),
               merged.begin(), less);
    std::size_t w = 0;
    for (std::size_t r = 0; r < merged.size(); ++r) {
        if (w > 0 && merged[w - 1].row == merged[r].row &&
            merged[w - 1].col == merged[r].col) {
            merged[w - 1].value += merged[r].value;
        } else {
            merged[w++] = merged[r];
        }
    }
    merged.resize(w);
    store = std::move(merged);
}

struct Times {
    double ours = 0, combblas = 0, recompute = 0;
    double ours_bytes = 0, combblas_bytes = 0;
};

Times run_one(const Instance& inst, std::size_t batch_size) {
    Times t;
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = index_t{1} << inst.scale;
        auto mine = instance_edges(inst, comm.rank(), kRanks, 51);
        auto B = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, n, n, mine);

        core::DistDynamicMatrix<double> A(grid, n, n);
        core::DistDynamicMatrix<double> C(grid, n, n);
        core::DistDynamicMatrix<double> A_cb(grid, n, n);
        std::vector<Triple<double>> C_cb;  // CombBLAS's static sorted C block

        std::mt19937_64 rng(61 + static_cast<std::uint64_t>(comm.rank()));
        double ours = 0, cb = 0, rec = 0;
        std::uint64_t ours_b = 0, cb_b = 0;
        for (int b = 0; b < kBatches; ++b) {
            std::vector<Triple<double>> batch;
            batch.reserve(batch_size);
            for (std::size_t x = 0; x < batch_size; ++x)
                batch.push_back(mine[rng() % mine.size()]);

            // -- ours: C += A* B (Algorithm 1) --------------------------------
            reset_stats(comm);
            ours += timed_ms(comm, [&] {
                auto Astar = core::build_update_matrix(grid, n, n, batch);
                core::dynamic_spgemm_algebraic<sparse::PlusTimes<double>>(
                    C, Astar, B);
                core::add_update<sparse::PlusTimes<double>>(A, Astar);
            });
            comm.barrier();
            ours_b += comm.stats().snapshot().total_bytes();

            // -- CombBLAS-like: SUMMA(A*, B), local merge into static C -------
            reset_stats(comm);
            cb += timed_ms(comm, [&] {
                auto Astar_dyn =
                    core::build_dynamic_matrix<sparse::PlusTimes<double>>(
                        grid, n, n, batch);
                auto Cpart = core::summa_multiply<sparse::PlusTimes<double>>(
                    Astar_dyn, B);
                merge_delta(C_cb, Cpart.local().to_triples());
                auto U = core::build_update_matrix(grid, n, n, batch);
                core::add_update<sparse::PlusTimes<double>>(A_cb, U);
            });
            comm.barrier();
            cb_b += comm.stats().snapshot().total_bytes();

            // -- naive framework: full recompute of A'B -----------------------
            rec += timed_ms(comm, [&] {
                auto C2 = core::summa_multiply<sparse::PlusTimes<double>>(A, B);
            });
        }
        if (comm.rank() == 0) {
            t.ours = ours / kBatches;
            t.combblas = cb / kBatches;
            t.recompute = rec / kBatches;
            t.ours_bytes = static_cast<double>(ours_b) / kBatches;
            t.combblas_bytes = static_cast<double>(cb_b) / kBatches;
        }
    });
    return t;
}

}  // namespace

int main() {
    print_header("Figure 9: dynamic SpGEMM, algebraic case ((+,*) semiring)",
                 "Fig. 9");
    const auto& all = instances();
    const std::vector<Instance> insts = {all[10], all[11]};  // largest two
    std::printf("%-8s | %9s %10s %11s | %9s | %s\n", "batch", "ours",
                "CombBLAS", "recompute", "vs CombB", "comm KB ours/CombBLAS");
    for (std::size_t bs : kBatchSizes) {
        Times mean;
        int count = 0;
        for (const auto& inst : insts) {
            const Times t = run_one(inst, bs);
            mean.ours += t.ours;
            mean.combblas += t.combblas;
            mean.recompute += t.recompute;
            mean.ours_bytes += t.ours_bytes;
            mean.combblas_bytes += t.combblas_bytes;
            ++count;
        }
        const double k = count;
        std::printf("%-8zu | %7.2fms %8.2fms %9.2fms | %8.2fx | %.0f / %.0f\n",
                    bs, mean.ours / k, mean.combblas / k, mean.recompute / k,
                    mean.combblas / mean.ours, mean.ours_bytes / k / 1024,
                    mean.combblas_bytes / k / 1024);
        JsonRecord rec("bench_fig9_spgemm_algebraic");
        rec.field("batch", bs)
            .field("ours_ms", mean.ours / k)
            .field("combblas_ms", mean.combblas / k)
            .field("recompute_ms", mean.recompute / k)
            .field("ours_comm_bytes", mean.ours_bytes / k)
            .field("combblas_comm_bytes", mean.combblas_bytes / k);
        json_record(rec);
    }
    std::printf(
        "\npaper: 3.41x-6.18x faster than CombBLAS (best competitor), with the\n"
        "speedup decreasing as batches grow; the advantage comes from not\n"
        "broadcasting blocks of the large static B (compare the byte columns).\n"
        "CTF/PETSc are slower than CombBLAS by constant factors of their\n"
        "implementations, which this harness does not model.\n");
    return 0;
}
