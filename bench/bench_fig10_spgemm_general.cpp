// Figure 10: mean performance of dynamic SpGEMM, general case, over the
// (min,+) semiring.
//
// Protocol (Section VII-C b): same streaming setup as Fig. 9, but the
// updates are treated as general (the paper uses (min,+) precisely so the
// competitors cannot fold updates in algebraically and must recompute A'B
// from scratch). Ours runs COMPUTEPATTERN + the Bloom-filtered masked
// recomputation (Algorithm 2).
//
// Scaling note: the general algorithm performs ~2 multiplications worth of
// nnz(C*)-proportional work (pattern + masked recompute), so it wins exactly
// when C* is a small fraction of C' — the paper's regime, where A' has
// accumulated many batches while each update touches one batch. The paper
// streams 10 batches; we stream 8 and report the per-batch mean. Stand-ins
// here are Erdős–Rényi: the ~2^12 scale-down turns R-MAT hubs into
// edge-biased degree explosions that would let a single batch touch most of
// C' (a pure artifact of compressing n harder than degree).
//
// Paper result: 2.39x-4.57x faster than CombBLAS; >= 14.58x than CTF,
// >= 6.9x than PETSc; the Bloom filter's benefit shrinks as the matrix
// densifies (larger batches).
#include "bench_common.hpp"
#include "core/general_spgemm.hpp"
#include "core/summa.hpp"

using namespace dsg;
using namespace dsg::bench;

namespace {

constexpr int kRanks = 4;
constexpr int kBatches = 8;
const std::size_t kBatchSizes[] = {64, 256, 1024};

struct Workload {
    const char* name;
    index_t n;
    std::size_t edges;  // directed, per world
};

const Workload kWorkloads[] = {
    {"er-13", index_t{1} << 13, 60'000},
    {"er-15", index_t{1} << 15, 240'000},
};

struct Times {
    double ours = 0, recompute = 0;
    double ar_fraction = 0;  // nnz(A^R) / nnz(A')
};

Times run_one(const Workload& wl, std::size_t batch_size) {
    Times t;
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = wl.n;
        auto mine = graph::erdos_renyi_edges(
            n, wl.edges / kRanks, 81 + static_cast<std::uint64_t>(comm.rank()));
        mine = graph::symmetrize(std::move(mine));
        auto B = core::build_dynamic_matrix<sparse::MinPlus<double>>(grid, n,
                                                                     n, mine);

        std::mt19937_64 rng(91 + static_cast<std::uint64_t>(comm.rank()));
        auto draw = [&] {
            std::vector<Triple<double>> batch;
            batch.reserve(batch_size);
            for (std::size_t x = 0; x < batch_size; ++x)
                batch.push_back(mine[rng() % mine.size()]);
            return batch;
        };
        auto A = core::build_dynamic_matrix<sparse::MinPlus<double>>(
            grid, n, n, draw());
        core::DistDynamicMatrix<double> C(grid, n, n);
        core::DistDynamicMatrix<std::uint64_t> F(grid, n, n);
        core::SummaOptions sopts;
        sopts.bloom_out = &F;
        core::summa<sparse::MinPlus<double>>(C, A, B, sopts);

        double ours = 0, rec = 0, arfrac = 0;
        for (int b = 0; b < kBatches; ++b) {
            auto batch = draw();
            std::size_t ar = 0, aprime = 0;
            ours += timed_ms(comm, [&] {
                auto Astar = core::build_update_matrix(grid, n, n, batch);
                auto Cstar = core::compute_pattern(Astar, B);
                auto U = core::build_update_matrix(grid, n, n, batch);
                core::merge_update(A, U);  // general update (not min-folded)
                auto st = core::general_dynamic_spgemm<sparse::MinPlus<double>>(
                    C, F, A, B, Cstar);
                ar = st.ar_nnz_global;
                aprime = st.aprime_nnz_global;
            });
            arfrac += aprime == 0 ? 0.0
                                  : static_cast<double>(ar) /
                                        static_cast<double>(aprime);
            // Competitors: full static recomputation of A'B.
            rec += timed_ms(comm, [&] {
                auto C2 =
                    core::summa_multiply<sparse::MinPlus<double>>(A, B);
            });
        }
        if (comm.rank() == 0) {
            t.ours = ours / kBatches;
            t.recompute = rec / kBatches;
            t.ar_fraction = arfrac / kBatches;
        }
    });
    return t;
}

}  // namespace

int main() {
    print_header("Figure 10: dynamic SpGEMM, general case ((min,+) semiring)",
                 "Fig. 10");
    std::printf("%-8s | %9s %12s | %9s | %s\n", "batch", "ours",
                "recompute", "speedup", "nnz(A^R)/nnz(A')");
    for (std::size_t bs : kBatchSizes) {
        Times mean;
        int count = 0;
        for (const auto& wl : kWorkloads) {
            const Times t = run_one(wl, bs);
            mean.ours += t.ours;
            mean.recompute += t.recompute;
            mean.ar_fraction += t.ar_fraction;
            ++count;
        }
        const double k = count;
        std::printf("%-8zu | %7.2fms %10.2fms | %8.2fx | %.2f\n", bs,
                    mean.ours / k, mean.recompute / k,
                    mean.recompute / mean.ours, mean.ar_fraction / k);
        JsonRecord rec("bench_fig10_spgemm_general");
        rec.field("batch", bs)
            .field("ours_ms", mean.ours / k)
            .field("recompute_ms", mean.recompute / k)
            .field("speedup", mean.recompute / mean.ours)
            .field("ar_fraction", mean.ar_fraction / k);
        json_record(rec);
    }
    std::printf(
        "\npaper: 2.39x-4.57x faster than CombBLAS (which must recompute A'B\n"
        "from scratch under (min,+)); the Bloom filter discards non-zeros of\n"
        "A' that cannot contribute (last column), and its advantage shrinks\n"
        "as the matrix gets denser.\n");
    return 0;
}
