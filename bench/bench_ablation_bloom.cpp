// Ablation: the Bloom column filter of the general algorithm (Section V-B).
// With the filter, A^R keeps only columns whose bit appears in the row
// filter R; without it, whole rows travel. The paper argues the filter pays
// off while update matrices are hypersparse and fades as batches densify.
#include "bench_common.hpp"
#include "core/general_spgemm.hpp"
#include "core/summa.hpp"

using namespace dsg;
using namespace dsg::bench;

namespace {

constexpr int kRanks = 4;
constexpr int kScale = 12;

struct Row {
    double with_ms, without_ms;
    double with_ar, without_ar;  // nnz(A^R)
};

Row run_one(std::size_t batch_size) {
    Row row{};
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = index_t{1} << kScale;
        auto mine = graph::rmat_edges(kScale, 16'384,
                                      3 + static_cast<std::uint64_t>(comm.rank()));
        for (auto& e : mine) e.value = 1.0;
        auto B = core::build_dynamic_matrix<sparse::MinPlus<double>>(grid, n,
                                                                     n, mine);
        std::mt19937_64 rng(9 + static_cast<std::uint64_t>(comm.rank()));
        auto draw = [&] {
            std::vector<Triple<double>> batch;
            for (std::size_t x = 0; x < batch_size; ++x)
                batch.push_back(mine[rng() % mine.size()]);
            return batch;
        };

        for (bool use_bloom : {true, false}) {
            // A' must be an *accumulated* matrix (rows with real degree);
            // the column filter discards the columns of a selected row whose
            // inner index never contributed to a masked cell, so a nearly
            // empty A' would leave it nothing to do.
            auto A = core::build_dynamic_matrix<sparse::MinPlus<double>>(
                grid, n, n, graph::erdos_renyi_edges(
                                n, 8'192,
                                31 + static_cast<std::uint64_t>(comm.rank())));
            core::DistDynamicMatrix<double> C(grid, n, n);
            core::DistDynamicMatrix<std::uint64_t> F(grid, n, n);
            core::SummaOptions sopts;
            sopts.bloom_out = &F;
            core::summa<sparse::MinPlus<double>>(C, A, B, sopts);

            auto batch = draw();
            std::size_t ar = 0;
            const double ms = timed_ms(comm, [&] {
                auto Astar = core::build_update_matrix(grid, n, n, batch);
                auto Cstar = core::compute_pattern(Astar, B);
                auto U = core::build_update_matrix(grid, n, n, batch);
                core::merge_update(A, U);
                core::GeneralSpgemmOptions gopts;
                gopts.use_bloom_filter = use_bloom;
                auto st = core::general_dynamic_spgemm<sparse::MinPlus<double>>(
                    C, F, A, B, Cstar, gopts);
                ar = st.ar_nnz_global;
            });
            if (comm.rank() == 0) {
                if (use_bloom) {
                    row.with_ms = ms;
                    row.with_ar = static_cast<double>(ar);
                } else {
                    row.without_ms = ms;
                    row.without_ar = static_cast<double>(ar);
                }
            }
        }
    });
    return row;
}

}  // namespace

int main() {
    print_header("Ablation: Bloom column filter in the general algorithm",
                 "Section V-B claim");
    std::printf("%-10s | %10s %10s | %12s %12s | %s\n", "batch", "with",
                "without", "nnz(A^R) w/", "nnz(A^R) w/o", "volume saved");
    for (std::size_t bs : {32u, 128u, 512u, 2'048u}) {
        const Row r = run_one(bs);
        std::printf("%-10zu | %8.2fms %8.2fms | %12.0f %12.0f | %5.1f%%\n", bs,
                    r.with_ms, r.without_ms, r.with_ar, r.without_ar,
                    100.0 * (1.0 - (r.without_ar == 0
                                        ? 1.0
                                        : r.with_ar / r.without_ar)));
    }
    std::printf(
        "\nBoth variants produce identical results (tested); the filter only\n"
        "reduces how much of A' is packed, shipped and multiplied. As batches\n"
        "grow, more Bloom bits are set per row and the reduction fades — the\n"
        "paper's argument for why large batches favour plain transfers.\n");
    return 0;
}
