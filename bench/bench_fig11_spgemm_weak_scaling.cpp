// Figure 11: weak scalability of dynamic SpGEMM (algebraic case), fixed
// update non-zeros per rank, p in {1, 4, 16} (the paper's 1x4 / 4x4 / 16x4
// node configurations). Metric: time per update non-zero; plus the per-rank
// communication volume (the quantity that must stay bounded for the paper's
// scaling claim — see the note in bench_fig6 about the single-core host).
#include "bench_common.hpp"
#include "core/dynamic_spgemm.hpp"
#include "core/summa.hpp"

using namespace dsg;
using namespace dsg::bench;

namespace {

constexpr std::size_t kPerRank = 2048;  // update nnz per rank (scaled 81920)
constexpr int kScale = 13;

struct Row {
    double us_per_nnz;
    double bytes_per_rank;
};

Row run_p(int p) {
    Row row{};
    par::run_world(p, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = index_t{1} << kScale;
        auto mine = graph::rmat_edges(kScale, 16'384,
                                      7 + static_cast<std::uint64_t>(comm.rank()));
        for (auto& e : mine) e.value = 1.0;
        sparse::IndexPermutation perm(n, 13);
        perm.apply(mine);
        auto B = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, n, n, mine);
        core::DistDynamicMatrix<double> A(grid, n, n);
        core::DistDynamicMatrix<double> C(grid, n, n);

        std::mt19937_64 rng(3 + static_cast<std::uint64_t>(comm.rank()));
        std::vector<Triple<double>> batch;
        batch.reserve(kPerRank);
        for (std::size_t x = 0; x < kPerRank; ++x)
            batch.push_back(mine[rng() % mine.size()]);

        reset_stats(comm);
        const double ms = timed_ms(comm, [&] {
            auto Astar = core::build_update_matrix(grid, n, n, batch);
            core::dynamic_spgemm_algebraic<sparse::PlusTimes<double>>(C, Astar,
                                                                      B);
            core::add_update<sparse::PlusTimes<double>>(A, Astar);
        });
        comm.barrier();
        if (comm.rank() == 0) {
            const auto s = comm.stats().snapshot();
            row.us_per_nnz =
                ms * 1e3 /
                static_cast<double>(kPerRank * static_cast<std::size_t>(p));
            row.bytes_per_rank =
                static_cast<double>(s.total_bytes()) / static_cast<double>(p);
        }
    });
    return row;
}

}  // namespace

int main() {
    print_header("Figure 11: weak scaling of dynamic SpGEMM (algebraic case)",
                 "Fig. 11");
    std::printf("%-8s | %16s | %18s\n", "ranks", "time per nnz", "comm bytes/rank");
    for (int p : {1, 4, 16}) {
        const Row r = run_p(p);
        std::printf("%-8d | %13.1f us | %15.0f B\n", p, r.us_per_nnz,
                    r.bytes_per_rank);
        JsonRecord rec("bench_fig11_spgemm_weak_scaling");
        rec.field("ranks", p)
            .field("us_per_nnz", r.us_per_nnz)
            .field("comm_bytes_per_rank", r.bytes_per_rank);
        json_record(rec);
    }
    std::printf(
        "\npaper: time per non-zero decreases with more nodes (no bottleneck\n"
        "up to 16 nodes). On this single-core host wall time per non-zero\n"
        "cannot drop with p; the volume column instead tracks the algorithm's\n"
        "bandwidth bound O(nnz_total/sqrt(p)) per rank — with per-rank updates\n"
        "fixed, nnz_total grows with p, so per-rank volume grows ~sqrt(p)\n"
        "(compare 4 -> 16 ranks: ~2x), exactly the analysis of Section V-A.\n");
    return 0;
}
