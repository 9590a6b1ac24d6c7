// Figure 12: breakdown of dynamic SpGEMM (algebraic case) running time into
// the paper's phases: initial send/receive, broadcasts, local
// multiplication, scatter (packing of partial results) and the sparse
// reduce-scatter, per rank count.
//
// Paper result: local multiplication, reduce-scatter and send/receive scale
// well; broadcasting takes a growing fraction at higher node counts.
#include "bench_common.hpp"
#include "core/dynamic_spgemm.hpp"
#include "core/summa.hpp"

using namespace dsg;
using namespace dsg::bench;

namespace {

constexpr std::size_t kPerRank = 2048;
constexpr int kScale = 13;

const par::Phase kPhases[] = {
    par::Phase::SendRecv, par::Phase::Bcast, par::Phase::LocalMult,
    par::Phase::Scatter, par::Phase::ReduceScatter,
};

std::vector<double> run_p(int p) {
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
        core::DistDynamicMatrix<double> C(grid, n, n);
        std::mt19937_64 rng(3 + static_cast<std::uint64_t>(comm.rank()));
        std::vector<Triple<double>> batch;
        for (std::size_t x = 0; x < kPerRank; ++x)
            batch.push_back(mine[rng() % mine.size()]);
        auto Astar = core::build_update_matrix(grid, n, n, batch);
        comm.barrier();
        if (comm.rank() == 0) {
            par::Profiler::reset();
            par::Profiler::set_enabled(true);
        }
        comm.barrier();
        core::dynamic_spgemm_algebraic<sparse::PlusTimes<double>>(C, Astar, B);
        comm.barrier();
        if (comm.rank() == 0) par::Profiler::set_enabled(false);
    });
    std::vector<double> us_per_nnz;
    for (auto ph : kPhases)
        us_per_nnz.push_back(par::Profiler::total_seconds(ph) * 1e6 /
                             static_cast<double>(kPerRank));
    return us_per_nnz;
}

}  // namespace

int main() {
    print_header(
        "Figure 12: breakdown of dynamic SpGEMM (algebraic) running time",
        "Fig. 12");
    std::printf("(us per update non-zero, summed across rank-threads)\n");
    std::printf("%-8s |", "ranks");
    for (auto ph : kPhases)
        std::printf(" %15s", std::string(par::phase_name(ph)).c_str());
    std::printf("\n");
    for (int p : {1, 4, 16}) {
        auto row = run_p(p);
        std::printf("%-8d |", p);
        for (double v : row) std::printf(" %12.2f us", v);
        std::printf("\n");
        JsonRecord rec("bench_fig12_spgemm_breakdown");
        rec.field("ranks", p);
        for (std::size_t k = 0; k < row.size(); ++k)
            rec.field(std::string(par::phase_name(kPhases[k])).c_str(),
                      row[k]);
        json_record(rec);
    }
    std::printf(
        "\npaper: local multiplication / reduce-scatter / send-recv scale with\n"
        "node count; the broadcast share grows at larger p (as expected for\n"
        "sqrt(p)-round broadcasts).\n");
    return 0;
}
