// Workload minplus-general: C = A·B over (min,+) with the Bloom filter
// matrix F, maintained by Algorithm 2. A is a weighted Erdős–Rényi graph
// under a sliding window: every step each rank MASKs its kBatch oldest
// entries and MERGEs kBatch new ones. Neither is expressible as (min,+)
// addition, so each step runs build_update_matrix, compute_pattern, the
// MERGE/MASK application and general_dynamic_spgemm — the only workload on
// the Bloom / masked-multiply / mask-broadcast path. Uniform degrees keep
// C* small against C (the paper's Fig. 10 regime).
//
// Load shape: one 2x2 grid, 4 rank threads, no thread pool.
// Check: C equals a static summa_multiply<MinPlus>(A, B) of the final A,
// entry for entry.
#include "core/dynamic_spgemm.hpp"
#include "core/general_spgemm.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "sparse/dcsr_ops.hpp"

namespace perfbench {

using namespace dsg;
using sparse::index_t;
using sparse::Triple;

namespace {

using SR = sparse::MinPlus<double>;

constexpr int kRows = 2, kCols = 2, kRanks = kRows * kCols;
constexpr index_t kN = index_t{1} << 14;    // 16384 vertices
constexpr std::size_t kBEntries = 8 * kN;   // B: ~8 entries per row
constexpr std::size_t kWindow = 4 * kN;     // live entries of A
constexpr std::size_t kBatch = 512;         // MERGEs (= MASKs) per rank per step
constexpr std::size_t kSteps = 96;          // steps per round

/// `count` Erdős–Rényi entries with distinct coordinates and no self loops.
std::vector<Triple<double>> unique_entries(std::uint64_t seed, std::size_t count) {
    std::vector<Triple<double>> out;
    for (std::uint64_t batch = 0; out.size() < count; ++batch) {
        auto more = graph::erdos_renyi_edges(kN, count - out.size() + count / 64 + 16,
                                             seed * 1000 + batch);
        out.insert(out.end(), more.begin(), more.end());
        out = graph::simplify(std::move(out));
    }
    out.resize(count);
    return out;
}

}  // namespace

void minplus_general(Runner& run) {
    const std::size_t per_rank_window = kWindow / kRanks;
    std::vector<Triple<double>> a_stream, b_entries;  // rank 0 writes in setup

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm, kRows, kCols);
        const int rank = comm.rank();
        while (run.begin_round(comm)) {
            run.begin_setup(comm);
            if (rank == 0) {
                const std::uint64_t seed = run.options().seed;
                a_stream = unique_entries(seed * 2 + 1, kWindow + kSteps * kBatch * kRanks);
                b_entries = graph::erdos_renyi_edges(kN, kBEntries, seed * 2 + 2);
            }
            comm.barrier();
            std::vector<Triple<double>> seq, b_mine;
            for (std::size_t k = static_cast<std::size_t>(rank); k < a_stream.size(); k += kRanks)
                seq.push_back(a_stream[k]);
            for (std::size_t k = static_cast<std::size_t>(rank); k < b_entries.size(); k += kRanks)
                b_mine.push_back(b_entries[k]);
            auto A = core::build_dynamic_matrix<SR>(
                grid, kN, kN,
                std::vector<Triple<double>>(
                    seq.begin(), seq.begin() + static_cast<std::ptrdiff_t>(per_rank_window)));
            const auto B = core::build_dynamic_matrix<SR>(grid, kN, kN, std::move(b_mine));
            // Static SUMMA seeding of C and F: the base of dyn_vs_static_bytes.
            core::DistDynamicMatrix<double> C(grid, kN, kN);
            core::DistDynamicMatrix<std::uint64_t> F(grid, kN, kN);
            const double static_bytes = bytes_moved(comm, [&] {
                core::SummaOptions sopts;
                sopts.bloom_out = &F;
                core::summa<SR>(C, A, B, sopts);
            });
            run.end_setup(comm);

            double build_ms = 0, pattern_ms = 0, apply_ms = 0, general_ms = 0;
            double cstar = 0, ar = 0, aprime = 0;
            run.begin_timed(comm);
            for (std::size_t s = 0; s < kSteps; ++s) {
                const auto t0 = Clock::now();
                const auto first_new = seq.begin() +
                                       static_cast<std::ptrdiff_t>(per_rank_window + s * kBatch);
                const auto first_old = seq.begin() + static_cast<std::ptrdiff_t>(s * kBatch);
                auto merges = core::build_update_matrix(
                    grid, kN, kN, std::vector<Triple<double>>(first_new, first_new + kBatch));
                auto masks = core::build_update_matrix(
                    grid, kN, kN, std::vector<Triple<double>>(first_old, first_old + kBatch));
                core::DistDcsr<double> astar(grid, kN, kN);
                astar.local() = sparse::dcsr_add(masks.local(), merges.local(),
                                                 [](double a, double) { return a; });
                const auto t1 = Clock::now();
                const core::DistDcsr<double> bstar(grid, kN, kN);
                const auto cstar_m = core::compute_pattern(A, astar, B, bstar);
                const auto t2 = Clock::now();
                core::merge_update(A, merges);
                core::mask_delete(A, masks);
                const auto t3 = Clock::now();
                const auto st = core::general_dynamic_spgemm<SR>(C, F, A, B, cstar_m);
                const auto t4 = Clock::now();
                comm.barrier();
                build_ms += ms_between(t0, t1);
                pattern_ms += ms_between(t1, t2);
                apply_ms += ms_between(t2, t3);
                general_ms += ms_between(t3, t4);
                cstar += static_cast<double>(st.cstar_nnz_global);
                ar += static_cast<double>(st.ar_nnz_global);
                aprime += static_cast<double>(st.aprime_nnz_global);
                if (rank == 0) run.round().step_ms.push_back(ms_between(t0, Clock::now()));
            }
            run.end_timed(comm);

            const double per = static_cast<double>(kRanks * kSteps);
            const double build = world_sum(comm, build_ms) / per;
            const double pattern = world_sum(comm, pattern_ms) / per;
            const double apply = world_sum(comm, apply_ms) / per;
            const double general = world_sum(comm, general_ms) / per;

            // Check (untimed): static recomputation of the final product.
            auto expect = core::summa_multiply<SR>(A, B);
            double bad = C.local().nnz() == expect.local().nnz() ? 0 : 1;
            C.local().for_each([&](index_t i, index_t j, double v) {
                const double* w = expect.local().find(i, j);
                if (w == nullptr || *w != v) ++bad;
            });
            bad = world_sum(comm, bad);
            const double c_nnz = static_cast<double>(C.global_nnz());

            if (rank == 0) {
                Round& rd = run.round();
                rd.ops = kSteps * kBatch * 2 * kRanks;
                rd.steps = kSteps;
                rd.attempted = rd.ops;
                if (bad != 0)
                    rd.error = std::to_string(static_cast<long long>(bad)) +
                               " entries of C differ from the static product";
                auto& L = rd.layer;
                L["core.build_update_ms"] = build;
                L["core.compute_pattern_ms"] = pattern;
                L["core.apply_ms"] = apply;
                L["core.general_spgemm_ms"] = general;
                L["core.cstar_nnz_per_step"] = cstar / kSteps;
                L["core.ar_nnz_per_step"] = ar / kSteps;
                L["core.bloom_keep_ratio"] = aprime > 0 ? ar / aprime : 0.0;
                L["summa.setup_comm_bytes"] = static_bytes;
                L["core.dyn_vs_static_bytes"] =
                    static_cast<double>(rd.comm.total_bytes()) / kSteps / static_bytes;
                L["graph.c_nnz"] = c_nnz;
                record_phase_layers(run, per);
                auto& Cn = rd.counts;
                Cn["summa_setup_bytes"] = static_bytes;
                Cn["c_nnz"] = c_nnz;
                Cn["cstar_nnz"] = cstar;
                Cn["ar_nnz"] = ar;
            }
            run.end_round(comm);
        }
    });
}

}  // namespace perfbench
