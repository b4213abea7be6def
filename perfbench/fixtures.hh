/**
 * @file
 * The two served models of the benchmark, their deploy artifacts and
 * the seeded request pool with its bit-exact references.
 *
 * Weights come from fixed seeds, never from the workload seed: every
 * run serves the same two artifacts (A and B, plus a damaged copy of
 * A that a reload must refuse). The workload seed only draws the
 * request pool and the arrival schedule.
 */

#ifndef PERFBENCH_FIXTURES_HH
#define PERFBENCH_FIXTURES_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/module.hh"
#include "serve/server.hh"
#include "util/rng.hh"

namespace perfbench {

enum class ModelKind
{
    Cnn, //!< MiniResNet, base 8, 3x12x12 inputs, 4 classes
    Lm,  //!< LstmLm, vocab 256, embed 64, hidden 256, 2 layers, T 16
};

/** Name used in metric keys ("cnn" / "lm"). */
const char* modelName(ModelKind k);

/** Fresh architecture with arbitrary (seeded) float init. */
std::unique_ptr<mixq::Module> buildArch(ModelKind k, uint64_t seed);

/** How request items map onto the model's tensors. */
mixq::BatchTraits traitsOf(ModelKind k);

/** One single-item request drawn from @p rng. */
mixq::Tensor makeItem(ModelKind k, mixq::Rng& rng);

/** On-disk artifacts of one model: A, B and a damaged copy of A. */
struct Artifacts
{
    std::string a, b, damaged;
};

/**
 * Calibrate and quantize the model at two fixed weight seeds and
 * write both deploy artifacts, plus a copy of A with one payload byte
 * flipped, into @p dir.
 */
Artifacts writeArtifacts(ModelKind k, const std::string& dir);

/** Build the architecture and adopt @p artifact; aborts on failure. */
std::unique_ptr<mixq::Module> loadModel(ModelKind k,
                                        const std::string& artifact);

/** A seeded request pool with per-item reference outputs. */
struct Pool
{
    std::vector<mixq::Tensor> items;
    std::vector<std::vector<float>> refA; //!< served by artifact A
    std::vector<std::vector<float>> refB; //!< served by artifact B
};

/**
 * Draw @p n items from @p seed and compute each item's reference with
 * a single-item PlanExecutor run on models loaded from A and B.
 */
Pool makePool(ModelKind k, const Artifacts& art, size_t n,
              uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_FIXTURES_HH
