#include "fixtures.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "infer/session.hh"
#include "nn/models.hh"
#include "nn/rnn_models.hh"
#include "nn/trainer.hh"
#include "quant/qconfig.hh"
#include "serial/deploy.hh"
#include "serve/executor.hh"
#include "util/logging.hh"

using namespace mixq;

namespace perfbench {

namespace {

constexpr size_t kClasses = 4;
constexpr size_t kVocab = 256, kEmbed = 64, kHidden = 256, kLayers = 2;
constexpr size_t kSeqLen = 16;

/** Fixed weight seeds of artifacts A and B. */
constexpr uint64_t kSeedA = 0xA11CE, kSeedB = 0xB0B;

Tensor
calibrationBatch(ModelKind k, uint64_t seed)
{
    Rng rng(seed);
    if (k == ModelKind::Cnn) {
        Tensor x = Tensor::randn({16, 3, 12, 12}, rng, 1.0);
        for (float& v : x.span())
            v = v < 0.0f ? -v : v;
        return x;
    }
    Tensor x({kSeqLen, 16});
    for (float& v : x.span())
        v = float(int(rng.uniform(0.0, double(kVocab) - 0.001)));
    return x;
}

void
writeOne(ModelKind k, uint64_t seed, const std::string& path)
{
    auto model = buildArch(k, seed);
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model->params());
    model->setActQuant(cfg.actBits, true);
    model->forward(calibrationBatch(k, seed + 1), true);
    qat.finalize();
    applyInferBackend(*model, InferBackend::Int, &qat);
    saveDeployArtifact(path, *model, qat);
}

std::vector<char>
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("perfbench: cannot read " + path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string& path, const std::vector<char>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
    if (!out)
        fatal("perfbench: cannot write " + path);
}

std::vector<float>
referenceOf(PlanExecutor& ex, const Tensor& item)
{
    std::memcpy(ex.inputData(), item.data(), item.size() * sizeof(float));
    ex.run(1);
    size_t n = shapeSize(ex.outputShape(1));
    return {ex.outputData(), ex.outputData() + n};
}

} // namespace

const char*
modelName(ModelKind k)
{
    return k == ModelKind::Cnn ? "cnn" : "lm";
}

std::unique_ptr<Module>
buildArch(ModelKind k, uint64_t seed)
{
    Rng rng(seed);
    if (k == ModelKind::Cnn)
        return makeMiniResNet(kClasses, rng, 8);
    return std::make_unique<LstmLm>(kVocab, kEmbed, kHidden, kLayers,
                                    rng);
}

BatchTraits
traitsOf(ModelKind k)
{
    BatchTraits t;
    if (k == ModelKind::Cnn) {
        t.itemShape = {1, 3, 12, 12};
        t.batchAxis = 0;
    } else {
        t.itemShape = {kSeqLen, 1};
        t.batchAxis = 1;
        t.timeMajorOut = true;
    }
    return t;
}

Tensor
makeItem(ModelKind k, Rng& rng)
{
    if (k == ModelKind::Cnn) {
        Tensor x = Tensor::randn({1, 3, 12, 12}, rng, 1.0);
        for (float& v : x.span())
            v = v < 0.0f ? -v : v;
        return x;
    }
    Tensor x({kSeqLen, 1});
    for (float& v : x.span())
        v = float(int(rng.uniform(0.0, double(kVocab) - 0.001)));
    return x;
}

Artifacts
writeArtifacts(ModelKind k, const std::string& dir)
{
    Artifacts art;
    std::string base = dir + "/" + modelName(k);
    art.a = base + "_a.mixq";
    art.b = base + "_b.mixq";
    art.damaged = base + "_damaged.mixq";
    writeOne(k, kSeedA, art.a);
    writeOne(k, kSeedB, art.b);
    // One flipped byte in the middle of the payload: the container
    // stays well-formed, so refusal has to come from the checksum.
    std::vector<char> bytes = readFile(art.a);
    bytes[bytes.size() / 2] ^= 0x5A;
    writeFile(art.damaged, bytes);
    return art;
}

std::unique_ptr<Module>
loadModel(ModelKind k, const std::string& artifact)
{
    auto model = buildArch(k, 12345);
    size_t adopted = 0;
    LoadResult r = tryLoadDeployArtifact(artifact, *model, adopted);
    if (!r.ok())
        fatal("perfbench: cannot load " + artifact + ": " + r.message);
    return model;
}

Pool
makePool(ModelKind k, const Artifacts& art, size_t n, uint64_t seed)
{
    Pool pool;
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i)
        pool.items.push_back(makeItem(k, rng));
    BatchTraits t = traitsOf(k);
    for (const std::string* path : {&art.a, &art.b}) {
        auto model = loadModel(k, *path);
        PlanExecutor ex(*model, t.itemShape, t.batchAxis, 1);
        auto& refs = path == &art.a ? pool.refA : pool.refB;
        for (const Tensor& item : pool.items)
            refs.push_back(referenceOf(ex, item));
    }
    for (size_t i = 0; i < n; ++i)
        if (pool.refA[i] == pool.refB[i])
            fatal("perfbench: artifacts A and B agree on a pool item; "
                  "a reload would be invisible");
    return pool;
}

} // namespace perfbench
