/**
 * @file
 * Multilayer perceptron regressor replicating the behaviour of WEKA v3's
 * MultilayerPerceptron with default settings, which is the neural network
 * the paper uses for MLP^T (Sections 3.2.2 and 6).
 *
 * WEKA defaults replicated here: a single hidden layer with
 * (#attributes + #outputs) / 2 sigmoid units, a linear output unit for
 * numeric targets, stochastic backpropagation with learning rate 0.3 and
 * momentum 0.2 for 500 epochs, and normalization of both attributes and
 * the numeric target to [-1, 1].
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.h"
#include "ml/activation.h"
#include "ml/normalizer.h"

namespace dtrank::util
{
class Rng;
}

namespace dtrank::ml
{

/** Hyperparameters of the Mlp. Defaults replicate WEKA v3. */
struct MlpConfig
{
    /**
     * Hidden layer sizes. Empty means WEKA's automatic single layer of
     * (#attributes + #outputs) / 2 units (the 'a' wildcard).
     */
    std::vector<std::size_t> hiddenLayers;
    /** Backpropagation step size. */
    double learningRate = 0.3;
    /** Momentum applied to previous weight updates. */
    double momentum = 0.2;
    /** Number of passes over the training data. */
    std::size_t epochs = 500;
    /** Hidden-unit nonlinearity. */
    Activation hiddenActivation = Activation::Sigmoid;
    /** Output-unit activation (linear for regression). */
    Activation outputActivation = Activation::Linear;
    /** Seed for weight initialization and shuffling. */
    std::uint64_t seed = 1;
    /** Normalize attributes and target to [-1, 1] (WEKA default). */
    bool normalize = true;
    /** Initial weights drawn uniformly from [-range, range]. */
    double initWeightRange = 0.5;
    /** Decay the learning rate as lr / (1 + decay * epoch). */
    double learningRateDecay = 0.0;
    /** Visit training rows in random order each epoch. */
    bool shuffleEachEpoch = true;
    /**
     * Training batch size. 1 (the default) is WEKA's per-sample
     * stochastic backprop — the exact per-sample code path, bit-
     * unchanged. Any other value selects the GEMM-backed minibatch
     * engine: 0 trains full-batch, k > 1 trains on minibatches of k
     * rows (the last batch of an epoch may be smaller). One momentum
     * update per layer per batch is applied with the batch-mean
     * gradient, and the epoch's forward/backward passes run as blocked
     * GEMM calls through the simd kernel table. Batched training is a
     * different (deterministic) optimization trajectory than
     * per-sample SGD, but like every path in this repo it is
     * bit-identical across dispatch tiers and thread counts.
     */
    std::size_t batchSize = 1;
    /**
     * Stochastic backprop with a fixed step can diverge on tiny
     * training sets (the transposition setting trains on as few as 3
     * machines). When the epoch loss turns non-finite or grows beyond
     * divergenceFactor x the first epoch's loss, training restarts
     * with the learning rate halved, up to maxRestarts times.
     */
    std::size_t maxRestarts = 6;
    /** Loss growth factor that counts as divergence. */
    double divergenceFactor = 100.0;
};

/**
 * Reusable training workspace: every buffer the epoch x sample loop of
 * Mlp::fit touches, laid out flat and contiguous and sized once per
 * network architecture.
 *
 * The experiment protocols train thousands of small networks per run;
 * before the workspace existed every sample of every epoch
 * heap-allocated its input row, per-layer output vectors and delta
 * vectors. A workspace is reused across fits (resize() is a no-op when
 * the architecture is unchanged), so steady-state training performs
 * zero heap allocation inside the epoch loop. Mlp::fit uses one
 * workspace per thread by default; pass an explicit workspace to
 * control reuse and lifetime.
 *
 * Layout (the padded layout of simd.h): a layer of out > 1 units
 * stores its weights transposed, [input][unit], in rows of
 * ld = simd::mlpPadded(out) doubles; the single-unit output layer
 * stores one contiguous column of `in` weights. Every unit-wide block
 * (biases, activations, deltas, momentum state) is padded to whole
 * 8-double rows the same way, and every block starts on a 64-byte
 * cache line, so a 14-unit row is exactly two zmm registers and never
 * splits a line. Every training run resets the pad lanes of the
 * weights, biases and momentum state to +0.0, and no real lane ever
 * reads a pad lane.
 *
 * Not thread safe: use one workspace per thread.
 */
class MlpWorkspace
{
  public:
    MlpWorkspace() = default;

    /**
     * Sizes the buffers for a network with the given layer widths
     * (input, hidden..., output). No-op when already sized for them.
     */
    void resize(const std::vector<std::size_t> &layer_sizes);

    /** Grows the per-sample bookkeeping for `n` training rows. */
    void ensureRows(std::size_t n);

    /** Grows the loss record for `epochs` epochs. */
    void ensureEpochs(std::size_t epochs);

    /**
     * Sizes the minibatch buffers (batch activations, batch deltas,
     * gradient accumulators) for `rows` samples per batch. Requires
     * resize() to have fixed the architecture first. No-op when
     * already at least that large.
     */
    void ensureBatch(std::size_t rows);

    /** Layer widths the buffers are currently sized for. */
    const std::vector<std::size_t> &layerSizes() const { return sizes_; }

  private:
    friend class Mlp;

    /** One 64-byte cache line of doubles. */
    struct alignas(64) CacheLine
    {
        double lane[8];
    };

    /**
     * Allocator that starts every buffer on a cache line: storage
     * comes in whole CacheLines from std::allocator, which honours
     * their over-alignment.
     */
    template <class T>
    struct CacheLineAllocator
    {
        using value_type = T;

        CacheLineAllocator() = default;
        template <class U>
        CacheLineAllocator(const CacheLineAllocator<U> &) noexcept
        {
        }
        static std::size_t lines(std::size_t n)
        {
            return (n * sizeof(T) + sizeof(CacheLine) - 1) /
                   sizeof(CacheLine);
        }
        T *allocate(std::size_t n)
        {
            return reinterpret_cast<T *>(
                std::allocator<CacheLine>().allocate(lines(n)));
        }
        void deallocate(T *p, std::size_t n) noexcept
        {
            std::allocator<CacheLine>().deallocate(
                reinterpret_cast<CacheLine *>(p), lines(n));
        }
        friend bool operator==(const CacheLineAllocator &,
                               const CacheLineAllocator &)
        {
            return true;
        }
    };
    using Buffer = std::vector<double, CacheLineAllocator<double>>;

    std::vector<std::size_t> sizes_; ///< input, hidden..., output
    std::vector<std::size_t> ld_;    ///< per-layer weight row stride
    std::vector<std::size_t> wOff_;  ///< per-layer offset into weights_
    std::vector<std::size_t> uOff_;  ///< per-layer offset into unit-wide
                                     ///< buffers (bias_, acts_, ...)
    Buffer weights_;                 ///< all layers, [input][unit]
    Buffer prevDw_;                  ///< momentum state for weights_
    Buffer bias_;                    ///< all layers' biases
    Buffer prevDb_;                  ///< momentum state for bias_
    Buffer acts_;                    ///< per-layer outputs of one sample
    Buffer deltas_;                  ///< per-layer dE/d(net) of one sample
    std::vector<double> loss_;       ///< per-epoch MSE of the current run
    std::vector<std::size_t> visit_; ///< row visit order of one epoch

    // Minibatch-engine buffers (batchSize != 1). Both engines share the
    // weight layout above; the batch blocks hold one padded unit-wide
    // row per sample.
    std::size_t batchRows_ = 0;      ///< rows the batch buffers hold
    Buffer gradW_;                   ///< batch weight-gradient sums,
                                     ///< laid out like weights_
    Buffer gradB_;                   ///< batch bias-gradient sums
    Buffer actsB_;                   ///< per-layer outputs, batch-wide
                                     ///< (layer i at uOff_[i] * rows)
    Buffer deltasB_;                 ///< per-layer deltas, batch-wide
};

/**
 * Feed-forward neural network trained with stochastic backpropagation,
 * single numeric output.
 */
class Mlp
{
  public:
    explicit Mlp(MlpConfig config = MlpConfig{});

    /**
     * Trains the network using a per-thread workspace (allocation-free
     * in the epoch loop once the thread's workspace is warm).
     *
     * @param x One row per training instance.
     * @param y Numeric target per instance; y.size() == x.rows() >= 1.
     */
    void fit(const linalg::Matrix &x, const std::vector<double> &y);

    /**
     * Trains the network with an explicit workspace. Bit-identical to
     * the per-thread-workspace overload; useful when the caller wants
     * to control buffer reuse across many fits.
     */
    void fit(const linalg::Matrix &x, const std::vector<double> &y,
             MlpWorkspace &workspace);

    /** Predicts the target for one raw (unnormalized) feature vector. */
    double predict(const std::vector<double> &features) const;

    /**
     * Predicts for each row of a raw feature matrix in one batched
     * forward pass (one layer-wide sweep per layer); bit-identical to
     * calling the scalar predict() on every row.
     */
    std::vector<double> predict(const linalg::Matrix &x) const;

    /** True once fit() has completed. */
    bool trained() const { return trained_; }

    /** Mean squared error on the training data after the final epoch. */
    double trainingMse() const;

    /** Per-epoch training MSE history (size == epochs). */
    const std::vector<double> &lossHistory() const { return loss_history_; }

    const MlpConfig &config() const { return config_; }

    /** Number of input features the network was trained on. */
    std::size_t inputSize() const { return input_size_; }

    /** Actual hidden layer sizes after resolving WEKA's 'a' default. */
    const std::vector<std::size_t> &hiddenSizes() const { return hidden_; }

  private:
    /** One trained fully connected layer (inference state only). */
    struct Layer
    {
        linalg::Matrix weights;   // out x in
        std::vector<double> bias; // out
        Activation activation = Activation::Sigmoid;
    };

    /** Forward pass on normalized features; fills per-layer outputs. */
    std::vector<std::vector<double>>
    forward(const std::vector<double> &input) const;

    /** Forward pass returning only the scalar (normalized) output. */
    double forwardScalar(const std::vector<double> &input) const;

    /**
     * Seeds the workspace for one training run: weights and biases
     * drawn from `rng`, pad lanes and momentum state zeroed, and the
     * identity visit order.
     */
    void initWeights(util::Rng &rng, MlpWorkspace &ws) const;

    /**
     * One full training run at the given base learning rate, entirely
     * inside the workspace buffers (no heap allocation in the epoch
     * loop). The accepted run's weights are copied into layers_ by
     * fit().
     * @return false when the loss diverged (caller retries).
     */
    bool trainOnce(const linalg::Matrix &xn, const std::vector<double> &yn,
                   double lr_base, std::uint64_t seed,
                   MlpWorkspace &ws) const;

    /**
     * The GEMM-backed minibatch engine (config_.batchSize != 1): the
     * per-epoch forward and backward passes over each batch run as
     * whole-batch kernel-table calls (mlpBatchNets for forward nets,
     * the per-sample mlpLayerDeltas recurrence, and mlpGradAccum plus
     * an axpy sweep for the gradient sums) with one batch-mean
     * momentum update per layer per batch. Weights, gradients and
     * momentum state share the per-sample engine's padded
     * [input][unit] layout, so the momentum step is elementwise. Same
     * divergence/restart protocol as trainOnce.
     */
    bool trainOnceBatched(const linalg::Matrix &xn,
                          const std::vector<double> &yn, double lr_base,
                          std::uint64_t seed, MlpWorkspace &ws) const;

    /** Activation of layer `li` out of `n_layers`. */
    Activation
    layerActivation(std::size_t li, std::size_t n_layers) const
    {
        return li + 1 == n_layers ? config_.outputActivation
                                  : config_.hiddenActivation;
    }

    MlpConfig config_;
    std::vector<Layer> layers_;
    std::vector<std::size_t> hidden_;
    RangeNormalizer featureNorm_;
    RangeNormalizer targetNorm_;
    std::vector<double> loss_history_;
    std::size_t input_size_ = 0;
    bool trained_ = false;
};

} // namespace dtrank::ml

