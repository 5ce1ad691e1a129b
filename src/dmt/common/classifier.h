// Common interface implemented by every online classifier in this library
// (DMT, the Hoeffding-tree family, FIMT-DD, and the ensembles), consumed by
// the prequential evaluation harness.
//
// The scoring core is batch-first and buffer-reusing (see DESIGN.md,
// "Scoring core"): models implement PredictProbaInto, which writes the
// class distribution into a caller-owned span, and optionally override
// PredictBatch to score a whole batch into a reusable ProbaMatrix. The
// value-returning Predict / PredictProba calls are thin non-virtual
// wrappers kept for convenience and API compatibility; steady-state
// scoring through the Into/Batch path performs zero heap allocations.
//
// Buffer-ownership rules:
//  * `out` spans/matrices are owned by the caller; PredictProbaInto must
//    overwrite all num_classes() entries (never read them).
//  * PredictProbaInto is const and touches no per-classifier mutable
//    scratch in the stand-alone models, so it is safe to call concurrently
//    on one instance. Ensembles accumulate member distributions through a
//    single mutable scratch row, so concurrent scoring of one *ensemble*
//    must go through PredictBatch (which gives each worker its own row)
//    or use distinct instances. The Predict wrapper also uses per-instance
//    scratch and is therefore not concurrency-safe on a shared instance.
#ifndef DMT_COMMON_CLASSIFIER_H_
#define DMT_COMMON_CLASSIFIER_H_

#include <cstddef>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmt/common/check.h"
#include "dmt/common/math.h"
#include "dmt/common/types.h"

namespace dmt::obs {
class TelemetryRegistry;
}  // namespace dmt::obs

namespace dmt {

class Classifier {
 public:
  virtual ~Classifier() = default;

  // Binds this model's event counters to `registry` (see obs/telemetry.h).
  // Models cache the raw counter pointers once here, so the training hot
  // path pays only a null-checked increment; the default is a no-op and an
  // unattached model behaves bit-identically to one that was never
  // instrumented. The registry must outlive the classifier (or a later
  // AttachTelemetry call); each registry is owned by exactly one
  // prequential run, so no synchronization is involved.
  virtual void AttachTelemetry(obs::TelemetryRegistry* registry) {
    (void)registry;
  }

  // Incrementally trains on a batch of observations. Streams in this library
  // are batch-incremental (the paper processes 0.1% of the data per step);
  // instance-incremental training is a batch of size one.
  virtual void PartialFit(const Batch& batch) = 0;

  // Number of classes of the scored distribution (the required size of
  // every `out` buffer below).
  virtual int num_classes() const = 0;

  // Width of every row this model trains on and scores (the length of
  // every `x` below). A model decoded from an archive reports the width it
  // was built with, so a caller can refuse one that does not fit its rows.
  virtual int num_features() const = 0;

  // Writes the class-probability estimates for one observation into `out`
  // (exactly num_classes() entries, sums to ~1). This is the scoring
  // primitive every model implements natively, with no per-call heap
  // allocation.
  virtual void PredictProbaInto(std::span<const double> x,
                                std::span<double> out) const = 0;

  // Scores every row of `batch` into `out` (reshaped to
  // batch.size() x num_classes()). The default loops PredictProbaInto;
  // ensembles may override to fan the rows over a shared thread pool.
  virtual void PredictBatch(const Batch& batch, ProbaMatrix* out) const {
    out->Reshape(batch.size(), static_cast<std::size_t>(num_classes()));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      PredictProbaInto(batch.row(i), out->row(i));
    }
  }

  // Predicts the class index for a single observation: the argmax of
  // PredictProbaInto, computed through a reusable per-instance scratch row
  // (zero allocations in steady state, but not concurrency-safe on a
  // shared instance).
  int Predict(std::span<const double> x) const {
    const std::size_t c = static_cast<std::size_t>(num_classes());
    if (predict_scratch_.size() != c) predict_scratch_.resize(c);
    PredictProbaInto(x, predict_scratch_);
    return ArgMax(predict_scratch_);
  }

  // Class-probability estimates (size num_classes, sums to ~1). Legacy
  // value-returning wrapper: allocates the result vector per call; hot
  // paths should use PredictProbaInto / PredictBatch instead.
  std::vector<double> PredictProba(std::span<const double> x) const {
    std::vector<double> proba(static_cast<std::size_t>(num_classes()));
    PredictProbaInto(x, proba);
    return proba;
  }

  // Complexity measures with the paper's counting rules (Sec. VI-D2):
  // every inner node is one split; majority-class leaves add nothing; model
  // leaves add 1 (binary) or c (multiclass) splits. Parameters: 1 per inner
  // node, leaves add 1 (majority) or m (linear / per-class NB) parameters,
  // counted per class for multinomial models.
  virtual std::size_t NumSplits() const = 0;
  virtual std::size_t NumParameters() const = 0;

  virtual std::string name() const = 0;

  // Writes a versioned binary snapshot of the full mutable model state
  // (see serial/archive.h): restoring it and continuing training is
  // bit-identical to never having snapshotted. Every library learner
  // overrides this; the default rejects types without a serial format.
  // Decode errors are serial::SerialError; this logic error is different
  // in kind (the *type* cannot snapshot, no input is involved).
  virtual void Save(std::ostream& out) const {
    (void)out;
    throw std::logic_error(name() + " does not support Save");
  }

 private:
  mutable std::vector<double> predict_scratch_;  // Predict() argmax buffer
};

}  // namespace dmt

#endif  // DMT_COMMON_CLASSIFIER_H_
