// DeepTune's candidate scoring (§3.2, Eq. 2-3).
//
// ds(x, X) measures how far a candidate sits from everything already
// evaluated (novelty); sf(x, X) blends that with the model's predicted
// uncertainty. Ranking additionally merges the predicted objective, per the
// paper's description of the scoring function ("merging the model
// prediction, the predicted uncertainty, and the dissimilarity").
#ifndef WAYFINDER_SRC_CORE_SCORING_H_
#define WAYFINDER_SRC_CORE_SCORING_H_

#include <vector>

#include "src/core/dtm.h"

namespace wayfinder {

// Eq. 2 with ||x - X||^2 taken to the nearest known sample: 0 for a point
// already in X, approaching 1 far away. Distances are normalized by the
// feature dimension so the score is comparable across spaces.
double Dissimilarity(const std::vector<double>& x,
                     const std::vector<std::vector<double>>& known);

// Same score over the batched layout: `x` is one row of the candidate
// matrix (`dim` wide) and the known samples are the first `known_rows` rows
// of k-major history panels (EncodedHistoryRing::panels()). The nearest
// distance comes from `ops.panel_nearest`, which is bitwise the min of
// SqDist over those rows on every backend.
double Dissimilarity(const double* x, size_t dim, const double* known_panels,
                     size_t known_rows, const KernelOps& ops);

struct ScoreOptions {
  double alpha = 0.5;           // Eq. 3 exploration blend.
  double predict_weight = 1.0;  // Weight of the predicted objective ŷ.
  double crash_threshold = 0.5; // Candidates above this k̂ are deprioritized.
  double crash_penalty = 4.0;   // Score penalty applied past the threshold.
};

// Final ranking score for one candidate. `sigma_norm` must be the
// pool-normalized uncertainty in [0, 1].
double RankScore(const DtmPrediction& prediction, double dissimilarity, double sigma_norm,
                 const ScoreOptions& options);

// Normalizes sigmas of a candidate pool into [0, 1] (max-scaled).
std::vector<double> NormalizeSigmas(const std::vector<DtmPrediction>& predictions);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_SCORING_H_
