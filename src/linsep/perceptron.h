#ifndef FEATSEP_LINSEP_PERCEPTRON_H_
#define FEATSEP_LINSEP_PERCEPTRON_H_

#include <cstddef>
#include <utility>

#include "linsep/linear_classifier.h"
#include "linsep/separability_lp.h"

namespace featsep {

/// Pocket perceptron: runs the classic mistake-driven perceptron on the
/// (augmented) ±1 vectors, keeping the best-so-far ("pocket") weight vector
/// by training error. Returns the pocket classifier and its error count.
///
/// Used as (a) a fast incumbent for the exact min-error branch-and-bound
/// (approximate separability, paper Section 7 / [17]) and (b) a cheap
/// separator heuristic — it finds a perfect separator whenever the data is
/// separable and the update budget (20,000 mistake-driven updates) exceeds
/// the perceptron mistake bound. Deterministic: the example order comes
/// from a fixed-seed PRNG.
std::pair<LinearClassifier, std::size_t> PocketPerceptron(
    const TrainingCollection& examples);

}  // namespace featsep

#endif  // FEATSEP_LINSEP_PERCEPTRON_H_
