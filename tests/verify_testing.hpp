// Request builders and the reference count shared by the verification test
// suites. Every bit-identity property compares against one reference: the
// serial functional tier (TierPin::kFunctional on one thread), itself
// checked against the count of listViolations diagnostics.
#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/stream_verify.hpp"
#include "lcl/verifier.hpp"
#include "lcl/verify_api.hpp"

namespace lclgrid::verify_testing {

/// An in-core request over one labelling or a back-to-back batch.
template <typename Torus, typename Lcl>
VerifyRequest inCoreRequest(const Torus& torus, const Lcl& lcl,
                            std::span<const int> labels, bool countViolations,
                            const engine::EngineOptions& engine = {
                                .threads = 1},
                            TierPin pin = TierPin::kAuto) {
  VerifyRequest request;
  if constexpr (std::is_same_v<Lcl, GridLcl>) {
    request.problem = &lcl;
    request.torus = &torus;
  } else {
    request.problemD = &lcl;
    request.torusD = &torus;
  }
  request.labels = labels;
  request.options.countViolations = countViolations;
  request.options.engine = engine;
  request.options.tier = pin;
  return request;
}

/// A streaming request over an open labelling file.
template <typename Lcl>
VerifyRequest fileRequest(const StreamLabelling& file, const Lcl& lcl,
                          bool countViolations,
                          const StreamWindow& window = {},
                          const engine::EngineOptions& engine = {
                              .threads = 1}) {
  VerifyRequest request;
  if constexpr (std::is_same_v<Lcl, GridLcl>) {
    request.problem = &lcl;
  } else {
    request.problemD = &lcl;
  }
  request.file = &file;
  request.options.countViolations = countViolations;
  request.options.window = window;
  request.options.engine = engine;
  return request;
}

/// Exact violation count of a streaming pass over `file`.
template <typename Lcl>
std::int64_t streamCount(const StreamLabelling& file, const Lcl& lcl,
                         const StreamWindow& window = {},
                         const engine::EngineOptions& engine = {
                             .threads = 1}) {
  return verify(fileRequest(file, lcl, true, window, engine)).violations;
}

/// Feasibility verdict of an early-exit streaming pass over `file`.
template <typename Lcl>
bool streamFeasible(const StreamLabelling& file, const Lcl& lcl,
                    const StreamWindow& window = {},
                    const engine::EngineOptions& engine = {.threads = 1}) {
  return verify(fileRequest(file, lcl, false, window, engine)).feasible;
}

/// Per-labelling exact counts of a batch request.
template <typename Torus, typename Lcl>
std::vector<std::int64_t> batchCounts(
    const Torus& torus, const Lcl& lcl, std::span<const int> batch,
    const engine::EngineOptions& engine = {.threads = 1}) {
  const VerifyResult result =
      verify(inCoreRequest(torus, lcl, batch, true, engine));
  // A one-labelling batch reports through the aggregate fields alone.
  if (result.labellings == 1) return {result.violations};
  return result.violationsPerLabelling;
}

/// Per-labelling verdicts (1 = feasible) of an early-exit batch request.
template <typename Torus, typename Lcl>
std::vector<std::uint8_t> batchVerdicts(
    const Torus& torus, const Lcl& lcl, std::span<const int> batch,
    const engine::EngineOptions& engine = {.threads = 1}) {
  const VerifyResult result =
      verify(inCoreRequest(torus, lcl, batch, false, engine));
  if (result.labellings == 1) {
    return {static_cast<std::uint8_t>(result.feasible ? 1 : 0)};
  }
  return result.feasiblePerLabelling;
}

/// The reference count: the serial functional tier, which must agree with
/// the listViolations diagnostics.
template <typename Torus, typename Lcl>
std::int64_t referenceCount(const Torus& torus, const Lcl& lcl,
                            std::span<const int> labels) {
  const std::int64_t count =
      verify(inCoreRequest(torus, lcl, labels, true, {.threads = 1},
                           TierPin::kFunctional))
          .violations;
  EXPECT_EQ(static_cast<std::size_t>(count),
            listViolations(torus, lcl, labels, INT_MAX).size())
      << lcl.name();
  return count;
}

/// Reference counts of every labelling in a back-to-back batch.
template <typename Torus, typename Lcl>
std::vector<std::int64_t> referenceCounts(const Torus& torus, const Lcl& lcl,
                                          std::span<const int> batch) {
  const std::size_t stride = static_cast<std::size_t>(torus.size());
  std::vector<std::int64_t> counts;
  for (std::size_t offset = 0; offset < batch.size(); offset += stride) {
    counts.push_back(referenceCount(torus, lcl, batch.subspan(offset, stride)));
  }
  return counts;
}

}  // namespace lclgrid::verify_testing
